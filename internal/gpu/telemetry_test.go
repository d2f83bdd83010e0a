package gpu

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// The process-wide cycle counter must advance with the cycle loop — and
// must not perturb the simulation: stats stay byte-identical whether or
// not anyone reads it (it never enters RunStats at all).
func TestTelemetryCountsCycles(t *testing.T) {
	spec, ok := workload.ByAbbr("VA")
	if !ok {
		t.Fatal("unknown benchmark VA")
	}
	cfg := config.Baseline()
	gen, err := workload.NewGenerator(spec, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}

	before := CyclesSimulated()
	g.runLoop(2_000, 1, nil)
	if got := CyclesSimulated() - before; got < 2_000 {
		t.Errorf("cycle counter advanced by %d, want >= 2000", got)
	}
}
