package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/gpu"
	"repro/internal/scenario"
	"repro/internal/server/api"
	"repro/internal/sweep"
)

// goldenRun executes one sim-lockstep run at the default seed.
func goldenRun(t *testing.T, key string) (sweep.RunSpec, gpu.RunStats) {
	t.Helper()
	specs, err := simSpecs("sim-lockstep", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if s.Key == key {
			stats, err := sweep.Execute(s)
			if err != nil {
				t.Fatal(err)
			}
			return s, stats
		}
	}
	t.Fatalf("no run %q", key)
	return sweep.RunSpec{}, gpu.RunStats{}
}

func TestSimGateCatchesAlteredRunStats(t *testing.T) {
	spec, stats := goldenRun(t, "AN/adaptive")
	golden, err := goldenDigests()
	if err != nil {
		t.Fatal(err)
	}
	if v := checkSimRun("sim-lockstep", defaultSeed, spec, stats, golden); len(v) > 0 {
		t.Fatalf("unaltered run fails the gate: %v", v)
	}

	alter := map[string]func(s *gpu.RunStats){
		// Breaks IPC = Instructions/Cycles: caught by the invariants at any seed.
		"instructions": func(s *gpu.RunStats) { s.Instructions++ },
		// Consistent with every invariant: only the golden digest sees it.
		"writebacks": func(s *gpu.RunStats) { s.LLC.Writebacks++ },
		// An adaptive run that never switched did not exercise the controller.
		"no switches": func(s *gpu.RunStats) {
			c := *s.Controller
			c.SwitchesToPrivate, c.SwitchesToShared = 0, 0
			s.Controller = &c
		},
	}
	for name, fn := range alter {
		bad := stats
		fn(&bad)
		if v := checkSimRun("sim-lockstep", defaultSeed, spec, bad, golden); len(v) == 0 {
			t.Errorf("%s: altered stats pass the gate", name)
		}
	}
	// Away from the default seed only the invariants and the switch check
	// apply.
	bad := stats
	bad.Instructions++
	if v := checkSimRun("sim-lockstep", defaultSeed+1, spec, bad, golden); len(v) == 0 {
		t.Error("instructions: altered stats pass the gate at another seed")
	}
}

func TestResponseGateCatchesAlteredAnswer(t *testing.T) {
	spec, stats := goldenRun(t, "SN/shared")
	ref := scenario.StatsJSON(stats)
	answer := func() api.RunResult {
		s := stats
		return api.RunResult{Key: spec.Key, Status: api.StatusDone, Cached: true, Stats: &s}
	}
	if v := checkResponse(spec, answer(), true, ref); len(v) > 0 {
		t.Fatalf("faithful answer fails the gate: %v", v)
	}

	alter := map[string]func(r *api.RunResult){
		"dram requests": func(r *api.RunResult) { r.Stats.DRAM.Requests++ },
		"cached flag":   func(r *api.RunResult) { r.Cached = false },
		"failed":        func(r *api.RunResult) { r.Status, r.Error, r.Stats = api.StatusFailed, "boom", nil },
		"cycles":        func(r *api.RunResult) { r.Stats.Cycles++ },
	}
	for name, fn := range alter {
		r := answer()
		fn(&r)
		if v := checkResponse(spec, r, true, ref); len(v) == 0 {
			t.Errorf("%s: altered answer passes the gate", name)
		}
	}
	// A first answer (no reference yet) is still held to its flag and the
	// invariants.
	r := answer()
	r.Stats.Cycles++
	if v := checkResponse(spec, r, true, nil); len(v) == 0 {
		t.Error("first answer with broken invariants passes the gate")
	}
}

// TestBenchmarkJSONMatchesReport keeps BENCHMARK.json's metric list and the
// metrics this program reports the same.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
