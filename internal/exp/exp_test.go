package exp

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// tinyOptions keeps the harness tests fast; the figure-level assertions here
// are structural (row counts, formatting, orderings that hold even at small
// scale), while the quantitative claims are covered by the GPU integration
// tests and the top-level benchmarks.
func tinyOptions() Options {
	o := QuickOptions()
	o.MeasureCycles = 5_000
	o.WarmupCycles = 2_000
	o.ProfileWindowCycles = 1_000
	return o
}

func TestOptionsAndHelpers(t *testing.T) {
	if DefaultOptions().MeasureCycles <= QuickOptions().MeasureCycles {
		t.Error("default scale should exceed quick scale")
	}
	cfg := DefaultOptions().baseConfig(config.LLCAdaptive)
	if cfg.LLCMode != config.LLCAdaptive {
		t.Error("baseConfig should set the LLC mode")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("baseConfig invalid: %v", err)
	}
	if got := hmean([]float64{2, 2}); got != 2 {
		t.Errorf("hmean = %v", got)
	}
	if got := hmean(nil); got != 0 {
		t.Errorf("hmean(nil) = %v, want 0", got)
	}
	if got := norm(3, 2); got != 1.5 {
		t.Errorf("norm = %v", got)
	}
	if got := norm(3, 0); got != 0 {
		t.Errorf("norm by zero = %v", got)
	}
	if n := len(classAbbrs(workload.PrivateFriendly)); n != 5 {
		t.Errorf("classAbbrs = %d entries, want 5", n)
	}
	tbl := formatTable([]string{"a", "b"}, [][]string{{"1", "22"}})
	if !strings.Contains(tbl, "a") || !strings.Contains(tbl, "22") {
		t.Errorf("formatTable output missing content:\n%s", tbl)
	}
}

// recordingExec counts executor invocations without simulating anything.
type recordingExec struct {
	calls int
	specs int
	err   error
}

func (e *recordingExec) Run(_ context.Context, specs []sweep.RunSpec) ([]sweep.Result, error) {
	e.calls++
	e.specs += len(specs)
	return nil, e.err
}

// TestInjectedExecutor checks that a figure's declared runs are handed to
// Options.Exec instead of the local Runner when one is injected.
func TestInjectedExecutor(t *testing.T) {
	exec := &recordingExec{err: errors.New("remote backend unavailable")}
	o := tinyOptions()
	o.Exec = exec
	if _, err := Figure3(o); err == nil || !strings.Contains(err.Error(), "remote backend unavailable") {
		t.Fatalf("Figure3 error = %v, want the injected executor's error", err)
	}
	if exec.calls != 1 {
		t.Errorf("executor invoked %d times, want 1", exec.calls)
	}
	if exec.specs != len(workload.Catalog()) {
		t.Errorf("executor received %d specs, want %d (one per benchmark)",
			exec.specs, len(workload.Catalog()))
	}
}

func TestFigureRegistry(t *testing.T) {
	figs := Figures()
	wantKeys := []string{"tables", "2", "3", "7", "11", "12", "13", "14", "15", "16"}
	if len(figs) != len(wantKeys) {
		t.Fatalf("registry has %d entries, want %d", len(figs), len(wantKeys))
	}
	for i, want := range wantKeys {
		if figs[i].Key != want {
			t.Errorf("registry[%d].Key = %q, want %q", i, figs[i].Key, want)
		}
		if figs[i].Name == "" || figs[i].Run == nil {
			t.Errorf("registry entry %q incomplete", figs[i].Key)
		}
	}
	if _, ok := FigureByKey("99"); ok {
		t.Error("FigureByKey accepted an unknown key")
	}
	job, ok := FigureByKey("tables")
	if !ok {
		t.Fatal("tables entry missing")
	}
	out, err := job.Run(tinyOptions())
	if err != nil || !strings.Contains(out, "80 SMs") {
		t.Errorf("tables job: err=%v, output missing Table 1 content", err)
	}
}

func TestTables(t *testing.T) {
	t1 := Table1()
	for _, want := range []string{"80 SMs", "1400 MHz", "FR-FCFS", "6 MB"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
	t2 := Table2()
	for _, want := range []string{"AlexNet", "GEMM", "Vector Add", "private-friendly"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
}

func TestRunModeSmoke(t *testing.T) {
	o := tinyOptions()
	spec, _ := workload.ByAbbr("VA")
	rs, err := sweep.Execute(o.modeSpec(spec, config.LLCShared))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Instructions == 0 {
		t.Error("run made no progress")
	}
	if _, err := sweep.Execute(o.runSpec(spec.Abbr, config.Config{}, spec)); err == nil {
		t.Error("invalid config must fail")
	}
}

func TestFigure12And13Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	o := tinyOptions()
	f12, err := Figure12(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f12.Rows) != 5 {
		t.Errorf("Figure 12 rows = %d, want 5 (private-friendly apps)", len(f12.Rows))
	}
	if !strings.Contains(f12.Format(), "response rate") {
		t.Error("Figure 12 format missing title")
	}

	f13, err := Figure13(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f13.Rows) != 6 {
		t.Errorf("Figure 13 rows = %d, want 6 (shared-friendly apps)", len(f13.Rows))
	}
	if f13.Avg.Private <= f13.Avg.Shared {
		t.Errorf("Figure 13: private miss rate (%.3f) should exceed shared (%.3f) even at small scale",
			f13.Avg.Private, f13.Avg.Shared)
	}
	if !strings.Contains(f13.Format(), "miss rate") {
		t.Error("Figure 13 format missing title")
	}
}

// TestFigureParallelDeterminism checks the figure harness end to end on the
// sweep engine: the same figure regenerated serially and with a worker pool
// must produce identical rows and aggregates.
func TestFigureParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	serial := tinyOptions()
	serial.Exec = &sweep.Runner{Workers: 1}
	parallel := tinyOptions()
	parallel.Exec = &sweep.Runner{Workers: 4}

	a, err := Figure12(serial)
	if err != nil {
		t.Fatalf("serial Figure12: %v", err)
	}
	b, err := Figure12(parallel)
	if err != nil {
		t.Fatalf("parallel Figure12: %v", err)
	}
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Errorf("parallel Figure12 rows differ from serial:\nserial:   %+v\nparallel: %+v", a.Rows, b.Rows)
	}
	if a.HM != b.HM {
		t.Errorf("parallel Figure12 HM differs: serial %+v, parallel %+v", a.HM, b.HM)
	}
}

func TestFigure7Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	o := tinyOptions()
	res, err := Figure7(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("Figure 7 rows = %d, want 8 design points", len(res.Rows))
	}
	if res.Rows[0].NormalizedIPC != 1 || res.Rows[0].NormalizedPower != 1 {
		t.Error("the full crossbar anchors the normalization")
	}
	// H-Xbar at the same bisection bandwidth must be smaller than the full
	// crossbar (the area conclusion holds at any simulation scale because it
	// is structural).
	if res.Rows[1].Area.Total() >= res.Rows[0].Area.Total() {
		t.Errorf("H-Xbar area (%.2f) should be below the full crossbar (%.2f)",
			res.Rows[1].Area.Total(), res.Rows[0].Area.Total())
	}
	if !strings.Contains(res.Format(), "design space") {
		t.Error("Figure 7 format missing title")
	}
}

func TestFigure16SensitivityStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow full-GPU simulation; skipped in -short mode")
	}
	o := tinyOptions()
	// Restrict to a single category by checking the full sweep's row count
	// would be too slow here; instead run the address-mapping points only by
	// reusing the public API at the smallest scale.
	res, err := Figure16(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 {
		t.Errorf("Figure 16 rows = %d, want 15 design points", len(res.Rows))
	}
	categories := map[string]bool{}
	positive := 0
	for _, r := range res.Rows {
		categories[r.Category] = true
		if r.NormAdaptive < 0 {
			t.Errorf("%s/%s: negative speedup", r.Category, r.Point)
		}
		if r.NormAdaptive > 0 {
			positive++
		}
	}
	// At this deliberately tiny scale a point can degenerate (the whole
	// measurement window swallowed by reconfiguration stalls), but the large
	// majority of design points must produce meaningful speedups.
	if positive < len(res.Rows)-2 {
		t.Errorf("only %d/%d sensitivity points produced a positive speedup", positive, len(res.Rows))
	}
	for _, want := range []string{"address mapping", "channel width", "SM count", "L1 size", "CTA scheduling"} {
		if !categories[want] {
			t.Errorf("missing sensitivity category %q", want)
		}
	}
	if !strings.Contains(res.Format(), "sensitivity") {
		t.Error("Figure 16 format missing title")
	}
}
