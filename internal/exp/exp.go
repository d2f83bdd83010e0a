// Package exp contains the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 6) on the simulated GPU.
//
// Each FigureN function runs the required simulations and returns a
// structured result plus a Format method that prints the same rows/series
// the paper reports. Absolute values differ from the paper (the substrate is
// a from-scratch simulator, not GPGPU-Sim on the authors' traces), but the
// shape of every result — which organization wins, by roughly what factor,
// and where the crossovers lie — is expected to match.
package exp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Options controls the scale and the execution strategy of the experiments.
//
// Scaling vs. the paper: the paper simulates billion-instruction benchmark
// traces with a 50K-cycle profiling window and 1M-cycle epochs for the
// adaptive controller. This harness runs synthetic workloads for tens of
// thousands of cycles, so ProfileWindowCycles is scaled down proportionally
// (2K at the default 60K-cycle measurement) while EpochCycles stays at the
// paper's 1M — at harness scale an epoch therefore never expires mid-run and
// adaptation is driven by the profiling window and kernel boundaries, which
// is the regime the paper's figures probe. Scaling MeasureCycles up (e.g.
// via paperfigs -cycles) moves the harness closer to the paper's operating
// point at a linear cost in wall-clock time.
type Options struct {
	// MeasureCycles is the number of simulated cycles per run after warm-up.
	MeasureCycles uint64
	// WarmupCycles is excluded from all statistics.
	WarmupCycles uint64
	// Seed drives the workload generators.
	Seed int64
	// ProfileWindowCycles and EpochCycles configure the adaptive controller;
	// they are scaled down together with the shortened simulations (the
	// paper uses 50K/1M on billion-instruction runs; see the Options doc).
	ProfileWindowCycles int
	EpochCycles         int

	// Exec executes a figure's declared runs; nil means &sweep.Runner{},
	// one worker per core. cmd/paperfigs passes a Runner carrying its
	// -workers, -progress, -checkpoints and -trace-out settings, and the simd
	// server passes a store-backed executor so every run first consults the
	// content-addressed result cache and misses share one execution across
	// concurrent figure requests. Implementations must honor the
	// sweep.Executor contract (positional results, identical results for
	// identical specs), so the executor only affects wall-clock time.
	Exec sweep.Executor
}

// DefaultOptions returns the scale used by the committed experiment results.
func DefaultOptions() Options {
	return Options{
		MeasureCycles:       60_000,
		WarmupCycles:        20_000,
		Seed:                1,
		ProfileWindowCycles: 2_000,
		EpochCycles:         1_000_000,
	}
}

// QuickOptions returns a reduced scale for unit tests and smoke runs.
func QuickOptions() Options {
	o := DefaultOptions()
	o.MeasureCycles = 20_000
	o.WarmupCycles = 8_000
	return o
}

// baseConfig builds the GPU configuration for a given LLC mode.
func (o Options) baseConfig(mode config.LLCMode) config.Config {
	cfg := config.Baseline()
	cfg.LLCMode = mode
	cfg.ProfileWindowCycles = o.ProfileWindowCycles
	cfg.EpochCycles = o.EpochCycles
	return cfg
}

// runSpec builds the declarative sweep unit for one or more co-running
// workloads on the given configuration.
func (o Options) runSpec(key string, cfg config.Config, specs ...workload.Spec) sweep.RunSpec {
	return sweep.RunSpec{
		Key:           key,
		Workloads:     specs,
		Config:        cfg,
		Seed:          o.Seed,
		MeasureCycles: o.MeasureCycles,
		WarmupCycles:  o.WarmupCycles,
	}
}

// modeSpec builds the sweep unit for one workload on a plain baseline
// configuration with the given LLC mode, keyed "<abbr>/<mode>".
func (o Options) modeSpec(w workload.Spec, mode config.LLCMode) sweep.RunSpec {
	return o.runSpec(modeKey(w.Abbr, mode), o.baseConfig(mode), w)
}

// modeKey is the result key used by the per-mode figure sweeps.
func modeKey(abbr string, mode config.LLCMode) string {
	return abbr + "/" + mode.String()
}

// runAll executes a figure's declared runs on the configured executor and
// returns the statistics keyed by RunSpec.Key. This is the single execution
// path shared by every figure: declare []RunSpec, runAll, collect.
func (o Options) runAll(specs []sweep.RunSpec) (map[string]gpu.RunStats, error) {
	exec := o.Exec
	if exec == nil {
		exec = &sweep.Runner{}
	}
	results, err := exec.Run(context.Background(), specs)
	if err != nil {
		return nil, err
	}
	stats := make(map[string]gpu.RunStats, len(results))
	for _, res := range results {
		if _, dup := stats[res.Key]; dup {
			// A key collision would silently overwrite one run's statistics
			// with another's and render plausible but wrong figures.
			return nil, fmt.Errorf("exp: duplicate run key %q", res.Key)
		}
		stats[res.Key] = res.Stats
	}
	return stats, nil
}

// classAbbrs returns the benchmark abbreviations of one class, in catalog
// order.
func classAbbrs(c workload.Class) []string {
	var out []string
	for _, s := range workload.ByClass(c) {
		out = append(out, s.Abbr)
	}
	return out
}

// hmean is a harmonic mean that tolerates empty input (returns 0).
func hmean(vals []float64) float64 {
	m, err := metrics.HarmonicMean(vals)
	if err != nil {
		return 0
	}
	return m
}

// formatTable renders rows of columns with a header using a fixed-width
// layout (the experiment binaries write these tables to stdout and to
// EXPERIMENTS.md).
func formatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
