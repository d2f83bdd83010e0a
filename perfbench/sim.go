package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The two cycle-loop workloads are cold sweeps of apps x {shared, private,
// adaptive}, run by sweep.Runner exactly as the figure harnesses run them.
// sim-lockstep's private-cache-friendly apps keep the SMs busy (warp pick,
// op generation) while the NoC, LLC and DRAM idle; sim-memory's
// shared-friendly and neutral apps miss in L1 most of the time, so the
// tag stores, MSHRs, crossbars and DRAM carry the load, with the neutral
// apps' stores adding writes and write-backs.
var simApps = map[string][]string{
	"sim-lockstep": {"AN", "MM", "RN", "SN"},
	"sim-memory":   {"SP", "BP", "BS", "DWT2D"},
}

var simModes = []config.LLCMode{config.LLCShared, config.LLCPrivate, config.LLCAdaptive}

const (
	simWarmupCycles  = 2_000
	simMeasureCycles = 6_000
	// setupReps is how many times set-up is repeated; setup_s is the median.
	setupReps = 3
)

// simConfig is the baseline GPU in one LLC mode with the adaptive
// controller at the harness scale (exp.Options' 2K-cycle profiling window):
// at the baseline's paper-scale 50K window a run this short never profiles,
// and adaptive runs would be byte-identical to shared ones.
func simConfig(mode config.LLCMode) config.Config {
	cfg := config.Baseline()
	cfg.LLCMode = mode
	cfg.ProfileWindowCycles = 2_000
	cfg.EpochCycles = 1_000_000
	return cfg
}

// simSpecs declares one workload's sweep, keyed "<app>/<mode>".
func simSpecs(name string, seed int64) ([]sweep.RunSpec, error) {
	apps, ok := simApps[name]
	if !ok {
		return nil, fmt.Errorf("unknown sim workload %q", name)
	}
	var specs []sweep.RunSpec
	for _, abbr := range apps {
		w, ok := workload.ByAbbr(abbr)
		if !ok {
			return nil, fmt.Errorf("no catalog workload %q", abbr)
		}
		for _, mode := range simModes {
			specs = append(specs, sweep.RunSpec{
				Key:           abbr + "/" + mode.String(),
				Workloads:     []workload.Spec{w},
				Config:        simConfig(mode),
				Seed:          seed,
				MeasureCycles: simMeasureCycles,
				WarmupCycles:  simWarmupCycles,
			})
		}
	}
	return specs, nil
}

// loadWorkers is the number of load threads: one per CPU, at most two.
func loadWorkers() int { return min(runtime.NumCPU(), 2) }

type simWorkload struct {
	name   string
	seed   int64
	specs  []sweep.RunSpec
	golden map[string]string
}

func newSimWorkload(o options) *simWorkload {
	return &simWorkload{name: o.workload, seed: o.seed}
}

func (w *simWorkload) close() {}

// setupCycles is the length of every run of the set-up's warm-up sweep.
const setupCycles = 1_000

// setup declares the sweep, loads the golden digests and runs the sweep
// once at setupCycles per run, so the timed sweeps start on a grown heap
// with code and data faulted in. It is repeated setupReps times; the median
// is returned.
func (w *simWorkload) setup() (float64, error) {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		specs, err := simSpecs(w.name, w.seed)
		if err != nil {
			return 0, err
		}
		golden, err := goldenDigests()
		if err != nil {
			return 0, err
		}
		warm := make([]sweep.RunSpec, len(specs))
		for i, s := range specs {
			s.WarmupCycles, s.MeasureCycles = 0, setupCycles
			warm[i] = s
		}
		if _, err := (&sweep.Runner{Workers: loadWorkers()}).Run(context.Background(), warm); err != nil {
			return 0, err
		}
		w.specs, w.golden = specs, golden
		times = append(times, elapsed(start))
	}
	return median(times), nil
}

// runTiming records when each run of a round started and finished, from the
// Runner's per-run hooks. Traced rounds also keep each run's span tree.
type runTiming struct {
	mu     sync.Mutex
	start  map[string]time.Time
	dur    map[string]float64
	traces map[string]*obs.Trace
}

func (t *runTiming) reset(traced bool) {
	t.start = map[string]time.Time{}
	t.dur = map[string]float64{}
	t.traces = nil
	if traced {
		t.traces = map[string]*obs.Trace{}
	}
}

func (w *simWorkload) measure(o options) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	var t runTiming
	runner := &sweep.Runner{
		Workers: loadWorkers(),
		// TraceFor is called as each run starts; untraced it only stamps
		// the start and returns no span.
		TraceFor: func(key string) *obs.Span {
			t.mu.Lock()
			defer t.mu.Unlock()
			t.start[key] = time.Now()
			if t.traces == nil {
				return nil
			}
			tr := obs.NewTrace()
			t.traces[key] = tr
			return tr.Start(key)
		},
		OnProgress: func(p sweep.Progress) {
			t.mu.Lock()
			t.dur[p.Key] = elapsed(t.start[p.Key])
			t.mu.Unlock()
		},
	}

	var (
		first                         map[string][]byte // round 1's stats, for the determinism check
		roundWalls, runMs, roundMaxes []float64
		cycles, runSecs               float64
		counts                        simCounts
		spans                         spanTotals
		allocStart                    = allocatedMB()
		start                         = time.Now()
	)
	for len(roundWalls) == 0 || elapsed(start) < o.seconds {
		t.reset(o.trace)
		roundStart := time.Now()
		results, err := runner.Run(context.Background(), w.specs)
		roundWalls = append(roundWalls, elapsed(roundStart))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: sweep:", err)
		}
		if first == nil {
			first = map[string][]byte{}
		}
		var roundMax float64
		for i, r := range results {
			res.attempted++
			if r.Err != nil {
				res.fail(r.Err.Error())
				continue
			}
			spec := w.specs[i]
			v := checkSimRun(w.name, w.seed, spec, r.Stats, w.golden)
			js := scenario.StatsJSON(r.Stats)
			if prev, ok := first[r.Key]; !ok {
				first[r.Key] = js
			} else if string(prev) != string(js) {
				v = append(v, r.Key+": stats differ from the first round's")
			}
			if len(v) > 0 {
				res.fail(v...)
			}
			d := t.dur[r.Key]
			runMs = append(runMs, d*1e3)
			runSecs += d
			roundMax = max(roundMax, d)
			simulated := spec.WarmupCycles + spec.MeasureCycles
			cycles += float64(simulated)
			counts.add(r.Stats, simulated)
			if tr := t.traces[r.Key]; tr != nil {
				spans.add(tr.Snapshot())
			}
		}
		roundMaxes = append(roundMaxes, roundMax)
	}
	phase := elapsed(start)

	m := res.metrics
	m["wall_s"] = median(roundWalls)
	m["sim_kcycles_per_s"] = ratio(cycles/1e3, runSecs)
	m["adaptive_speedup"] = adaptiveSpeedup(first, simApps[w.name])
	m["op_p50_ms"] = median(runMs)
	m["op_tail_ms"], _ = tail(runMs, 0.99)
	m["served_per_s"] = float64(len(runMs)) / phase
	m["alloc_mb"] = (allocatedMB() - allocStart) / float64(len(roundWalls))
	if o.trace {
		counts.report(m)
		spans.report(m)
		m["sweep.run_s_max"] = median(roundMaxes)
		var wallSum float64
		for _, x := range roundWalls {
			wallSum += x
		}
		m["sweep.worker_idle_frac"] = 1 - ratio(runSecs, float64(runner.Workers)*wallSum)
	}
	return res, nil
}

// adaptiveSpeedup is the harmonic mean over apps of adaptive IPC / shared
// IPC (simulated), read from one round's canonical stats.
func adaptiveSpeedup(stats map[string][]byte, apps []string) float64 {
	var inv float64
	n := 0
	for _, a := range apps {
		ad, err1 := decodeStats(stats[a+"/"+config.LLCAdaptive.String()])
		sh, err2 := decodeStats(stats[a+"/"+config.LLCShared.String()])
		if err1 != nil || err2 != nil || ad.IPC == 0 {
			continue
		}
		inv += sh.IPC / ad.IPC
		n++
	}
	return ratio(float64(n), inv)
}

// simCounts sums the simulated per-layer counts over many runs' RunStats.
type simCounts struct {
	simulated, cycles, instr, noReady, structural, l1Hits, loads  float64
	cacheAccesses                                                 float64
	flits, nocLatency, delivered, injectStalls                    float64
	llcAccesses, llcHits, mshrStalls, writebacks                  float64
	dramReqs, rowHits, rowIssued, queueing, completed, stallsFull float64
	profiles, switches, reconfig                                  float64
}

// add sums one run; simulated is the cycles the run actually simulated
// (its warmup too, unless it resumed from a checkpoint), while the stats
// cover only the measured window.
func (c *simCounts) add(s gpu.RunStats, simulated uint64) {
	c.simulated += float64(simulated)
	c.cycles += float64(s.Cycles)
	c.instr += float64(s.Instructions)
	c.noReady += float64(s.SM.StallNoReadyWarp)
	c.structural += float64(s.SM.StallStructural)
	c.l1Hits += float64(s.SM.L1Hits)
	c.loads += float64(s.SM.L1Hits + s.SM.L1Misses)
	c.cacheAccesses += float64(s.SM.Loads + s.SM.Stores + s.LLC.Accesses)
	c.flits += float64(s.NoC.FlitsInjected)
	c.nocLatency += float64(s.NoC.TotalLatency)
	c.delivered += float64(s.NoC.Delivered)
	c.injectStalls += float64(s.NoC.InjectStallCycles)
	c.llcAccesses += float64(s.LLC.Accesses)
	c.llcHits += float64(s.LLC.Hits)
	c.mshrStalls += float64(s.LLC.MSHRStalls)
	c.writebacks += float64(s.LLC.Writebacks)
	c.dramReqs += float64(s.DRAM.Requests)
	c.rowHits += float64(s.DRAM.RowHits)
	c.rowIssued += float64(s.DRAM.RowHits + s.DRAM.RowMisses + s.DRAM.RowConflicts)
	c.queueing += float64(s.DRAM.TotalQueueing)
	c.completed += float64(s.DRAM.Completed)
	c.stallsFull += float64(s.DRAM.StallsFull)
	if s.Controller != nil {
		c.profiles += float64(s.Controller.ProfileWindows)
		c.switches += float64(s.Controller.SwitchesToPrivate + s.Controller.SwitchesToShared)
		c.reconfig += float64(s.Controller.ReconfigCycles)
	}
}

func (c *simCounts) report(m map[string]float64) {
	m["sim.simulated_cycles"] = c.simulated
	m["sim.cycles"] = c.cycles
	m["sm.instructions"] = c.instr
	m["sm.stall_no_ready_warp"] = c.noReady
	m["sm.stall_structural"] = c.structural
	m["sm.l1_hit_rate"] = ratio(c.l1Hits, c.loads)
	m["cache.accesses"] = c.cacheAccesses
	m["noc.flits"] = c.flits
	m["noc.avg_latency_cycles"] = ratio(c.nocLatency, c.delivered)
	m["noc.inject_stalls"] = c.injectStalls
	m["llc.accesses"] = c.llcAccesses
	m["llc.hit_rate"] = ratio(c.llcHits, c.llcAccesses)
	m["llc.mshr_stalls"] = c.mshrStalls
	m["llc.writebacks"] = c.writebacks
	m["dram.requests"] = c.dramReqs
	m["dram.row_hit_rate"] = ratio(c.rowHits, c.rowIssued)
	m["dram.avg_queueing_cycles"] = ratio(c.queueing, c.completed)
	m["dram.stalls_full"] = c.stallsFull
	m["core.profile_windows"] = c.profiles
	m["core.switches"] = c.switches
	m["core.reconfig_stall_cycles"] = c.reconfig
}

// spanTotals averages the sweep engine's per-run spans: the run's root
// span, minus warmup and measure, is program build plus gpu.New.
type spanTotals struct {
	runs, newS, warmupS, measureS float64
}

func (s *spanTotals) add(roots []*obs.SpanJSON) {
	for _, root := range roots {
		s.runs++
		rest := float64(root.DurUS)
		for _, c := range root.Children {
			switch c.Name {
			case "warmup":
				s.warmupS += float64(c.DurUS) / 1e6
				rest -= float64(c.DurUS)
			case "measure":
				s.measureS += float64(c.DurUS) / 1e6
				rest -= float64(c.DurUS)
			}
		}
		s.newS += rest / 1e6
	}
}

func (s *spanTotals) report(m map[string]float64) {
	m["gpu.new_ms"] = ratio(s.newS*1e3, s.runs)
	m["gpu.warmup_s"] = ratio(s.warmupS, s.runs)
	m["gpu.run_s"] = ratio(s.measureS, s.runs)
}
