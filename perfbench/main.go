// Command perfbench is the repository's benchmark. It drives the simulator
// through sweep.Runner and the simd service through server.New and
// client.Client, checks every result, and prints one JSON line of metrics.
//
//	perfbench --workload sim-lockstep --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of untraced runs (--trace 0), reported for every
// workload. "Round" and "operation" are defined per workload in README.md.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"sim_kcycles_per_s", "kcycles/s"},
	{"adaptive_speedup", "x"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"served_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics of traced runs (--trace 1). A layer a workload
// never reaches reports 0.
var perLayer = slices.Concat(hostDefs(), simCountDefs, timedDefs, simdLayerDefs)

// hostDefs are the profile's host share per layer and the per-event costs
// derived from them.
func hostDefs() []metricDef {
	var defs []metricDef
	for _, l := range profileLayers {
		defs = append(defs, metricDef{l + ".host_share", "frac"})
	}
	return append(defs,
		metricDef{"cycleloop.host_share", "frac"},
		metricDef{"service.host_share", "frac"},
		metricDef{"sm.host_ns_per_instr", "ns"},
		metricDef{"workload.host_ns_per_instr", "ns"},
		metricDef{"cache.host_ns_per_access", "ns"},
		metricDef{"noc.host_ns_per_flit", "ns"},
		metricDef{"llc.host_ns_per_access", "ns"},
		metricDef{"dram.host_ns_per_request", "ns"},
	)
}

// simCountDefs are simulated counts summed over the runs' RunStats.
var simCountDefs = []metricDef{
	{"sim.simulated_cycles", "count"},
	{"sim.cycles", "count"},
	{"sm.instructions", "count"},
	{"sm.stall_no_ready_warp", "count"},
	{"sm.stall_structural", "count"},
	{"sm.l1_hit_rate", "frac"},
	{"cache.accesses", "count"},
	{"noc.flits", "count"},
	{"noc.avg_latency_cycles", "cycles"},
	{"noc.inject_stalls", "count"},
	{"llc.accesses", "count"},
	{"llc.hit_rate", "frac"},
	{"llc.mshr_stalls", "count"},
	{"llc.writebacks", "count"},
	{"dram.requests", "count"},
	{"dram.row_hit_rate", "frac"},
	{"dram.avg_queueing_cycles", "cycles"},
	{"dram.stalls_full", "count"},
	{"core.profile_windows", "count"},
	{"core.switches", "count"},
	{"core.reconfig_stall_cycles", "cycles"},
}

// timedDefs are host times measured around public calls, plus the traced
// run's own headline figures (against the untraced ones they give the
// tracing overhead).
var timedDefs = []metricDef{
	{"gpu.new_ms", "ms"},
	{"gpu.warmup_s", "s"},
	{"gpu.run_s", "s"},
	{"sweep.run_s_max", "s"},
	{"sweep.worker_idle_frac", "frac"},
	{"traced.wall_s", "s"},
	{"traced.served_per_s", "1/s"},
}

// simdLayerDefs come from the simd-cluster workload: the client's view, the
// members' /metrics deltas and the job timelines of miss runs.
var simdLayerDefs = []metricDef{
	{"client.hit_p50_ms", "ms"},
	{"client.hit_p99_ms", "ms"},
	{"client.hit_local_ms_p50", "ms"},
	{"client.hit_remote_ms_p50", "ms"},
	{"client.miss_p50_ms", "ms"},
	{"client.miss_p90_ms", "ms"},
	{"client.miss_frac", "frac"},
	{"cluster.forward_ms_mean", "ms"},
	{"cluster.forwarded", "count"},
	{"cluster.remote_polls", "count"},
	{"server.queue_wait_ms_mean", "ms"},
	{"server.run_s_mean", "s"},
	{"simstore.write_ms_mean", "ms"},
	{"simstore.hit_ratio", "frac"},
	{"checkpoint.restore_ms_mean", "ms"},
	{"checkpoint.save_ms_mean", "ms"},
	{"checkpoint.hit_ratio", "frac"},
	{"replication.pushed", "count"},
	{"replication.errors", "count"},
	{"replication.read_repairs", "count"},
	{"timeline.queue_wait_ms", "ms"},
	{"timeline.checkpoint_probe_ms", "ms"},
	{"timeline.checkpoint_restore_ms", "ms"},
	{"timeline.simulate_ms", "ms"},
	{"timeline.checkpoint_save_ms", "ms"},
	{"timeline.store_write_ms", "ms"},
}

// result is what one workload run hands back to main.
type result struct {
	attempted, failed int
	// violations lists every correctness check that failed.
	violations []string
	metrics    map[string]float64
}

// fail records one failed operation and why.
func (r *result) fail(why ...string) {
	r.failed++
	if len(r.violations) < 20 {
		r.violations = append(r.violations, why...)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

func main() {
	var (
		o      options
		secs   int
		trace  int
		update bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload: sim-lockstep, sim-memory or simd-cluster")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&secs, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 runs with a CPU profile and spans and reports per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/run", "scratch directory for the simd stores")
	flag.BoolVar(&update, "update-golden", false, "rewrite golden.json from the default seed and exit")
	flag.Parse()
	o.seconds = float64(secs)
	o.trace = trace == 1

	if update {
		if err := updateGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, v := range res.violations {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", v)
	}
	line, err := report(res, o.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// run executes one workload, with a CPU profile around the timed phase when
// tracing.
func run(o options) (*result, error) {
	var wl interface {
		setup() (float64, error)
		measure(o options) (*result, error)
		close()
	}
	switch o.workload {
	case "sim-lockstep", "sim-memory":
		wl = newSimWorkload(o)
	case "simd-cluster":
		wl = newSimdWorkload(o)
	default:
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	defer wl.close()

	setupS, err := wl.setup()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	var prof bytes.Buffer
	if o.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	res, err := wl.measure(o)
	if o.trace {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = setupS
	res.metrics["peak_rss_mb"] = peakRSSMB()
	if o.trace {
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		addHostShares(res.metrics, attribute(samples))
		res.metrics["traced.wall_s"] = res.metrics["wall_s"]
		res.metrics["traced.served_per_s"] = res.metrics["served_per_s"]
		printLayerTable(os.Stderr, o.workload, res.metrics)
	}
	return res, nil
}

// addHostShares turns a layer profile into host shares and per-event costs.
func addHostShares(m map[string]float64, h hostProfile) {
	var loop, service float64
	for _, l := range profileLayers {
		m[l+".host_share"] = h.share(l)
	}
	for _, l := range cycleLoopLayers {
		loop += h.share(l)
	}
	for _, l := range serviceLayers {
		service += h.share(l)
	}
	m["cycleloop.host_share"] = loop
	m["service.host_share"] = service
	// The stats count events in the measured window only, while the profile
	// also covers warmup; scale the counts up to every simulated cycle.
	scale := ratio(m["sim.simulated_cycles"], m["sim.cycles"])
	perEvent := func(layer string, events float64) float64 { return ratio(h.ns[layer], events*scale) }
	m["sm.host_ns_per_instr"] = perEvent("sm", m["sm.instructions"])
	m["workload.host_ns_per_instr"] = perEvent("workload", m["sm.instructions"])
	m["cache.host_ns_per_access"] = perEvent("cache", m["cache.accesses"])
	m["noc.host_ns_per_flit"] = perEvent("noc", m["noc.flits"])
	m["llc.host_ns_per_access"] = perEvent("llc", m["llc.accesses"])
	m["dram.host_ns_per_request"] = perEvent("dram", m["dram.requests"])
}

// report renders the result line: every metric of the run's kind, by name
// and unit. An end-to-end metric the workload failed to produce is an error;
// a per-layer metric of a layer it never reached is 0.
func report(res *result, traced bool) (string, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !traced {
			return "", fmt.Errorf("workload produced no %s", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.violations) == 0 && res.failed == 0, res.attempted, res.failed, metrics})
	return string(out), err
}

func printLayerTable(w io.Writer, workload string, m map[string]float64) {
	fmt.Fprintf(w, "per-layer (%s, traced)\n", workload)
	for _, d := range perLayer {
		if v := m[d.name]; v != 0 {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, v, d.unit)
		}
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocatedMB is the heap allocated so far by the whole process.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// elapsed is seconds since t.
func elapsed(t time.Time) float64 { return time.Since(t).Seconds() }
