package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/workload"
)

func TestLayerOfChargesInnermostInternalFrame(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/cache.(*Cache).Probe", "repro/internal/sm.(*SM).Tick", "repro/internal/gpu.(*GPU).step"}, "cache"},
		{[]string{"repro/internal/sm.(*SM).pickWarp", "repro/internal/sm.(*SM).Tick"}, "sm"},
		{[]string{"encoding/json.Marshal", "repro/internal/server/client.(*Client).do", "main.(*simdWorkload).send"}, "client"},
		{[]string{"encoding/json.(*encodeState).marshal", "repro/internal/server/api.Spec.ToRunSpec", "repro/internal/server.(*Server).handleRuns"}, "server"},
		{[]string{"compress/gzip.(*Writer).Write", "repro/internal/checkpoint.(*Manager).Checkpoint", "repro/internal/sweep.ExecuteSpanned"}, "checkpoint"},
		{[]string{"repro/internal/ring.(*Deque[go.shape.int]).Push", "repro/internal/llc.(*Slice).Tick"}, "ring"},
		{[]string{"repro/internal/sweep.(*Runner).Run.func1"}, "other"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"main.main", "runtime.main"}, "runtime"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestAttributeShares(t *testing.T) {
	h := attribute([]profSample{
		{[]string{"repro/internal/sm.(*SM).Tick"}, 30},
		{[]string{"runtime.memmove", "repro/internal/dram.(*Controller).Tick"}, 10},
		{[]string{"runtime.gcBgMarkWorker"}, 60},
	})
	if h.total != 100 || h.share("sm") != 0.3 || h.share("dram") != 0.1 || h.share("runtime") != 0.6 {
		t.Errorf("shares: total %v sm %v dram %v runtime %v", h.total, h.share("sm"), h.share("dram"), h.share("runtime"))
	}
	if h.share("noc") != 0 {
		t.Errorf("an absent layer has share %v", h.share("noc"))
	}
}

// TestParseProfileOfLiveRun profiles a loop spinning in the workload
// generator and checks the decoded samples land on that layer.
func TestParseProfileOfLiveRun(t *testing.T) {
	spec, _ := workload.ByAbbr("AN")
	cfg := config.Baseline()
	gen, err := workload.NewGenerator(spec, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
		for sm := 0; sm < cfg.NumSMs; sm++ {
			gen.NextOp(sm, 0)
		}
	}
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("profile recorded no samples")
	}
	h := attribute(samples)
	if h.total <= 0 {
		t.Fatalf("decoded no CPU time from %d samples", len(samples))
	}
	// Samples the profiler could not unwind (the race detector's runtime,
	// for one) land in "runtime"; of the rest, the generator must dominate.
	for layer, ns := range h.ns {
		if layer != "runtime" && ns > h.ns["workload"] {
			t.Errorf("%s outweighs workload in a loop spinning in workload.NextOp; layers %v", layer, h.ns)
		}
	}
	if h.ns["workload"] == 0 {
		t.Errorf("no samples charged to workload; layers %v", h.ns)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed without error")
	}
}
