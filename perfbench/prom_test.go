package main

import (
	"math"
	"os"
	"testing"
)

// The testdata expositions are two /metrics scrapes of one simd member taken
// around 40 requests of the simd-cluster schedule. The expected deltas were
// read off the two files independently of this parser.
var capturedDeltas = []struct {
	name string
	want float64
}{
	{"simd_runs_executed_total", 1},
	{"simd_store_hits_total", 19},
	{"simd_store_misses_total", 9},
	{"simd_cluster_forwarded_total", 1},
	{"simd_replication_pushed_total", 2},
	{"simd_checkpoint_restore_seconds_sum", 0.011087445},
	{"simd_checkpoint_restore_seconds_count", 1},
	{"simd_cluster_forward_seconds_count", 1},
}

const (
	capturedQueueWaitMean = 0.000037241
	capturedHTTPRequests  = 46
)

func loadScrape(t *testing.T, name string) exposition {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	e, err := parseExposition(string(data))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExpositionDeltas(t *testing.T) {
	before := []exposition{loadScrape(t, "metrics_before.txt")}
	after := []exposition{loadScrape(t, "metrics_after.txt")}

	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for _, c := range capturedDeltas {
		near(c.name, delta(before, after, c.name), c.want)
	}
	near("queue wait mean", histMean(before, after, "simd_job_queue_wait_seconds"), capturedQueueWaitMean)
	// A labelled family sums over its label sets.
	near("http requests", delta(before, after, "simd_http_requests_total"), capturedHTTPRequests)
	// A name that is only a prefix of another family matches nothing.
	near("prefix", after[0].sum("simd_store"), 0)
	// Two members' scrapes add up.
	near("two members", delta(append(before, before[0]), append(after, after[0]), "simd_runs_executed_total"),
		2*delta(before, after, "simd_runs_executed_total"))
}

func TestParseExpositionRejectsMalformedLines(t *testing.T) {
	for _, text := range []string{"simd_up", "simd_up one", "simd_up{a=\"b\"} 1 2x"} {
		if _, err := parseExposition(text); err == nil {
			t.Errorf("%q parsed without error", text)
		}
	}
	e, err := parseExposition("# HELP x y\n# TYPE x counter\nx_total{route=\"GET /a b\"} 3\n\n")
	if err != nil || e.sum("x_total") != 3 {
		t.Errorf("label value with spaces: %v %v", e, err)
	}
}
