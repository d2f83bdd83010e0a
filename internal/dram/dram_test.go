package dram

import (
	"math/rand"
	"testing"

	"repro/internal/config"
)

func testController() *Controller {
	cfg := config.Baseline().Normalize()
	cfg.MCQueueDepth = 16
	return NewController(0, cfg)
}

// run ticks the controller until all enqueued requests complete or the cycle
// limit is reached, returning the completions in order.
func run(t *testing.T, c *Controller, limit int) []Completion {
	t.Helper()
	var all []Completion
	for i := 0; i < limit; i++ {
		all = append(all, c.Tick()...)
		if !c.Pending() {
			return all
		}
	}
	t.Fatalf("controller did not drain within %d cycles (%d still pending)", limit, c.QueueLen())
	return nil
}

func TestSingleReadLatency(t *testing.T) {
	c := testController()
	if !c.Enqueue(Request{ID: 1, Bank: 0, Row: 5}) {
		t.Fatal("enqueue failed")
	}
	done := run(t, c, 1000)
	if len(done) != 1 || done[0].Req.ID != 1 {
		t.Fatalf("completions = %+v", done)
	}
	// Closed-row read: ACT (tRCD=12) + CAS (tCL=12) + burst. Finish must be
	// at least tRCD+tCL cycles after enqueue.
	if done[0].FinishedAt < 24 {
		t.Errorf("read finished at cycle %d, expected >= 24 (tRCD+tCL)", done[0].FinishedAt)
	}
	st := c.Stats()
	if st.RowMisses != 1 || st.RowHits != 0 || st.RowConflicts != 0 {
		t.Errorf("stats = %+v, want exactly one row miss", st)
	}
	if st.BytesMoved != 128 {
		t.Errorf("BytesMoved = %d, want 128", st.BytesMoved)
	}
}

func TestRowHitVsConflict(t *testing.T) {
	c := testController()
	// Two requests to the same bank, same row: second is a row hit.
	c.Enqueue(Request{ID: 1, Bank: 2, Row: 10})
	c.Enqueue(Request{ID: 2, Bank: 2, Row: 10})
	// Third to the same bank, different row: conflict.
	c.Enqueue(Request{ID: 3, Bank: 2, Row: 11})
	run(t, c, 2000)
	st := c.Stats()
	if st.RowHits != 1 {
		t.Errorf("RowHits = %d, want 1", st.RowHits)
	}
	if st.RowMisses != 1 {
		t.Errorf("RowMisses = %d, want 1", st.RowMisses)
	}
	if st.RowConflicts != 1 {
		t.Errorf("RowConflicts = %d, want 1", st.RowConflicts)
	}
	if st.RowHitRate() < 0.3 || st.RowHitRate() > 0.34 {
		t.Errorf("RowHitRate = %v, want 1/3", st.RowHitRate())
	}
}

func TestQueueCapacity(t *testing.T) {
	cfg := config.Baseline().Normalize()
	cfg.MCQueueDepth = 4
	c := NewController(0, cfg)
	for i := 0; i < 4; i++ {
		if !c.Enqueue(Request{ID: uint64(i), Bank: i, Row: 0}) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if c.CanAccept() {
		t.Error("queue should be full")
	}
	if c.Enqueue(Request{ID: 99, Bank: 0, Row: 0}) {
		t.Error("enqueue into a full queue should fail")
	}
	if c.Stats().StallsFull != 1 {
		t.Errorf("StallsFull = %d, want 1", c.Stats().StallsFull)
	}
}

// TestRefuseCountsLikeARefusedEnqueue checks the check-first admission path:
// a caller that finds CanAccept false and calls Refuse leaves the same
// StallsFull count as one that tried Enqueue.
func TestRefuseCountsLikeARefusedEnqueue(t *testing.T) {
	cfg := config.Baseline().Normalize()
	cfg.MCQueueDepth = 1
	c := NewController(0, cfg)
	if !c.CanAccept() || !c.Enqueue(Request{ID: 1, Bank: 0, Row: 0}) {
		t.Fatal("first request must be admitted")
	}
	if c.CanAccept() {
		t.Fatal("queue of depth 1 should be full")
	}
	c.Refuse()
	c.Enqueue(Request{ID: 2, Bank: 0, Row: 0})
	if st := c.Stats(); st.StallsFull != 2 || st.Requests != 1 {
		t.Errorf("StallsFull = %d, Requests = %d; want 2 and 1", st.StallsFull, st.Requests)
	}
}

func TestEnqueuePanicsOnBadBank(t *testing.T) {
	c := testController()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range bank")
		}
	}()
	c.Enqueue(Request{Bank: 1000})
}

// TestBankParallelismBeatsSerialization checks that N requests spread over N
// banks finish sooner than N requests to different rows of a single bank
// (bank-level parallelism).
func TestBankParallelismBeatsSerialization(t *testing.T) {
	finish := func(sameBank bool) uint64 {
		c := testController()
		for i := 0; i < 8; i++ {
			bank := i
			if sameBank {
				bank = 0
			}
			c.Enqueue(Request{ID: uint64(i), Bank: bank, Row: uint64(i)})
		}
		var last uint64
		for cyc := 0; cyc < 10000 && c.Pending(); cyc++ {
			for _, d := range c.Tick() {
				last = d.FinishedAt
			}
		}
		if c.Pending() {
			t.Fatal("did not drain")
		}
		return last
	}
	spread := finish(false)
	serial := finish(true)
	if spread >= serial {
		t.Errorf("bank-parallel finish (%d) should beat single-bank finish (%d)", spread, serial)
	}
}

// TestSustainedBandwidth checks that a long stream of row hits approaches the
// configured per-controller data-bus bandwidth.
func TestSustainedBandwidth(t *testing.T) {
	cfg := config.Baseline().Normalize()
	cfg.MCQueueDepth = 64
	c := NewController(0, cfg)
	const n = 512
	issued := 0
	completed := 0
	cycles := 0
	for completed < n && cycles < 100000 {
		for issued < n && c.CanAccept() {
			// Same row, rotating banks: maximal row-hit, bus-limited stream.
			c.Enqueue(Request{ID: uint64(issued), Bank: issued % 16, Row: 0})
			issued++
		}
		completed += len(c.Tick())
		cycles++
	}
	if completed < n {
		t.Fatalf("only %d/%d completed in %d cycles", completed, n, cycles)
	}
	// Ideal: burstCycles per request once the pipeline is primed.
	burst := 128 / cfg.BusBytesPerCycle
	if burst < 1 {
		burst = 1
	}
	ideal := n * burst
	if cycles > ideal*3 {
		t.Errorf("sustained stream took %d cycles, expected within 3x of the bus-limited ideal %d", cycles, ideal)
	}
	bw := float64(c.Stats().BytesMoved) / float64(cycles)
	t.Logf("sustained bandwidth: %.1f bytes/cycle over %d cycles", bw, cycles)
}

func TestAvgQueueingDelayGrowsWithLoad(t *testing.T) {
	delayAt := func(burstSize int) float64 {
		c := testController()
		rng := rand.New(rand.NewSource(1))
		issued := 0
		for cyc := 0; cyc < 20000; cyc++ {
			if cyc%100 == 0 {
				for i := 0; i < burstSize && c.CanAccept(); i++ {
					c.Enqueue(Request{ID: uint64(issued), Bank: rng.Intn(16), Row: uint64(rng.Intn(64))})
					issued++
				}
			}
			c.Tick()
		}
		return c.Stats().AvgQueueingDelay()
	}
	light := delayAt(1)
	heavy := delayAt(12)
	if heavy <= light {
		t.Errorf("queueing delay should grow with load: light=%.1f heavy=%.1f", light, heavy)
	}
}

func TestDrainAndStatsConsistency(t *testing.T) {
	c := testController()
	rng := rand.New(rand.NewSource(3))
	total := 0
	for i := 0; i < 100; i++ {
		if c.CanAccept() {
			write := rng.Intn(4) == 0
			c.Enqueue(Request{ID: uint64(i), Bank: rng.Intn(16), Row: uint64(rng.Intn(8)), Write: write})
			total++
		}
		c.Tick()
	}
	for cyc := 0; cyc < 20000 && !c.Drain(); cyc++ {
		c.Tick()
	}
	if !c.Drain() {
		t.Fatal("controller failed to drain")
	}
	st := c.Stats()
	if st.Completed != uint64(total) {
		t.Errorf("Completed = %d, want %d", st.Completed, total)
	}
	if st.Reads+st.Writes != st.Requests {
		t.Errorf("reads(%d)+writes(%d) != requests(%d)", st.Reads, st.Writes, st.Requests)
	}
	if st.RowHits+st.RowMisses+st.RowConflicts != st.Requests {
		t.Errorf("row outcome sum %d != requests %d",
			st.RowHits+st.RowMisses+st.RowConflicts, st.Requests)
	}
	if st.BytesMoved != uint64(total)*128 {
		t.Errorf("BytesMoved = %d, want %d", st.BytesMoved, total*128)
	}
}

func TestZeroStats(t *testing.T) {
	var s Stats
	if s.AvgQueueingDelay() != 0 || s.RowHitRate() != 0 {
		t.Error("zero stats should report zero rates")
	}
}
