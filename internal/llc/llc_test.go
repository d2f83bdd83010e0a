package llc

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
)

func newTestSlice(t *testing.T) *Slice {
	t.Helper()
	cfg := config.Baseline().Normalize()
	return NewSlice(0, 0, 0, cfg)
}

// runSlice ticks the slice, feeding DRAM fills back after a fixed latency,
// and returns all replies generated within the cycle limit.
func runSlice(t *testing.T, s *Slice, limit int) []mem.Reply {
	t.Helper()
	type fill struct {
		addr    uint64
		readyAt uint64
	}
	var fills []fill
	var replies []mem.Reply
	const dramLatency = 100
	for cyc := uint64(1); cyc <= uint64(limit); cyc++ {
		s.Tick(cyc)
		for {
			d, ok := s.PopDRAMRequest()
			if !ok {
				break
			}
			if d.Fill {
				fills = append(fills, fill{addr: d.Addr, readyAt: cyc + dramLatency})
			}
		}
		keep := fills[:0]
		for _, f := range fills {
			if cyc >= f.readyAt {
				s.DRAMComplete(f.addr)
			} else {
				keep = append(keep, f)
			}
		}
		fills = keep
		for {
			r, ok := s.PopReply(cyc)
			if !ok {
				break
			}
			replies = append(replies, r)
		}
		if !s.Pending() && len(fills) == 0 {
			break
		}
	}
	return replies
}

func req(id uint64, addr uint64, sm, cluster int) *mem.Request {
	return &mem.Request{ID: id, Addr: addr, SM: sm, Cluster: cluster}
}

func TestSliceIdentity(t *testing.T) {
	cfg := config.Baseline().Normalize()
	s := NewSlice(42, 5, 2, cfg)
	if s.ID() != 42 || s.MC() != 5 || s.Local() != 2 {
		t.Errorf("identity = %d/%d/%d, want 42/5/2", s.ID(), s.MC(), s.Local())
	}
}

func TestReadMissThenHit(t *testing.T) {
	s := newTestSlice(t)
	s.EnqueueRequest(req(1, 0x1000, 3, 0))
	replies := runSlice(t, s, 10000)
	if len(replies) != 1 || replies[0].ReqID != 1 || replies[0].HitLLC {
		t.Fatalf("first access: replies = %+v, want one DRAM-filled reply", replies)
	}
	// Second access to the same line: LLC hit.
	s.EnqueueRequest(req(2, 0x1000, 4, 1))
	replies = runSlice(t, s, 10000)
	if len(replies) != 1 || !replies[0].HitLLC {
		t.Fatalf("second access: replies = %+v, want one LLC hit", replies)
	}
	st := s.Stats()
	if st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Fills != 1 {
		t.Errorf("fills = %d, want 1", st.Fills)
	}
}

func TestHitLatency(t *testing.T) {
	cfg := config.Baseline().Normalize()
	s := NewSlice(0, 0, 0, cfg)
	// Warm the line.
	s.EnqueueRequest(req(1, 0x2000, 0, 0))
	runSlice(t, s, 10000)
	// A hit's reply must not be available before LLCLatency cycles elapse.
	s.EnqueueRequest(req(2, 0x2000, 0, 0))
	s.Tick(1)
	if _, ok := s.PopReply(1); ok {
		t.Fatal("reply available immediately; should wait for LLC access latency")
	}
	if _, ok := s.PopReply(uint64(cfg.LLCLatency)); ok {
		t.Fatal("reply available before the access latency elapsed")
	}
	if _, ok := s.PopReply(uint64(cfg.LLCLatency) + 1); !ok {
		t.Fatal("reply should be available after the access latency")
	}
}

func TestMSHRMerging(t *testing.T) {
	s := newTestSlice(t)
	// Three reads to the same line before any fill returns: one DRAM
	// request, three replies.
	s.EnqueueRequest(req(1, 0x3000, 0, 0))
	s.EnqueueRequest(req(2, 0x3000, 1, 0))
	s.EnqueueRequest(req(3, 0x3040, 2, 0)) // same 128B line, different offset
	replies := runSlice(t, s, 10000)
	if len(replies) != 3 {
		t.Fatalf("replies = %d, want 3", len(replies))
	}
	st := s.Stats()
	if st.Fills != 1 {
		t.Errorf("fills = %d, want 1 (merged)", st.Fills)
	}
	if st.Misses != 1 || st.MergedMisses != 2 {
		t.Errorf("misses = %d merged = %d, want 1 primary miss and 2 merged", st.Misses, st.MergedMisses)
	}
}

func TestMSHRStall(t *testing.T) {
	cfg := config.Baseline().Normalize()
	cfg.LLCMSHRsPerSlice = 2
	s := NewSlice(0, 0, 0, cfg)
	// Three distinct lines; with 2 MSHRs the third must stall until a fill.
	s.EnqueueRequest(req(1, 0x1000, 0, 0))
	s.EnqueueRequest(req(2, 0x2000, 0, 0))
	s.EnqueueRequest(req(3, 0x3000, 0, 0))
	for cyc := uint64(1); cyc <= 10; cyc++ {
		s.Tick(cyc)
		for {
			if _, ok := s.PopDRAMRequest(); !ok {
				break
			}
		}
	}
	if s.Stats().MSHRStalls == 0 {
		t.Error("expected MSHR stalls with 2 MSHRs and 3 outstanding lines")
	}
	if s.QueueLen() != 1 {
		t.Errorf("queue length = %d, want 1 (third request stalled)", s.QueueLen())
	}
	// Completing one fill unblocks the stalled request.
	s.DRAMComplete(0x1000)
	s.Tick(11)
	if s.QueueLen() != 0 {
		t.Errorf("queue length = %d, want 0 after MSHR freed", s.QueueLen())
	}
}

// stallOnFullMSHRs returns a slice with 2 MSHRs, both holding misses (to
// 0x1000 and 0x2000), and a read of 0x3000 stalled at its queue head, plus
// the last cycle ticked.
func stallOnFullMSHRs(tb testing.TB) (*Slice, uint64) {
	tb.Helper()
	cfg := config.Baseline().Normalize()
	cfg.LLCMSHRsPerSlice = 2
	s := NewSlice(0, 0, 0, cfg)
	s.EnqueueRequest(req(1, 0x1000, 0, 0))
	s.EnqueueRequest(req(2, 0x2000, 0, 0))
	s.EnqueueRequest(req(3, 0x3000, 0, 0))
	var cyc uint64
	for cyc < 3 {
		cyc++
		s.Tick(cyc)
		for {
			if _, ok := s.PopDRAMRequest(); !ok {
				break
			}
		}
	}
	if s.QueueLen() != 1 || s.Stats().MSHRStalls != 1 {
		tb.Fatalf("queue %d, MSHR stalls %d; want the third read stalled once", s.QueueLen(), s.Stats().MSHRStalls)
	}
	return s, cyc
}

// TestMSHRStallCountExact checks that a memoized head stall counts exactly
// one MSHR stall per Tick, and that the head issues on the first Tick after
// DRAMComplete frees an entry.
func TestMSHRStallCountExact(t *testing.T) {
	s, cyc := stallOnFullMSHRs(t)
	for i := 0; i < 50; i++ {
		cyc++
		before := s.Stats().MSHRStalls
		s.Tick(cyc)
		if got := s.Stats().MSHRStalls - before; got != 1 || s.QueueLen() != 1 {
			t.Fatalf("cycle %d: %d MSHR stalls, queue %d; want 1 stall and the head still queued", cyc, got, s.QueueLen())
		}
	}
	s.EnqueueRequest(req(4, 0x4000, 0, 0)) // arrivals behind the head change nothing
	cyc++
	s.Tick(cyc)
	if s.QueueLen() != 2 {
		t.Fatalf("queue length = %d, want 2 (head still stalled)", s.QueueLen())
	}

	stalls := s.Stats().MSHRStalls
	s.DRAMComplete(0x1000)
	cyc++
	s.Tick(cyc)
	if s.QueueLen() != 1 || s.Stats().MSHRStalls != stalls {
		t.Fatalf("after DRAMComplete: queue %d, %d new stalls; want the head issued without a stall",
			s.QueueLen(), s.Stats().MSHRStalls-stalls)
	}
	if d, ok := s.PopDRAMRequest(); !ok || d.Addr != 0x3000 || !d.Fill {
		t.Errorf("issued head sent %+v (ok=%v), want a fill of 0x3000", d, ok)
	}
}

// TestFlushAndRestoreClearStallMemo checks that Flush and RestoreState drop
// the memoized head stall; the memo is never part of a snapshot.
func TestFlushAndRestoreClearStallMemo(t *testing.T) {
	s, _ := stallOnFullMSHRs(t)
	if !s.stalled {
		t.Fatal("no stall memo after a head stall")
	}
	s.Flush()
	if s.stalled {
		t.Error("Flush kept the stall memo")
	}

	s, _ = stallOnFullMSHRs(t)
	if err := s.RestoreState(s.SaveState()); err != nil {
		t.Fatal(err)
	}
	if s.stalled {
		t.Error("RestoreState kept the stall memo")
	}
}

func TestWriteBackMode(t *testing.T) {
	s := newTestSlice(t)
	if s.WritePolicy() != cache.WriteBack {
		t.Fatal("default policy should be write-back")
	}
	w := req(1, 0x4000, 0, 0)
	w.Write = true
	s.EnqueueRequest(w)
	s.Tick(1)
	if _, ok := s.PopDRAMRequest(); ok {
		t.Error("write-back store must not immediately write to DRAM")
	}
	if s.Tags().DirtyLines() != 1 {
		t.Errorf("dirty lines = %d, want 1", s.Tags().DirtyLines())
	}
	// Stores produce no replies.
	if _, ok := s.PopReply(1000); ok {
		t.Error("stores must not generate replies")
	}
}

func TestWriteThroughMode(t *testing.T) {
	cfg := config.Baseline().Normalize()
	s := NewSlice(0, 0, 0, cfg)
	s.SetWritePolicy(cache.WriteThrough)
	if s.WritePolicy() != cache.WriteThrough {
		t.Fatal("policy not applied")
	}
	w := req(1, 0x4000, 0, 0)
	w.Write = true
	s.EnqueueRequest(w)
	s.Tick(1)
	d, ok := s.PopDRAMRequest()
	if !ok || !d.Write {
		t.Fatalf("write-through store must forward to DRAM, got %+v ok=%v", d, ok)
	}
	if s.Tags().DirtyLines() != 0 {
		t.Error("write-through slice must not hold dirty lines")
	}
}

func TestSetWritePolicyRequiresFlush(t *testing.T) {
	s := newTestSlice(t)
	s.EnqueueRequest(req(1, 0x1000, 0, 0))
	runSlice(t, s, 10000)
	defer func() {
		if recover() == nil {
			t.Error("expected panic when changing policy with resident lines")
		}
	}()
	s.SetWritePolicy(cache.WriteThrough)
}

func TestFlushReturnsDirtyCount(t *testing.T) {
	s := newTestSlice(t)
	w := req(1, 0x5000, 0, 0)
	w.Write = true
	s.EnqueueRequest(w)
	s.EnqueueRequest(req(2, 0x6000, 0, 0))
	runSlice(t, s, 10000)
	valid, dirty := s.Flush()
	if valid != 2 || dirty != 1 {
		t.Errorf("Flush = %d,%d want 2,1", valid, dirty)
	}
	// After a flush the policy can change.
	s.SetWritePolicy(cache.WriteThrough)
}

func TestDirtyEvictionEmitsWriteback(t *testing.T) {
	cfg := config.Baseline().Normalize()
	// Tiny slice: 2 ways, 1 set -> force evictions quickly.
	cfg.LLCSliceBytes = 2 * 128
	cfg.LLCWays = 2
	s := NewSlice(0, 0, 0, cfg)
	for i := 0; i < 3; i++ {
		w := req(uint64(i), uint64(i)*128, 0, 0)
		w.Write = true
		s.EnqueueRequest(w)
	}
	var dramWrites int
	for cyc := uint64(1); cyc <= 20; cyc++ {
		s.Tick(cyc)
		for {
			d, ok := s.PopDRAMRequest()
			if !ok {
				break
			}
			if d.Write {
				dramWrites++
			}
		}
	}
	if dramWrites != 1 {
		t.Errorf("DRAM writes = %d, want 1 (dirty eviction of the first line)", dramWrites)
	}
}

func TestUnpopReplyAndDRAM(t *testing.T) {
	s := newTestSlice(t)
	s.EnqueueRequest(req(1, 0x1000, 0, 0))
	s.Tick(1)
	d, ok := s.PopDRAMRequest()
	if !ok {
		t.Fatal("expected a DRAM request")
	}
	s.UnpopDRAMRequest(d)
	d2, ok := s.PopDRAMRequest()
	if !ok || d2 != d {
		t.Error("UnpopDRAMRequest should restore the request at the head")
	}
	s.DRAMComplete(s.Tags().LineAddr(0x1000))
	r, ok := s.PopReply(100)
	if !ok {
		t.Fatal("expected a reply")
	}
	before := s.Stats().RepliesSent
	s.UnpopReply(r)
	if s.Stats().RepliesSent != before-1 {
		t.Error("UnpopReply should undo the RepliesSent increment")
	}
	r2, ok := s.PopReply(100)
	if !ok || r2.ReqID != r.ReqID {
		t.Error("UnpopReply should restore the reply at the head")
	}
}

func TestEnqueueNilPanics(t *testing.T) {
	s := newTestSlice(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.EnqueueRequest(nil)
}

func TestUnexpectedFillPanics(t *testing.T) {
	s := newTestSlice(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.DRAMComplete(0x1000)
}

func TestQueueOccupancyStats(t *testing.T) {
	s := newTestSlice(t)
	for i := 0; i < 10; i++ {
		s.EnqueueRequest(req(uint64(i), uint64(i)*0x1000, 0, 0))
	}
	if s.Stats().PeakQueue != 10 {
		t.Errorf("PeakQueue = %d, want 10", s.Stats().PeakQueue)
	}
	s.Tick(1)
	if s.Stats().QueueCycles != 10 {
		t.Errorf("QueueCycles = %d, want 10", s.Stats().QueueCycles)
	}
}

func TestStatsAddAndRates(t *testing.T) {
	a := Stats{Accesses: 10, Hits: 4, Misses: 6, PeakQueue: 3}
	b := Stats{Accesses: 10, Hits: 6, Misses: 4, PeakQueue: 7}
	a.Add(b)
	if a.Accesses != 20 || a.Hits != 10 || a.PeakQueue != 7 {
		t.Errorf("Add = %+v", a)
	}
	if a.MissRate() != 0.5 || a.HitRate() != 0.5 {
		t.Errorf("rates = %v/%v", a.MissRate(), a.HitRate())
	}
	var zero Stats
	if zero.MissRate() != 0 || zero.HitRate() != 0 {
		t.Error("zero stats rates should be 0")
	}
}

// BenchmarkSliceTickMSHRFull measures one slice cycle whose head request is
// stalled on a full MSHR table.
func BenchmarkSliceTickMSHRFull(b *testing.B) {
	s, cyc := stallOnFullMSHRs(b)
	before := s.Stats().MSHRStalls
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cyc++
		s.Tick(cyc)
	}
	b.StopTimer()
	if got := s.Stats().MSHRStalls - before; got != uint64(b.N) {
		b.Fatalf("counted %d MSHR stalls, want %d", got, b.N)
	}
}
