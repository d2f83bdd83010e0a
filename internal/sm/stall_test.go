package sm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/workload"
)

// storeProgram issues a store with a unique address per call.
type storeProgram struct{ next uint64 }

func (p *storeProgram) NextOp(sm, warp int) workload.Op {
	p.next += 128
	return workload.Op{IsMem: true, Write: true, Addr: p.next}
}
func (p *storeProgram) NextKernel() {}
func (p *storeProgram) Kernel() int { return 0 }

// tickDelta ticks s once and returns the instructions it issued and the
// structural stalls it counted in that cycle.
func tickDelta(s *SM, cyc uint64, prog workload.Program) (issued, stalls uint64) {
	before := s.Stats()
	s.Tick(cyc, prog)
	after := s.Stats()
	return after.Instructions - before.Instructions, after.StallStructural - before.StallStructural
}

// fillMSHRs issues unique-line loads, draining the request queue every
// cycle, until every L1 MSHR is taken and each scheduler sits on a warp
// stalled for an MSHR. It returns the drained requests and the last cycle.
func fillMSHRs(tb testing.TB, s *SM, prog workload.Program) ([]*mem.Request, uint64) {
	tb.Helper()
	var reqs []*mem.Request
	var cyc uint64
	for s.OutstandingLoads() < s.mshrs.Capacity() {
		cyc++
		if cyc > 1000 {
			tb.Fatalf("MSHRs not full after %d cycles (%d outstanding)", cyc, s.OutstandingLoads())
		}
		s.Tick(cyc, prog)
		for {
			r, ok := s.PopRequest()
			if !ok {
				break
			}
			reqs = append(reqs, r)
		}
	}
	cyc++
	s.Tick(cyc, prog) // every scheduler now stalls
	return reqs, cyc
}

// TestStallCountExactWhileMSHRsFull checks that a memoized retry counts
// exactly one structural stall per stalled scheduler per cycle, and that the
// stalled warp issues on the first Tick after CompleteLoad frees an MSHR.
func TestStallCountExactWhileMSHRsFull(t *testing.T) {
	cfg := testCfg()
	s := New(0, 0, cfg)
	prog := &loadProgram{}
	reqs, cyc := fillMSHRs(t, s, prog)
	nSched := uint64(cfg.SchedulersPerSM)

	for i := 0; i < 50; i++ {
		cyc++
		if issued, stalls := tickDelta(s, cyc, prog); issued != 0 || stalls != nSched {
			t.Fatalf("cycle %d: issued %d, stalls %d; want 0 and %d", cyc, issued, stalls, nSched)
		}
	}

	// One free MSHR: the first scheduler's stalled load takes it on the very
	// next Tick, and the second scheduler stalls on the refilled table.
	r := reqs[0]
	s.CompleteLoad(mem.Reply{ReqID: r.ID, Addr: r.Addr, SM: r.SM, Warp: r.Warp, IssuedAt: r.IssuedAt}, cyc)
	cyc++
	if issued, stalls := tickDelta(s, cyc, prog); issued != 1 || stalls != nSched-1 {
		t.Fatalf("after CompleteLoad: issued %d, stalls %d; want 1 and %d", issued, stalls, nSched-1)
	}
}

// TestStallCountExactWhileQueueFull covers loads and stores stalled on a
// full request queue: a pop followed by an unpop leaves them stalled, a pop
// alone lets one stalled warp issue on the next Tick.
func TestStallCountExactWhileQueueFull(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog workload.Program
	}{
		{"load", &loadProgram{}},
		{"store", &storeProgram{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testCfg()
			s := New(0, 0, cfg)
			nSched := uint64(cfg.SchedulersPerSM)
			var cyc uint64
			for s.outQ.Len() < s.outQCap {
				cyc++
				s.Tick(cyc, tc.prog)
			}

			for i := 0; i < 50; i++ {
				cyc++
				if issued, stalls := tickDelta(s, cyc, tc.prog); issued != 0 || stalls != nSched {
					t.Fatalf("cycle %d: issued %d, stalls %d; want 0 and %d", cyc, issued, stalls, nSched)
				}
			}

			r, _ := s.PopRequest()
			s.UnpopRequest(r)
			cyc++
			if issued, stalls := tickDelta(s, cyc, tc.prog); issued != 0 || stalls != nSched {
				t.Fatalf("after pop+unpop: issued %d, stalls %d; want 0 and %d", issued, stalls, nSched)
			}

			s.PopRequest()
			cyc++
			if issued, stalls := tickDelta(s, cyc, tc.prog); issued != 1 || stalls != nSched-1 {
				t.Fatalf("after pop: issued %d, stalls %d; want 1 and %d", issued, stalls, nSched-1)
			}
		})
	}
}

// TestRestoreClearsStallMemo checks that the memo is neither saved nor
// trusted across a restore.
func TestRestoreClearsStallMemo(t *testing.T) {
	s := New(0, 0, testCfg())
	fillMSHRs(t, s, &loadProgram{})
	for sched, m := range s.stalled {
		if !m.valid {
			t.Fatalf("scheduler %d has no stall memo after stalling", sched)
		}
	}
	if err := s.RestoreState(s.SaveState()); err != nil {
		t.Fatal(err)
	}
	for sched, m := range s.stalled {
		if m.valid {
			t.Errorf("scheduler %d kept its stall memo across RestoreState", sched)
		}
	}
}

// BenchmarkSMTickStalled measures one SM cycle in which every scheduler
// retries a warp stalled on a full MSHR table.
func BenchmarkSMTickStalled(b *testing.B) {
	cfg := testCfg()
	s := New(0, 0, cfg)
	prog := &loadProgram{}
	_, cyc := fillMSHRs(b, s, prog)
	before := s.Stats().StallStructural
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cyc++
		s.Tick(cyc, prog)
	}
	b.StopTimer()
	if got, want := s.Stats().StallStructural-before, uint64(b.N*cfg.SchedulersPerSM); got != want {
		b.Fatalf("counted %d structural stalls, want %d", got, want)
	}
}
