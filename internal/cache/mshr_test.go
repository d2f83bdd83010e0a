package cache

import "testing"

// allocate commits a miss for payload on lineAddr, failing the test if the
// table cannot accept it.
func allocate(t *testing.T, m *MSHRTable[uint64], lineAddr, payload uint64) (primary bool) {
	t.Helper()
	p := m.Probe(lineAddr)
	if !p.CanAccept() {
		t.Fatalf("probe of %#x = %v, want an accepting outcome", lineAddr, p.Kind())
	}
	return m.Commit(p, payload)
}

func TestMSHRBasicAllocateComplete(t *testing.T) {
	m := NewMSHRTable[uint64](4, 0)
	if !allocate(t, m, 0x100, 1) {
		t.Fatal("first allocation must be primary")
	}
	if allocate(t, m, 0x100, 2) {
		t.Fatal("second miss on the line must merge, not be primary")
	}
	if m.Occupancy() != 1 {
		t.Errorf("occupancy = %d, want 1", m.Occupancy())
	}
	if !m.Probe(0x100).Outstanding() || m.Probe(0x200).Outstanding() {
		t.Error("Outstanding mismatch")
	}
	reqs := m.Complete(0x100)
	if len(reqs) != 2 || reqs[0] != 1 || reqs[1] != 2 {
		t.Errorf("Complete returned %v, want [1 2]", reqs)
	}
	if m.Complete(0x100) != nil {
		t.Error("double complete should return nil")
	}
	if m.Allocations() != 1 || m.Merges() != 1 {
		t.Errorf("allocations=%d merges=%d, want 1,1", m.Allocations(), m.Merges())
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHRTable[uint64](2, 0)
	allocate(t, m, 0x100, 1)
	allocate(t, m, 0x200, 2)
	if p := m.Probe(0x300); p.Kind() != ProbeTableFull || p.CanAccept() {
		t.Errorf("probe of a new line = %v, want ProbeTableFull", p.Kind())
	}
	if !m.Probe(0x100).CanAccept() {
		t.Error("merging into existing entry should still be possible")
	}
	if m.FullStalls() != 0 {
		t.Errorf("FullStalls = %d, want 0 (a full table is the caller's stall to count)", m.FullStalls())
	}
	m.Complete(0x100)
	if !m.Probe(0x300).CanAccept() {
		t.Error("space should be available after completion")
	}
}

func TestMSHRMergeLimit(t *testing.T) {
	m := NewMSHRTable[uint64](4, 2)
	allocate(t, m, 0x100, 1)
	allocate(t, m, 0x100, 2)
	p := m.Probe(0x100)
	if p.Kind() != ProbeMergeLimit || p.CanAccept() {
		t.Errorf("merge limit reached: probe = %v, want ProbeMergeLimit", p.Kind())
	}
	if m.Merges() != 1 {
		t.Errorf("merges = %d, want 1", m.Merges())
	}
}

func TestMSHRPeakAndReset(t *testing.T) {
	m := NewMSHRTable[uint64](8, 0)
	for i := 0; i < 5; i++ {
		allocate(t, m, uint64(i)*128, uint64(i))
	}
	if m.PeakOccupancy() != 5 {
		t.Errorf("peak = %d, want 5", m.PeakOccupancy())
	}
	if m.Capacity() != 8 {
		t.Errorf("capacity = %d, want 8", m.Capacity())
	}
	m.Reset()
	if m.Occupancy() != 0 || m.PeakOccupancy() != 0 || m.Allocations() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestMSHRStampTracksStructuralChanges(t *testing.T) {
	m := NewMSHRTable[uint64](4, 0)
	s0 := m.Stamp()
	allocate(t, m, 0x100, 1)
	s1 := m.Stamp()
	if s1 == s0 {
		t.Fatal("inserting an entry must change the stamp")
	}
	allocate(t, m, 0x100, 2) // merge: occupancy unchanged
	m.Probe(0x200)
	if m.Stamp() != s1 {
		t.Error("a merge or a probe must not change the stamp")
	}
	m.Complete(0x100)
	s2 := m.Stamp()
	if s2 == s1 {
		t.Error("completing an entry must change the stamp")
	}
	m.Reset()
	if m.Stamp() == s2 {
		t.Error("Reset must change the stamp")
	}
}

func TestMSHRProbeCommit(t *testing.T) {
	m := NewMSHRTable[uint64](2, 0)

	// Empty table: a probe offers a new allocation.
	p := m.Probe(0x100)
	if p.Kind() != ProbeNew || p.Outstanding() || !p.CanAccept() {
		t.Fatalf("probe of empty table = %v (outstanding=%v canAccept=%v), want ProbeNew",
			p.Kind(), p.Outstanding(), p.CanAccept())
	}
	if primary := m.Commit(p, 1); !primary {
		t.Fatal("commit of ProbeNew must be primary")
	}

	// Same line again: merge.
	p = m.Probe(0x100)
	if p.Kind() != ProbeMerge || !p.Outstanding() || !p.CanAccept() {
		t.Fatalf("probe of outstanding line = %v, want ProbeMerge", p.Kind())
	}
	if primary := m.Commit(p, 2); primary {
		t.Fatal("commit of ProbeMerge must not be primary")
	}
	if m.Allocations() != 1 || m.Merges() != 1 {
		t.Errorf("allocations=%d merges=%d, want 1,1", m.Allocations(), m.Merges())
	}

	// Fill the table: probing a third line reports full, without counting a
	// stall (the access may still hit in the cache).
	m.Commit(m.Probe(0x200), 3)
	p = m.Probe(0x300)
	if p.Kind() != ProbeTableFull || p.Outstanding() || p.CanAccept() {
		t.Fatalf("probe of full table = %v, want ProbeTableFull", p.Kind())
	}
	if m.FullStalls() != 0 {
		t.Errorf("ProbeTableFull counted %d full stalls, want 0", m.FullStalls())
	}

	// Completion returns the merged payloads in arrival order.
	if reqs := m.Complete(0x100); len(reqs) != 2 || reqs[0] != 1 || reqs[1] != 2 {
		t.Errorf("Complete returned %v, want [1 2]", reqs)
	}
}

func TestMSHRProbeMergeLimitCountsStall(t *testing.T) {
	m := NewMSHRTable[uint64](4, 1)
	m.Commit(m.Probe(0x100), 1)
	p := m.Probe(0x100)
	if p.Kind() != ProbeMergeLimit || !p.Outstanding() || p.CanAccept() {
		t.Fatalf("probe of merge-limited line = %v, want ProbeMergeLimit", p.Kind())
	}
	// A merge-limited access always stalls, so the probe itself counts it.
	if m.FullStalls() != 1 {
		t.Errorf("FullStalls = %d, want 1", m.FullStalls())
	}
}

func TestMSHRCommitStaleProbePanics(t *testing.T) {
	m := NewMSHRTable[uint64](4, 0)
	m.Commit(m.Probe(0x100), 1)
	p := m.Probe(0x100) // ProbeMerge
	m.Complete(0x100)   // structural change invalidates p
	defer func() {
		if recover() == nil {
			t.Error("commit of a stale probe must panic")
		}
	}()
	m.Commit(p, 2)
}

func TestMSHRCommitStalledProbePanics(t *testing.T) {
	m := NewMSHRTable[uint64](1, 0)
	m.Commit(m.Probe(0x100), 1)
	p := m.Probe(0x200) // ProbeTableFull
	defer func() {
		if recover() == nil {
			t.Error("commit of a stalled probe must panic")
		}
	}()
	m.Commit(p, 2)
}

func TestMSHRPanicsOnInvalidCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMSHRTable[uint64](0, 0)
}
