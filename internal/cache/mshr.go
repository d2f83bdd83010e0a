package cache

// MSHRTable models a set of miss-status holding registers. Multiple misses
// to the same cache line merge into one outstanding entry; the table is
// full when the number of distinct outstanding lines reaches its capacity,
// at which point the cache must stall new misses.
//
// The table is generic over the per-miss payload P it remembers for each
// merged requester: the L1s track request IDs (uint64), the LLC slices track
// the merged *mem.Request values they must answer when the fill returns, so
// one structure serves both without a shadow table.
//
// It is backed by packed arrays rather than a map: MSHR capacities are
// small (tens of entries), so a linear scan over a contiguous line-address
// array is both faster than hashing and allocation-free, which matters on
// the simulator's per-cycle hot path. Per-entry payload slices are recycled
// through an internal free list, so a warmed-up table performs zero
// allocations.
type MSHRTable[P any] struct {
	capacity     int
	maxMergedPer int

	// Packed parallel arrays of the occupied entries. Entry order is
	// insertion-order-with-swap-remove and carries no semantic meaning; all
	// lookups are by line address.
	lines    []uint64
	payloads [][]P

	// freePayloads recycles the per-entry payload backing slices.
	freePayloads [][]P

	// stamp counts structural changes (entry insert/remove/reset); a Probe
	// taken before such a change cannot be Commit-ed after it.
	stamp uint64

	peakOccupancy int
	allocations   uint64
	merges        uint64
	fullStalls    uint64
}

// NewMSHRTable creates a table with the given number of entries. Each entry
// can merge up to maxMergedPer requests (0 means unlimited merging).
func NewMSHRTable[P any](capacity, maxMergedPer int) *MSHRTable[P] {
	if capacity <= 0 {
		panic("cache: MSHR capacity must be positive")
	}
	return &MSHRTable[P]{
		capacity:     capacity,
		maxMergedPer: maxMergedPer,
		lines:        make([]uint64, 0, capacity),
		payloads:     make([][]P, 0, capacity),
		freePayloads: make([][]P, 0, capacity),
	}
}

// find returns the packed index of lineAddr, or -1.
func (m *MSHRTable[P]) find(lineAddr uint64) int {
	for i, l := range m.lines {
		if l == lineAddr {
			return i
		}
	}
	return -1
}

// ProbeKind classifies the outcome of a single MSHR lookup.
type ProbeKind uint8

const (
	// ProbeNew: the line has no outstanding miss and a free entry exists; a
	// miss can allocate a new (primary) entry.
	ProbeNew ProbeKind = iota
	// ProbeMerge: the line has an outstanding miss with merge room; a miss
	// merges into it as a secondary.
	ProbeMerge
	// ProbeMergeLimit: the line has an outstanding miss whose merge limit is
	// reached; the access must stall.
	ProbeMergeLimit
	// ProbeTableFull: the line has no outstanding miss and the table is
	// full; a miss would stall (a cache hit can still proceed).
	ProbeTableFull
)

// Probe is the cached result of one MSHRTable lookup. It answers the
// questions a memory pipeline asks about a line (Outstanding? CanAccept?)
// and, if the access turns out to be a miss, finishes the allocation via
// Commit — all from the single scan performed by MSHRTable.Probe. A Probe is
// invalidated by any structural table change (Commit of a new entry,
// Complete, Reset); committing a stale Probe panics.
type Probe struct {
	lineAddr uint64
	idx      int
	kind     ProbeKind
	stamp    uint64
}

// Kind returns the lookup's classification.
func (p Probe) Kind() ProbeKind { return p.kind }

// Outstanding reports whether the probed line already has an entry.
func (p Probe) Outstanding() bool { return p.kind == ProbeMerge || p.kind == ProbeMergeLimit }

// CanAccept reports whether a miss on the probed line can be accepted, by
// merging into its entry or by allocating a new one.
func (p Probe) CanAccept() bool { return p.kind == ProbeNew || p.kind == ProbeMerge }

// Probe is the combined probe-and-allocate entry point: it performs the one
// linear scan for lineAddr and returns a Probe that answers the
// Outstanding/CanAccept questions and can be handed to Commit to finish a
// miss allocation.
//
// A ProbeMergeLimit outcome is counted as a full stall here (such an access
// always stalls). A ProbeTableFull outcome is not counted: the access may
// still hit in the cache and never need the entry, so the caller counts a
// table-full stall in its own statistics.
func (m *MSHRTable[P]) Probe(lineAddr uint64) Probe {
	p := Probe{lineAddr: lineAddr, idx: -1, stamp: m.stamp}
	if i := m.find(lineAddr); i >= 0 {
		p.idx = i
		if m.maxMergedPer != 0 && len(m.payloads[i]) >= m.maxMergedPer {
			p.kind = ProbeMergeLimit
			m.fullStalls++
		} else {
			p.kind = ProbeMerge
		}
		return p
	}
	if len(m.lines) >= m.capacity {
		p.kind = ProbeTableFull
	} else {
		p.kind = ProbeNew
	}
	return p
}

// Commit finishes the miss allocation a Probe approved, without re-scanning
// the table: a ProbeMerge appends payload to the existing entry and returns
// primary=false; a ProbeNew inserts a fresh entry and returns primary=true
// (the caller must send the fill request to the next level). Committing a
// stalled or stale Probe is a caller bug and panics.
func (m *MSHRTable[P]) Commit(p Probe, payload P) (primary bool) {
	if p.stamp != m.stamp {
		panic("cache: MSHR Commit with a stale Probe (table changed since the lookup)")
	}
	switch p.kind {
	case ProbeMerge:
		if m.lines[p.idx] != p.lineAddr {
			panic("cache: MSHR Probe index no longer matches its line")
		}
		m.payloads[p.idx] = append(m.payloads[p.idx], payload)
		m.merges++
		return false
	case ProbeNew:
		m.insert(p.lineAddr, payload)
		return true
	default:
		panic("cache: MSHR Commit on a stalled Probe")
	}
}

// insert adds a new entry for lineAddr, reusing a recycled payload slice.
func (m *MSHRTable[P]) insert(lineAddr uint64, payload P) {
	var ps []P
	if n := len(m.freePayloads); n > 0 {
		ps = m.freePayloads[n-1][:0]
		m.freePayloads[n-1] = nil
		m.freePayloads = m.freePayloads[:n-1]
	} else {
		ps = make([]P, 0, 8)
	}
	m.lines = append(m.lines, lineAddr)
	m.payloads = append(m.payloads, append(ps, payload))
	m.stamp++
	m.allocations++
	if len(m.lines) > m.peakOccupancy {
		m.peakOccupancy = len(m.lines)
	}
}

// Complete removes the entry for lineAddr and returns the merged payloads
// waiting on it (in arrival order). It returns nil if no entry exists.
//
// The returned slice's backing array is recycled by the table: it is valid
// only until the next Commit of a new entry.
func (m *MSHRTable[P]) Complete(lineAddr uint64) []P {
	i := m.find(lineAddr)
	if i < 0 {
		return nil
	}
	reqs := m.payloads[i]
	last := len(m.lines) - 1
	m.lines[i] = m.lines[last]
	m.payloads[i] = m.payloads[last]
	m.lines = m.lines[:last]
	m.payloads[last] = nil
	m.payloads = m.payloads[:last]
	m.freePayloads = append(m.freePayloads, reqs)
	m.stamp++
	return reqs
}

// Stamp returns the structural version: it changes whenever an entry is
// inserted or removed, or the table is reset.
func (m *MSHRTable[P]) Stamp() uint64 { return m.stamp }

// Occupancy returns the number of distinct outstanding lines.
func (m *MSHRTable[P]) Occupancy() int { return len(m.lines) }

// Capacity returns the number of entries the table can hold.
func (m *MSHRTable[P]) Capacity() int { return m.capacity }

// PeakOccupancy returns the maximum occupancy observed.
func (m *MSHRTable[P]) PeakOccupancy() int { return m.peakOccupancy }

// Allocations returns the number of primary-miss allocations.
func (m *MSHRTable[P]) Allocations() uint64 { return m.allocations }

// Merges returns the number of secondary misses merged into existing entries.
func (m *MSHRTable[P]) Merges() uint64 { return m.merges }

// FullStalls returns how many probes found their line's merge limit reached.
func (m *MSHRTable[P]) FullStalls() uint64 { return m.fullStalls }

// Reset clears all entries and statistics (recycled backing storage is kept).
func (m *MSHRTable[P]) Reset() {
	for i := range m.payloads {
		m.freePayloads = append(m.freePayloads, m.payloads[i][:0])
		m.payloads[i] = nil
	}
	m.lines = m.lines[:0]
	m.payloads = m.payloads[:0]
	m.stamp++
	m.peakOccupancy = 0
	m.allocations, m.merges, m.fullStalls = 0, 0, 0
}
