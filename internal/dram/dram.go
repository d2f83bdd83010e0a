// Package dram models the GPU's GDDR5 memory controllers.
//
// Each Controller owns a set of banks and an FR-FCFS (first-ready,
// first-come-first-served) scheduler: among queued requests it prefers row
// hits (the open-row policy), breaking ties by arrival order. Bank state
// machines enforce the GDDR5 timing parameters from Table 1 of the paper
// (tRCD, tRP, tRC, tRAS, tCL, tCCD, tWR, tRRD) and a shared data bus limits
// the sustained bandwidth per controller.
//
// The controller is cycle-driven: the owner calls Tick once per core cycle
// and collects completed requests.
package dram

import (
	"fmt"

	"repro/internal/config"
)

// Meta carries caller context through the controller: the originating LLC
// slice, the line address, and whether the read must fill the slice on
// completion. It is a concrete struct rather than an `any` so that enqueueing
// a request does not box an allocation on the per-cycle hot path.
type Meta struct {
	Slice int
	Addr  uint64
	Fill  bool
}

// Request is one cache-line-sized memory transaction presented to a
// controller.
type Request struct {
	ID      uint64
	Bank    int
	Row     uint64
	Write   bool
	Arrival uint64 // cycle the request entered the controller queue
	Meta    Meta
}

// Completion reports a finished request and the cycle its data transfer
// completed.
type Completion struct {
	Req        Request
	FinishedAt uint64
}

// Stats aggregates controller activity.
type Stats struct {
	Requests      uint64
	Reads         uint64
	Writes        uint64
	RowHits       uint64
	RowMisses     uint64 // row closed, needed activate only
	RowConflicts  uint64 // different row open, needed precharge + activate
	BytesMoved    uint64
	BusyCycles    uint64 // cycles with the data bus occupied
	TotalQueueing uint64 // sum over requests of (issue cycle - arrival cycle)
	Completed     uint64
	StallsFull    uint64 // enqueue attempts rejected because the queue was full
}

// AvgQueueingDelay returns the mean cycles a request waited before being
// issued to a bank.
func (s Stats) AvgQueueingDelay() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.TotalQueueing) / float64(s.Completed)
}

// RowHitRate returns the fraction of issued requests that hit an open row.
func (s Stats) RowHitRate() float64 {
	issued := s.RowHits + s.RowMisses + s.RowConflicts
	if issued == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(issued)
}

type bankState struct {
	openRow      int64  // -1 if no row open
	readyAt      uint64 // earliest cycle the bank can accept a column command
	actAllowed   uint64 // earliest cycle a new ACT may issue (tRC from last ACT)
	preAllowed   uint64 // earliest cycle a PRE may issue (tRAS from last ACT)
	lastActivate uint64
}

type queued struct {
	req    Request
	issued bool
	// conflict records that this request forced a precharge of another open
	// row; activated records that it needed a row activation. Together they
	// classify the request as a row hit, row miss or row conflict exactly
	// once, when its column command issues.
	conflict  bool
	activated bool
	// doneAt is the cycle the data transfer finishes once issued.
	doneAt uint64
}

// Controller is one GDDR5 memory controller (channel).
type Controller struct {
	id           int
	timing       config.GDDRTiming
	banks        []bankState
	queue        []queued // value-typed: one allocation for the whole queue
	queueCap     int
	burstCycles  int // cycles of data-bus occupancy per request
	lineBytes    int
	busFreeAt    uint64
	lastActCycle uint64 // for tRRD across banks
	stats        Stats
	cycle        uint64
	done         []Completion // reused buffer returned by Tick
}

// NewController builds a memory controller from the GPU configuration.
func NewController(id int, cfg config.Config) *Controller {
	cfg = cfg.Normalize()
	burst := (cfg.LLCLineBytes + cfg.BusBytesPerCycle - 1) / cfg.BusBytesPerCycle
	if burst < 1 {
		burst = 1
	}
	banks := make([]bankState, cfg.BanksPerMC)
	for i := range banks {
		banks[i].openRow = -1
	}
	return &Controller{
		id:          id,
		timing:      cfg.Timing,
		banks:       banks,
		queue:       make([]queued, 0, cfg.MCQueueDepth),
		queueCap:    cfg.MCQueueDepth,
		burstCycles: burst,
		lineBytes:   cfg.LLCLineBytes,
	}
}

// ID returns the controller index.
func (c *Controller) ID() int { return c.id }

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// ResetStats clears the statistics counters (in-flight state is preserved).
func (c *Controller) ResetStats() { c.stats = Stats{} }

// QueueLen returns the number of requests currently queued or in flight.
func (c *Controller) QueueLen() int { return len(c.queue) }

// CanAccept reports whether Enqueue would succeed this cycle.
func (c *Controller) CanAccept() bool { return len(c.queue) < c.queueCap }

// Refuse counts one request turned away by a full queue (StallsFull), for a
// caller that found CanAccept false and skipped Enqueue. A refused Enqueue
// counts the same way.
func (c *Controller) Refuse() { c.stats.StallsFull++ }

// Pending reports whether any request is queued or in flight.
func (c *Controller) Pending() bool { return len(c.queue) > 0 }

// Enqueue adds a request to the controller queue. It returns false if the
// queue is full, in which case the caller must retry later.
func (c *Controller) Enqueue(req Request) bool {
	if !c.CanAccept() {
		c.Refuse()
		return false
	}
	if req.Bank < 0 || req.Bank >= len(c.banks) {
		panic(fmt.Sprintf("dram: bank %d out of range [0,%d)", req.Bank, len(c.banks)))
	}
	req.Arrival = c.cycle
	c.queue = append(c.queue, queued{req: req})
	c.stats.Requests++
	if req.Write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	return true
}

// Tick advances the controller by one cycle and returns any completions. The
// returned slice is a buffer owned by the controller and is only valid until
// the next call to Tick.
func (c *Controller) Tick() []Completion {
	c.cycle++
	c.done = c.done[:0]

	// Collect finished transfers, compacting the queue in place.
	keep := 0
	for i := range c.queue {
		q := &c.queue[i]
		if q.issued && c.cycle >= q.doneAt {
			c.done = append(c.done, Completion{Req: q.req, FinishedAt: c.cycle})
			c.stats.Completed++
		} else {
			if keep != i {
				c.queue[keep] = *q
			}
			keep++
		}
	}
	c.queue = c.queue[:keep]

	if c.cycle < c.busFreeAt {
		c.stats.BusyCycles++
	}

	// FR-FCFS issue: one command per cycle. First look for a row-hit request
	// whose bank and the bus are ready; otherwise take the oldest request
	// and advance its bank state (precharge/activate as needed).
	c.issueOne()

	return c.done
}

// issueOne tries to issue (or make progress on) a single request.
func (c *Controller) issueOne() {
	// Pass 1: ready row hits, oldest first (queue order is arrival order).
	for i := range c.queue {
		q := &c.queue[i]
		if q.issued {
			continue
		}
		b := &c.banks[q.req.Bank]
		if b.openRow == int64(q.req.Row) && c.cycle >= b.readyAt && c.cycle >= c.busFreeAt {
			c.issueColumn(q, b)
			return
		}
	}
	// Pass 2: issue one row command (activate or precharge). Requests are
	// considered oldest-first, but a request whose bank is busy must not
	// block younger requests targeting other banks — bank-level parallelism
	// is what GPUs rely on for DRAM throughput.
	var touched [64]bool
	for i := range c.queue {
		q := &c.queue[i]
		if q.issued {
			continue
		}
		bank := q.req.Bank
		if bank < len(touched) && touched[bank] {
			continue // an older request already owns this bank's next command
		}
		if bank < len(touched) {
			touched[bank] = true
		}
		b := &c.banks[bank]
		switch {
		case b.openRow == int64(q.req.Row):
			// Row already open but bank/bus not ready yet; try another bank.
			continue
		case b.openRow == -1:
			// Closed: activate when allowed (tRC since last ACT on this bank,
			// tRRD since last ACT on any bank in this controller).
			if c.cycle >= b.actAllowed && c.cycle >= c.lastActCycle+uint64(c.timing.TRRD) {
				c.activate(q, b)
				return
			}
		default:
			// Conflict: precharge first (respecting tRAS), then activate on a
			// later cycle once tRP has elapsed.
			if c.cycle >= b.preAllowed && c.cycle >= b.readyAt {
				b.openRow = -1
				b.actAllowed = maxU64(b.actAllowed, c.cycle+uint64(c.timing.TRP))
				q.conflict = true
				return
			}
		}
	}
}

// activate opens the row needed by q on bank b.
func (c *Controller) activate(q *queued, b *bankState) {
	b.openRow = int64(q.req.Row)
	b.lastActivate = c.cycle
	b.readyAt = c.cycle + uint64(c.timing.TRCD)
	b.actAllowed = c.cycle + uint64(c.timing.TRC)
	b.preAllowed = c.cycle + uint64(c.timing.TRAS)
	c.lastActCycle = c.cycle
	q.activated = true
}

// issueColumn issues the column (read/write) command for q on bank b and
// classifies its row outcome.
func (c *Controller) issueColumn(q *queued, b *bankState) {
	switch {
	case q.conflict:
		c.stats.RowConflicts++
	case q.activated:
		c.stats.RowMisses++
	default:
		c.stats.RowHits++
	}
	latency := uint64(c.timing.TCL)
	if q.req.Write {
		latency = uint64(c.timing.TWR)
	}
	start := maxU64(c.cycle, c.busFreeAt)
	q.issued = true
	q.doneAt = start + latency + uint64(c.burstCycles)
	c.busFreeAt = start + uint64(c.burstCycles)
	b.readyAt = maxU64(b.readyAt, c.cycle+uint64(c.timing.TCCD))
	c.stats.BytesMoved += uint64(c.lineBytes)
	c.stats.TotalQueueing += c.cycle - q.req.Arrival
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Drain reports whether the controller has no pending work (used when the
// adaptive LLC reconfigures and must wait for the memory system to go idle).
func (c *Controller) Drain() bool { return len(c.queue) == 0 }
