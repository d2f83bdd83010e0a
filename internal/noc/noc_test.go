package noc

import (
	"math/rand"
	"testing"

	"repro/internal/config"
)

func testParams(topo config.NoCTopology) Params {
	cfg := config.Baseline()
	cfg.NoC = topo
	return ParamsFromConfig(cfg)
}

// drain ticks the network until no packets are in flight, returning all
// delivered packets. It fails the test if the network does not drain.
func drain(t *testing.T, n Net, limit int) []*Packet {
	t.Helper()
	var all []*Packet
	for i := 0; i < limit; i++ {
		all = append(all, n.Tick()...)
		if !n.Pending() {
			return all
		}
	}
	t.Fatalf("network did not drain within %d cycles", limit)
	return nil
}

func allTopologies() []config.NoCTopology {
	return []config.NoCTopology{config.NoCFull, config.NoCConcentrated, config.NoCHierarchical, config.NoCIdeal}
}

func TestNewValidation(t *testing.T) {
	p := testParams(config.NoCFull)
	p.NumSMs = 0
	if _, err := New(p, Request); err == nil {
		t.Error("expected error for zero SMs")
	}
	p = testParams(config.NoCConcentrated)
	p.Concentration = 3
	if _, err := New(p, Request); err == nil {
		t.Error("expected error for non-dividing concentration")
	}
	p = testParams(config.NoCFull)
	p.BufferFlits = 0
	if _, err := New(p, Request); err == nil {
		t.Error("expected error for zero buffer")
	}
	p = testParams(config.NoCTopology(42))
	if _, err := New(p, Request); err == nil {
		t.Error("expected error for unknown topology")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p := testParams(config.NoCFull)
	p.NumSMs = -1
	MustNew(p, Request)
}

func TestSinglePacketDeliveryAllTopologies(t *testing.T) {
	for _, topo := range allTopologies() {
		for _, dir := range []Direction{Request, Reply} {
			p := testParams(topo)
			n := MustNew(p, dir)
			numDst := p.numSlices()
			if dir == Reply {
				numDst = p.NumSMs
			}
			pkt := &Packet{ID: 1, Src: 0, Dst: numDst - 1, Flits: 5}
			if !n.Inject(pkt) {
				t.Fatalf("%v/%v: inject failed", topo, dir)
			}
			got := drain(t, n, 1000)
			if len(got) != 1 || got[0].ID != 1 {
				t.Fatalf("%v/%v: delivered %d packets", topo, dir, len(got))
			}
			if got[0].DeliveredAt <= got[0].InjectedAt {
				t.Errorf("%v/%v: non-positive latency", topo, dir)
			}
			st := n.Stats()
			if st.Injected != 1 || st.Delivered != 1 {
				t.Errorf("%v/%v: stats %+v", topo, dir, st)
			}
		}
	}
}

func TestLatencyOrdering(t *testing.T) {
	// A full crossbar is a single hop; H-Xbar takes two hops and should have
	// a (slightly) higher unloaded latency. Both should be well below 100
	// cycles unloaded.
	lat := func(topo config.NoCTopology) float64 {
		p := testParams(topo)
		n := MustNew(p, Request)
		for i := 0; i < 8; i++ {
			if !n.Inject(&Packet{ID: uint64(i), Src: i * 10, Dst: i * 8, Flits: 1}) {
				t.Fatal("inject failed")
			}
		}
		drain(t, n, 1000)
		return n.Stats().AvgLatency()
	}
	full := lat(config.NoCFull)
	hier := lat(config.NoCHierarchical)
	if hier <= full {
		t.Errorf("H-Xbar unloaded latency (%.1f) should exceed full crossbar (%.1f) due to the extra hop", hier, full)
	}
	if full > 50 || hier > 100 {
		t.Errorf("unloaded latencies too high: full=%.1f hier=%.1f", full, hier)
	}
}

func TestHopCounts(t *testing.T) {
	p := testParams(config.NoCHierarchical)
	n := MustNew(p, Request)
	n.Inject(&Packet{ID: 1, Src: 0, Dst: 63, Flits: 1})
	got := drain(t, n, 1000)
	if got[0].Hops != 2 {
		t.Errorf("H-Xbar hops = %d, want 2", got[0].Hops)
	}
	nf := MustNew(testParams(config.NoCFull), Request)
	nf.Inject(&Packet{ID: 1, Src: 0, Dst: 63, Flits: 1})
	got = drain(t, nf, 1000)
	if got[0].Hops != 1 {
		t.Errorf("full-xbar hops = %d, want 1", got[0].Hops)
	}
}

// TestHotSliceSerialization reproduces the central bottleneck of the paper:
// when all SMs send to a single LLC slice, the slice's network port
// serializes deliveries at one flit per cycle regardless of topology.
func TestHotSliceSerialization(t *testing.T) {
	for _, topo := range []config.NoCTopology{config.NoCFull, config.NoCHierarchical} {
		p := testParams(topo)
		n := MustNew(p, Request)
		const pkts = 64
		injected := 0
		cycles := 0
		delivered := 0
		for delivered < pkts && cycles < 10000 {
			for injected < pkts {
				// All SMs target slice 0.
				if !n.Inject(&Packet{ID: uint64(injected), Src: injected % p.NumSMs, Dst: 0, Flits: 1}) {
					break
				}
				injected++
			}
			delivered += len(n.Tick())
			cycles++
		}
		if delivered < pkts {
			t.Fatalf("%v: only %d/%d delivered", topo, delivered, pkts)
		}
		// The destination port serializes at 1 flit/cycle, so >= pkts cycles.
		if cycles < pkts {
			t.Errorf("%v: %d single-flit packets to one slice delivered in %d cycles (< serialization bound)",
				topo, pkts, cycles)
		}
	}
}

// TestSpreadBeatsHotspot verifies that distributing the same traffic over all
// slices completes much faster than concentrating it on one slice — the
// bandwidth argument behind private caching.
func TestSpreadBeatsHotspot(t *testing.T) {
	run := func(spread bool) int {
		p := testParams(config.NoCHierarchical)
		n := MustNew(p, Request)
		const pkts = 256
		injected, delivered, cycles := 0, 0, 0
		for delivered < pkts && cycles < 100000 {
			for injected < pkts {
				dst := 0
				if spread {
					dst = injected % p.numSlices()
				}
				if !n.Inject(&Packet{ID: uint64(injected), Src: injected % p.NumSMs, Dst: dst, Flits: 5}) {
					break
				}
				injected++
			}
			delivered += len(n.Tick())
			cycles++
		}
		if delivered < pkts {
			t.Fatalf("only %d delivered", delivered)
		}
		return cycles
	}
	hot := run(false)
	spread := run(true)
	if spread*4 > hot {
		t.Errorf("spread traffic (%d cycles) should be at least 4x faster than hotspot (%d cycles)", spread, hot)
	}
}

func TestBackpressure(t *testing.T) {
	p := testParams(config.NoCFull)
	n := MustNew(p, Request)
	// Fill source 0's injection buffer (8 flits) with 5-flit packets: the
	// first fits, the second does not fit immediately.
	if !n.Inject(&Packet{ID: 1, Src: 0, Dst: 0, Flits: 5}) {
		t.Fatal("first inject should succeed")
	}
	if n.Inject(&Packet{ID: 2, Src: 0, Dst: 0, Flits: 5}) {
		t.Fatal("second inject should be rejected (buffer has 3 free flits)")
	}
	if n.Stats().InjectStallCycles != 1 {
		t.Errorf("InjectStallCycles = %d, want 1", n.Stats().InjectStallCycles)
	}
	if n.CanInject(0, 5) {
		t.Error("CanInject should be false while the buffer is occupied")
	}
	drain(t, n, 1000)
	if !n.CanInject(0, 5) {
		t.Error("CanInject should be true after draining")
	}
}

// TestInjectRefusesExactlyWhenCanInjectIsFalse drives every topology in
// both directions with random packets and checks that Inject succeeds
// exactly when CanInject said it would, and that each refusal counts one
// InjectStallCycles, as Refuse does.
func TestInjectRefusesExactlyWhenCanInjectIsFalse(t *testing.T) {
	for _, topo := range allTopologies() {
		for _, dir := range []Direction{Request, Reply} {
			p := testParams(topo)
			n := MustNew(p, dir)
			numSrc, numDst := p.NumSMs, p.numSlices()
			if dir == Reply {
				numSrc, numDst = numDst, numSrc
			}
			rng := rand.New(rand.NewSource(1))
			var refused uint64
			for cyc := 0; cyc < 300; cyc++ {
				for k := 0; k < 4*numSrc; k++ {
					src, flits := rng.Intn(numSrc), 1+rng.Intn(5)
					can := n.CanInject(src, flits)
					ok := n.Inject(&Packet{Src: src, Dst: rng.Intn(numDst), Flits: flits})
					if ok != can {
						t.Fatalf("%v/%v: CanInject(%d, %d) = %v but Inject = %v", topo, dir, src, flits, can, ok)
					}
					if !ok {
						refused++
					}
				}
				n.Tick()
			}
			if topo != config.NoCIdeal && refused == 0 {
				t.Errorf("%v/%v: no injection was refused; the load is too light to test refusals", topo, dir)
			}
			n.Refuse()
			if got := n.Stats().InjectStallCycles; got != refused+1 {
				t.Errorf("%v/%v: InjectStallCycles = %d, want %d refused injections + 1 Refuse", topo, dir, got, refused)
			}
		}
	}
}

func TestBypassRequestNetwork(t *testing.T) {
	p := testParams(config.NoCHierarchical)
	n := MustNew(p, Request)
	if n.Bypassed() {
		t.Fatal("network should start in shared (non-bypassed) mode")
	}
	if err := n.SetBypass(true); err != nil {
		t.Fatalf("SetBypass: %v", err)
	}
	if !n.Bypassed() {
		t.Fatal("Bypassed() should report true")
	}
	// Cluster of SM 0 is cluster 0, so its private slice in MC 3 is 3*8+0.
	pkt := &Packet{ID: 1, Src: 0, Dst: 24, Flits: 1}
	if !n.Inject(pkt) {
		t.Fatal("inject failed")
	}
	got := drain(t, n, 1000)
	if len(got) != 1 || got[0].Dst != 24 {
		t.Fatalf("bypass delivery failed: %+v", got)
	}
	if got[0].Hops != 1 {
		t.Errorf("bypassed path hops = %d, want 1 (MC-router skipped)", got[0].Hops)
	}
	st := n.Stats()
	if st.GatedRouterCycles == 0 {
		t.Error("expected gated router cycles while bypassed")
	}
	// Disable again and check two-hop routing returns.
	if err := n.SetBypass(false); err != nil {
		t.Fatal(err)
	}
	n.Inject(&Packet{ID: 2, Src: 0, Dst: 25, Flits: 1})
	got = drain(t, n, 1000)
	if got[0].Hops != 2 {
		t.Errorf("after un-bypass hops = %d, want 2", got[0].Hops)
	}
}

func TestBypassReplyNetwork(t *testing.T) {
	p := testParams(config.NoCHierarchical)
	n := MustNew(p, Reply)
	if err := n.SetBypass(true); err != nil {
		t.Fatal(err)
	}
	// Slice 24 = MC 3, local slice 0 -> private to cluster 0 (SMs 0..9).
	pkt := &Packet{ID: 1, Src: 24, Dst: 7, Flits: 5}
	if !n.Inject(pkt) {
		t.Fatal("inject failed")
	}
	got := drain(t, n, 1000)
	if len(got) != 1 || got[0].Dst != 7 {
		t.Fatalf("bypass reply delivery failed: %+v", got)
	}
	if got[0].Hops != 1 {
		t.Errorf("bypassed reply hops = %d, want 1", got[0].Hops)
	}
}

func TestBypassViolationPanics(t *testing.T) {
	p := testParams(config.NoCHierarchical)
	n := MustNew(p, Request)
	if err := n.SetBypass(true); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong-slice routing under bypass")
		}
	}()
	// SM 0 (cluster 0) sends to slice 1 (cluster 1's private slice): illegal
	// in private mode.
	n.Inject(&Packet{ID: 1, Src: 0, Dst: 1, Flits: 1})
	drain(t, n, 1000)
}

func TestBypassRejectedWhilePending(t *testing.T) {
	p := testParams(config.NoCHierarchical)
	n := MustNew(p, Request)
	n.Inject(&Packet{ID: 1, Src: 0, Dst: 0, Flits: 5})
	if err := n.SetBypass(true); err == nil {
		t.Error("SetBypass must fail while packets are in flight")
	}
	drain(t, n, 1000)
	if err := n.SetBypass(true); err != nil {
		t.Errorf("SetBypass after drain: %v", err)
	}
}

func TestBypassUnsupportedTopologies(t *testing.T) {
	for _, topo := range []config.NoCTopology{config.NoCFull, config.NoCConcentrated, config.NoCIdeal} {
		n := MustNew(testParams(topo), Request)
		if err := n.SetBypass(true); err == nil {
			t.Errorf("%v: SetBypass(true) should fail", topo)
		}
		if err := n.SetBypass(false); err != nil {
			t.Errorf("%v: SetBypass(false) should be a no-op, got %v", topo, err)
		}
	}
}

// TestFlitConservation is the conservation property: after draining, every
// injected packet and flit has been delivered, on every topology, for random
// traffic.
func TestFlitConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, topo := range allTopologies() {
		for _, dir := range []Direction{Request, Reply} {
			p := testParams(topo)
			n := MustNew(p, dir)
			numSrc, numDst := p.NumSMs, p.numSlices()
			if dir == Reply {
				numSrc, numDst = p.numSlices(), p.NumSMs
			}
			const want = 400
			injected := 0
			for cycles := 0; injected < want && cycles < 100000; cycles++ {
				for tries := 0; tries < 4 && injected < want; tries++ {
					pkt := &Packet{
						ID:    uint64(injected),
						Src:   rng.Intn(numSrc),
						Dst:   rng.Intn(numDst),
						Flits: 1 + 4*rng.Intn(2),
					}
					if n.Inject(pkt) {
						injected++
					}
				}
				n.Tick()
			}
			if injected != want {
				t.Fatalf("%v/%v: only injected %d/%d", topo, dir, injected, want)
			}
			for i := 0; i < 100000 && n.Pending(); i++ {
				n.Tick()
			}
			st := n.Stats()
			if st.Delivered != st.Injected {
				t.Errorf("%v/%v: delivered %d != injected %d", topo, dir, st.Delivered, st.Injected)
			}
			if st.FlitsDelivered != st.FlitsInjected {
				t.Errorf("%v/%v: flits delivered %d != injected %d", topo, dir, st.FlitsDelivered, st.FlitsInjected)
			}
		}
	}
}

func TestConcentratedHasFewerPortsAndMoreContention(t *testing.T) {
	// Same random traffic through full vs concentrated (c=2): the
	// concentrated crossbar should take at least as long (usually longer).
	run := func(topo config.NoCTopology) int {
		rng := rand.New(rand.NewSource(5))
		p := testParams(topo)
		n := MustNew(p, Request)
		const want = 512
		injected, cycles := 0, 0
		for ; injected < want || n.Pending(); cycles++ {
			if cycles > 200000 {
				t.Fatal("did not finish")
			}
			for tries := 0; tries < 8 && injected < want; tries++ {
				if n.Inject(&Packet{ID: uint64(injected), Src: rng.Intn(p.NumSMs), Dst: rng.Intn(p.numSlices()), Flits: 5}) {
					injected++
				}
			}
			n.Tick()
		}
		return cycles
	}
	full := run(config.NoCFull)
	conc := run(config.NoCConcentrated)
	if conc < full {
		t.Errorf("concentrated crossbar (%d cycles) should not beat full crossbar (%d cycles)", conc, full)
	}
}

func TestIdealNetUnlimitedBandwidth(t *testing.T) {
	p := testParams(config.NoCIdeal)
	n := MustNew(p, Request)
	for i := 0; i < 1000; i++ {
		if !n.Inject(&Packet{ID: uint64(i), Src: 0, Dst: 0, Flits: 5}) {
			t.Fatal("ideal net must always accept")
		}
	}
	got := drain(t, n, 100)
	if len(got) != 1000 {
		t.Fatalf("delivered %d, want 1000", len(got))
	}
	if n.Stats().AvgLatency() != float64(p.IdealLatency) {
		t.Errorf("ideal latency = %v, want %d", n.Stats().AvgLatency(), p.IdealLatency)
	}
}

func TestStatsAddAndAverages(t *testing.T) {
	a := Stats{Injected: 2, Delivered: 2, TotalLatency: 20, TotalHops: 4, FlitsInjected: 10}
	b := Stats{Injected: 1, Delivered: 1, TotalLatency: 30, TotalHops: 1}
	a.Add(b)
	if a.Injected != 3 || a.TotalLatency != 50 {
		t.Errorf("Add result %+v", a)
	}
	if got := a.AvgLatency(); got < 16.6 || got > 16.7 {
		t.Errorf("AvgLatency = %v, want 50/3", got)
	}
	if got := a.AvgHops(); got < 1.6 || got > 1.7 {
		t.Errorf("AvgHops = %v", got)
	}
	var zero Stats
	if zero.AvgLatency() != 0 || zero.AvgHops() != 0 {
		t.Error("zero stats averages should be 0")
	}
}

func TestDirectionString(t *testing.T) {
	if Request.String() != "request" || Reply.String() != "reply" {
		t.Error("Direction String mismatch")
	}
}
