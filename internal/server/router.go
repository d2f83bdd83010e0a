package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// decodeRunRequest is the decode stage of POST /v1/runs: parse the body (a
// {"specs":[...]} batch or a bare spec object) and resolve every spec, so a
// bad spec at the end of a batch is rejected before anything is enqueued.
func decodeRunRequest(body []byte) ([]api.Spec, []sweep.RunSpec, error) {
	var req api.RunRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, nil, fmt.Errorf("bad JSON: %v", err)
	}
	if len(req.Specs) == 0 {
		// Accept a bare Spec object as a single-run request.
		var one api.Spec
		if err := json.Unmarshal(body, &one); err == nil &&
			(len(one.Benchmarks) > 0 || len(one.Workloads) > 0 || one.TracePath != "") {
			req.Specs = []api.Spec{one}
		}
	}
	if len(req.Specs) == 0 {
		return nil, nil, errors.New(`no specs (send {"specs":[...]} or a bare spec object)`)
	}
	specs := make([]sweep.RunSpec, len(req.Specs))
	for i, wire := range req.Specs {
		spec, err := wire.ToRunSpec()
		if err != nil {
			return nil, nil, fmt.Errorf("spec %d: %v", i, err)
		}
		specs[i] = spec
	}
	return req.Specs, specs, nil
}

// runBatch carries one batch of runs through the router and the local
// queue. Every slice is indexed by spec, so goroutines working on distinct
// specs write disjoint elements.
type runBatch struct {
	wire    []api.Spec // what a forward sends
	specs   []sweep.RunSpec
	fps     [][32]byte
	results []api.RunResult
	handled []bool // answered by the router; the rest execute locally
	// remotes[i] is spec i's forwarded job handle, set while the job is
	// still running on a member.
	remotes []remoteHandle
}

// remoteHandle names a job on another member.
type remoteHandle struct{ peer, id string }

// newBatch fingerprints every spec. A spec that cannot be fingerprinted (a
// trace_path that is missing or not a regular file) fails the batch: every
// member would reject it alike, so it is the caller's error, not a reason
// to try another member.
func newBatch(wire []api.Spec, specs []sweep.RunSpec) (*runBatch, error) {
	n := len(specs)
	b := &runBatch{
		wire:    wire,
		specs:   specs,
		fps:     make([][32]byte, n),
		results: make([]api.RunResult, n),
		handled: make([]bool, n),
		remotes: make([]remoteHandle, n),
	}
	for i := range specs {
		fp, err := simstore.Fingerprint(specs[i])
		if err != nil {
			return nil, fmt.Errorf("spec %d: %v", i, err)
		}
		b.fps[i] = fp
	}
	return b, nil
}

// answer records a store hit (this daemon's or a ranked member's) as spec
// i's result.
func (b *runBatch) answer(i int, stats gpu.RunStats, peer string) {
	b.results[i] = api.RunResult{
		Key: b.wire[i].Key, Fingerprint: simstore.Hex(b.fps[i]),
		Cached: true, Status: api.StatusDone, Stats: &stats, Peer: peer,
	}
	b.handled[i] = true
}

// settle copies a finished job's outcome into spec i's result.
func (b *runBatch) settle(i int, st api.JobStatus) {
	b.results[i].Status, b.results[i].Stats, b.results[i].Error = st.Status, st.Stats, st.Error
}

// route is the one cluster read path, taken by POST /v1/runs and figure
// jobs alike. Each spec is answered from the local store (the owner's copy
// or a warm replica), else from a record probe across its top-ranked
// members, else offered down its ranking by a handle-based forward walk.
// Specs it leaves unhandled — this daemon's own, ones every remote
// candidate failed — execute locally. A no-op on a single-node daemon.
func (s *Server) route(ctx context.Context, b *runBatch) {
	if s.node == nil {
		return
	}
	members := s.node.Members()
	self := s.node.Self()
	for i := range b.specs {
		if rec, ok := s.store.Get(b.fps[i]); ok {
			b.answer(i, rec.Stats, self)
			if len(members) > 1 && cluster.Ranked(b.fps[i], members)[0] != self {
				atomic.AddUint64(&s.replicaHits, 1)
			}
		}
	}
	// Probe the ranked members for records before forwarding anything to
	// execute: after membership churn the current owner may not hold a
	// record a demoted replica still has.
	s.probeReplicas(ctx, b, members)
	s.forwardWalk(ctx, b, members)
}

// forwardWalk offers each unhandled spec to its ranked members in order,
// submitting without wait so a hop costs one round-trip, never a pinned
// connection. Reaching self (or exhausting the ranking) leaves the spec to
// local execution.
func (s *Server) forwardWalk(ctx context.Context, b *runBatch, members []string) {
	self := s.node.Self()
	next := make([]int, len(b.specs))
	ranked := make([][]string, len(b.specs))
	for i := range b.specs {
		if !b.handled[i] {
			ranked[i] = cluster.Ranked(b.fps[i], members)
		}
	}
	for {
		groups := map[string][]int{}
		for i := range b.specs {
			if b.handled[i] || ranked[i] == nil || next[i] < 0 {
				continue
			}
			if next[i] >= len(ranked[i]) || ranked[i][next[i]] == self {
				next[i] = -1 // local execution
				continue
			}
			cand := ranked[i][next[i]]
			groups[cand] = append(groups[cand], i)
		}
		if len(groups) == 0 {
			return
		}
		// Candidate groups are disjoint; forward them concurrently.
		var wg sync.WaitGroup
		for cand, idxs := range groups {
			wg.Add(1)
			go func(cand string, idxs []int) {
				defer wg.Done()
				sub := api.RunRequest{Specs: make([]api.Spec, len(idxs))}
				for k, i := range idxs {
					sub.Specs[k] = b.wire[i]
				}
				fwdStart := time.Now()
				resp, err := s.peerClient(cand).ForwardRuns(ctx, sub, false)
				if err != nil || len(resp.Results) != len(idxs) {
					if ctx.Err() != nil {
						return // caller hung up; the walk ends below
					}
					reason := failoverUnreachable
					if err == nil || client.IsStatusError(err) {
						reason = failoverBadAnswer
					}
					s.failover(reason, len(idxs))
					for _, i := range idxs {
						next[i]++
					}
					return
				}
				atomic.AddUint64(&s.forwarded, uint64(len(idxs)))
				s.metrics.forward.With(cand).Observe(time.Since(fwdStart).Seconds())
				for k, i := range idxs {
					b.results[i] = resp.Results[k]
					if b.results[i].Peer == "" {
						b.results[i].Peer = cand
					}
					b.handled[i] = true
					if !api.IsTerminal(b.results[i].Status) && b.results[i].JobID != "" {
						b.remotes[i] = remoteHandle{cand, b.results[i].JobID}
					}
				}
			}(cand, idxs)
		}
		wg.Wait()
		if ctx.Err() != nil {
			return
		}
	}
}

// submitLocal enqueues spec i on this daemon — a store hit answers inline,
// an in-flight duplicate is shared — and records the submission as its
// result.
func (s *Server) submitLocal(b *runBatch, i int) (Submitted, error) {
	key := b.wire[i].Key
	sub, err := s.queue.SubmitRunFP(key, b.specs[i], b.fps[i])
	if err != nil {
		return sub, err
	}
	res := api.RunResult{Key: key, Fingerprint: sub.Fingerprint, Peer: s.Self()}
	if sub.Cached {
		stats := sub.Stats
		res.Cached, res.Status, res.Stats = true, api.StatusDone, &stats
	} else {
		res.Status, res.JobID = api.StatusQueued, sub.Job.ID
	}
	b.results[i] = res
	return sub, nil
}

// awaitRemotes polls every forwarded job handle in b concurrently until it
// turns terminal. A handle that can no longer be polled (its member
// vanished mid-run) is re-executed here and waited on — determinism makes
// the duplicate byte-identical.
func (s *Server) awaitRemotes(ctx context.Context, b *runBatch) {
	var wg sync.WaitGroup
	for i, h := range b.remotes {
		if h.id == "" {
			continue
		}
		wg.Add(1)
		go func(i int, h remoteHandle) {
			defer wg.Done()
			st, err := s.waitRemoteJob(ctx, h.peer, h.id)
			if err == nil {
				b.settle(i, *st)
				return
			}
			if ctx.Err() != nil {
				return // nobody is waiting for the result
			}
			s.failover(failoverUnreachable, 1)
			sub, err := s.submitLocal(b, i)
			switch {
			case err != nil:
				b.results[i].Status, b.results[i].Error = api.StatusFailed, err.Error()
			case sub.Job != nil:
				b.settle(i, s.queue.Wait(ctx, sub.Job))
			}
		}(i, h)
	}
	wg.Wait()
}

// waitRemoteJob polls a forwarded job handle on its member until it turns
// terminal. Each poll is an independent, timeout-bounded round-trip.
func (s *Server) waitRemoteJob(ctx context.Context, peer, id string) (*api.JobStatus, error) {
	cl := s.peerClient(peer)
	t := time.NewTicker(s.remotePoll)
	defer t.Stop()
	for {
		pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		st, err := cl.ForwardJob(pctx, id)
		cancel()
		atomic.AddUint64(&s.remotePolls, 1)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
		if api.IsTerminal(st.Status) {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// routeFigure is the RouteFunc figure jobs send their run batches through:
// the same router as POST /v1/runs, then a wait on every forwarded handle,
// so a figure's runs land on (and warm the stores of) their hash-designated
// owners. A genuine remote failure is reported — re-executing here would
// fail identically. A run the router left to this daemon, or one its owner
// cancelled (not a property of the spec), comes back with an empty Status
// and the figure executes it locally, as does every run when the daemon is
// single-node or a run cannot be fingerprinted (nil result).
func (s *Server) routeFigure(ctx context.Context, specs []sweep.RunSpec) []api.RunResult {
	if s.node == nil {
		return nil // single-node: every run executes locally
	}
	wire := make([]api.Spec, len(specs))
	for i, spec := range specs {
		wire[i] = api.FromRunSpec(spec)
	}
	b, err := newBatch(wire, specs)
	if err != nil {
		return nil // the local executor reports the unfingerprintable run
	}
	s.route(ctx, b)
	s.awaitRemotes(ctx, b)
	if ctx.Err() != nil {
		return b.results // the figure stops at its next run boundary
	}
	for i, r := range b.results {
		switch {
		case !b.handled[i] || r.Status == api.StatusDone && r.Stats != nil:
		case r.Status == api.StatusFailed:
			if r.Error == "" {
				b.results[i].Error = fmt.Sprintf("member %s answered status failed", r.Peer)
			}
		default:
			s.failover(failoverCancelled, 1)
			b.results[i] = api.RunResult{}
		}
	}
	return b.results
}
