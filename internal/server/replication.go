package server

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/gpu"
	"repro/internal/server/api"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// Replication: with Config.Replicas = K > 1, every result record and
// checkpoint blob written to a member's store is pushed asynchronously to
// the top-K rendezvous-ranked members for its fingerprint (the owner is
// rank 0 and counts as one copy). Reads never trust ownership alone — the
// path is local store, then a record probe across the top K+1 ranked
// members (one rank of headroom so a single membership shift between
// write and read still finds the warm copy), then forward-to-execute.
// A record found off-owner is read-repaired back onto the current top-K,
// so churn-displaced records migrate to their new owners lazily, on the
// read path, instead of via a rebalancing scan. Everything is best-effort:
// a lost replica costs a byte-identical re-execution, never wrongness.

// parseHexFP decodes the wire form of a store fingerprint.
func parseHexFP(s string) ([32]byte, error) {
	var fp [32]byte
	b, err := hex.DecodeString(s)
	if err != nil {
		return fp, err
	}
	if len(b) != len(fp) {
		return fp, fmt.Errorf("fingerprint must be %d bytes, got %d", len(fp), len(b))
	}
	copy(fp[:], b)
	return fp, nil
}

// probeReplicas batch-probes the ranked members' local stores for every
// unhandled spec in b, answering hits inline. The probe is the replication
// factor plus one rank of churn headroom deep. A hit below rank 0 is a
// replica hit and triggers an async read repair. No-op unless replication
// is on.
func (s *Server) probeReplicas(ctx context.Context, b *runBatch, members []string) {
	if s.replicas <= 1 || len(members) <= 1 {
		return
	}
	width := min(s.replicas+1, len(members))
	self := s.node.Self()
	type target struct{ idx, pos int }
	peerFPs := map[string][]string{}
	peerTargets := map[string][]target{}
	for i := range b.specs {
		if b.handled[i] {
			continue
		}
		ranked := cluster.Ranked(b.fps[i], members)
		for pos, p := range ranked[:width] {
			if p == self {
				continue
			}
			peerFPs[p] = append(peerFPs[p], simstore.Hex(b.fps[i]))
			peerTargets[p] = append(peerTargets[p], target{i, pos})
		}
	}
	if len(peerFPs) == 0 {
		return
	}

	type hit struct {
		pos  int
		peer string
		rec  api.StoredRecord
	}
	var mu sync.Mutex
	best := map[int]hit{}
	var wg sync.WaitGroup
	for peer, hexes := range peerFPs {
		wg.Add(1)
		go func(peer string, hexes []string, targets []target) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			resp, err := s.peerClient(peer).LookupRecords(pctx, api.LookupRequest{Fingerprints: hexes})
			if err != nil {
				return // probe misses are free; the forward walk covers it
			}
			found := make(map[string]api.StoredRecord, len(resp.Records))
			for _, rec := range resp.Records {
				found[rec.Fingerprint] = rec
			}
			mu.Lock()
			defer mu.Unlock()
			for _, t := range targets {
				rec, ok := found[simstore.Hex(b.fps[t.idx])]
				if !ok {
					continue
				}
				if h, dup := best[t.idx]; !dup || t.pos < h.pos {
					best[t.idx] = hit{t.pos, peer, rec}
				}
			}
		}(peer, hexes, peerTargets[peer])
	}
	wg.Wait()

	for i, h := range best {
		b.answer(i, h.rec.Stats, h.peer)
		if h.pos > 0 {
			atomic.AddUint64(&s.replicaHits, 1)
			go s.readRepair(b.fps[i], h.rec, h.peer)
		}
	}
}

// readRepair pushes a record found off-owner back onto the current top-K
// ranked members (storing locally if this daemon is one of them), so
// churn-displaced records migrate to their new owners on the read path.
func (s *Server) readRepair(fp [32]byte, rec api.StoredRecord, source string) {
	if s.node == nil || s.replicas <= 1 {
		return
	}
	// Never repair with a record whose spec does not parse or does not
	// hash to its claimed fingerprint.
	spec, err := rec.Spec.ToRunSpec()
	if err != nil {
		return
	}
	spec = spec.Canonical()
	if computed, err := simstore.Fingerprint(spec); err != nil || computed != fp {
		return
	}
	members := s.node.Members()
	ranked := cluster.Ranked(fp, members)
	k := s.replicas
	if k > len(ranked) {
		k = len(ranked)
	}
	self := s.node.Self()
	wire := api.StoredRecord{
		Fingerprint: simstore.Hex(fp),
		Key:         rec.Key,
		Spec:        api.FromRunSpec(spec),
		Stats:       rec.Stats,
	}
	repaired := false
	for _, t := range ranked[:k] {
		switch t {
		case self:
			if _, ok := s.store.Get(fp); !ok {
				s.store.Put(fp, rec.Key, spec, rec.Stats)
				repaired = true
			}
		case source:
			// The member we read it from has it by definition.
		default:
			repaired = true
			s.pushReplicas([]string{t}, api.ReplicateRequest{Records: []api.StoredRecord{wire}}, time.Now())
		}
	}
	if repaired {
		atomic.AddUint64(&s.readRepairs, 1)
	}
}

// replicateRecord is the Queue.OnStored hook: push a freshly stored result
// to the top-K ranked members, asynchronously (the worker that computed it
// must not block on the network).
func (s *Server) replicateRecord(fp [32]byte, key string, spec sweep.RunSpec, stats gpu.RunStats) {
	targets := s.replicaTargets(fp)
	if len(targets) == 0 {
		return
	}
	// The worker's spec carries job-local fields (Key = job ID,
	// Checkpoint); re-canonicalize so the receiver verifies the same
	// fingerprint the record is filed under.
	req := api.ReplicateRequest{Records: []api.StoredRecord{{
		Fingerprint: simstore.Hex(fp),
		Key:         key,
		Spec:        api.FromRunSpec(spec.Canonical()),
		Stats:       stats,
	}}}
	storedAt := time.Now()
	go s.pushReplicas(targets, req, storedAt)
}

// replicateBlob is the checkpoint.Manager.OnSave hook: replicate a banked
// GPU snapshot under its content key, so a replica can also resume runs
// the dead owner had checkpointed.
func (s *Server) replicateBlob(key [32]byte, data []byte) {
	targets := s.replicaTargets(key)
	if len(targets) == 0 {
		return
	}
	req := api.ReplicateRequest{Blobs: []api.ReplicaBlob{{Key: simstore.Hex(key), Data: data}}}
	storedAt := time.Now()
	go s.pushReplicas(targets, req, storedAt)
}

// replicaTargets returns the top-K ranked members for a hash, minus self.
func (s *Server) replicaTargets(fp [32]byte) []string {
	if s.node == nil || s.replicas <= 1 {
		return nil
	}
	members := s.node.Members()
	if len(members) <= 1 {
		return nil
	}
	ranked := cluster.Ranked(fp, members)
	k := s.replicas
	if k > len(ranked) {
		k = len(ranked)
	}
	self := s.node.Self()
	var out []string
	for _, t := range ranked[:k] {
		if t != self {
			out = append(out, t)
		}
	}
	return out
}

// pushReplicas delivers one ReplicateRequest to each target, counting
// pushes, errors, and the write→replicated lag.
func (s *Server) pushReplicas(targets []string, req api.ReplicateRequest, storedAt time.Time) {
	items := uint64(len(req.Records) + len(req.Blobs))
	var wg sync.WaitGroup
	for _, t := range targets {
		wg.Add(1)
		go func(t string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			resp, err := s.peerClient(t).Replicate(ctx, req)
			if err != nil {
				atomic.AddUint64(&s.replErrors, items)
				return
			}
			atomic.AddUint64(&s.replPushed, uint64(resp.Stored))
			atomic.AddUint64(&s.replErrors, uint64(resp.Rejected))
			if s.metrics != nil && s.metrics.replLag != nil {
				s.metrics.replLag.Observe(time.Since(storedAt).Seconds())
			}
		}(t)
	}
	wg.Wait()
}

// maxReplicateBytes bounds POST /v1/replicate bodies: checkpoint blobs
// run to megabytes, well past the ordinary request limit.
const maxReplicateBytes = 64 << 20

// handleReplicate implements POST /v1/replicate: bank pushed records and
// checkpoint blobs in the local store, verifying each record's fingerprint
// against its spec where computable (trace-replay specs are not; their
// records are rejected rather than stored unverified).
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.node == nil {
		writeError(w, http.StatusServiceUnavailable, "not clustered")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxReplicateBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var req api.ReplicateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	var resp api.ReplicateResponse
	for _, rec := range req.Records {
		fp, err := parseHexFP(rec.Fingerprint)
		if err != nil {
			resp.Rejected++
			continue
		}
		spec, err := rec.Spec.ToRunSpec()
		if err != nil {
			resp.Rejected++
			continue
		}
		computed, err := simstore.Fingerprint(spec)
		if err != nil || computed != fp {
			resp.Rejected++
			continue
		}
		if err := s.store.Put(fp, rec.Key, spec, rec.Stats); err != nil {
			resp.Rejected++
			continue
		}
		resp.Stored++
	}
	for _, blob := range req.Blobs {
		key, err := parseHexFP(blob.Key)
		if err != nil || len(blob.Data) == 0 {
			resp.Rejected++
			continue
		}
		if err := s.store.PutBlob(key, blob.Data); err != nil {
			resp.Rejected++
			continue
		}
		resp.Stored++
	}
	atomic.AddUint64(&s.replRecv, uint64(resp.Stored))
	atomic.AddUint64(&s.replErrors, uint64(resp.Rejected))
	writeJSON(w, http.StatusOK, resp)
}

// handleRecordLookup implements POST /v1/records/lookup: report which of
// the requested fingerprints this daemon's local store holds, with their
// records. No execution, no forwarding — a pure store probe.
func (s *Server) handleRecordLookup(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var req api.LookupRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	resp := api.LookupResponse{Records: []api.StoredRecord{}}
	for _, hexFP := range req.Fingerprints {
		fp, err := parseHexFP(hexFP)
		if err != nil {
			continue
		}
		rec, ok := s.store.Get(fp)
		if !ok {
			continue
		}
		resp.Records = append(resp.Records, api.StoredRecord{
			Fingerprint: hexFP,
			Key:         rec.Key,
			Spec:        api.FromRunSpec(rec.Spec),
			Stats:       rec.Stats,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}
