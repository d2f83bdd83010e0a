// Package server exposes the simulator as a network service: an HTTP/JSON
// API over the sweep engine, fronted by the content-addressed result store
// (internal/simstore) and an asynchronous job queue with bounded simulation
// workers, in-flight deduplication and per-job cancellation.
//
// Endpoints (all JSON unless noted):
//
//	POST /v1/runs            submit one spec or a batch; cached results are
//	                         returned inline, misses get job IDs (?wait=1
//	                         blocks until every job finishes)
//	GET  /v1/runs/{id}       job status + statistics when done
//	GET  /v1/jobs/{id}/events  SSE stream of status/progress events
//	GET  /v1/jobs/{id}/timeline  span tree of the job's lifecycle phases
//	                         (queue wait, checkpoint probe/restore, warmup,
//	                         kernel segments, measure window)
//	POST /v1/jobs/{id}/cancel  cancel a queued run or a running figure job
//	GET  /v1/figures/{key}   regenerate one paper figure, reusing the store
//	                         for every run (?async=1 returns a job ID;
//	                         scale with ?cycles=&warmup=&seed=&quick=1)
//	GET  /v1/scenarios       the internal/scenario catalog listing
//	POST /v1/scenarios/{name}/run  execute one catalog scenario against the
//	                         store and report its invariant violations
//	                         (?cycles=&warmup=&seed= rescale the recipe)
//	GET  /v1/cluster         membership view with per-peer health and
//	                         store/queue stats
//	GET  /v1/cluster/membership  raw gossip view (epoch + member statuses),
//	                         no health probes — cheap to poll
//	GET  /healthz            liveness + store/queue summary
//	GET  /metrics            Prometheus text exposition (internal/obs)
//
// Determinism makes the cache exact, not approximate: a spec's fingerprint
// (simstore.Fingerprint) identifies its RunStats bit-for-bit, so a cache
// hit is byte-identical to re-running the simulation.
//
// In cluster mode daemons shard the result store by run fingerprint using
// rendezvous hashing (internal/cluster): any daemon accepts any request,
// but each spec executes — and its record is stored — on its
// hash-designated owner. Membership is either a static list (Config.Peers)
// or gossip-based with seed-node bootstrap (Config.Seeds/Gossip): daemons
// join and leave without restarting the others, and routing re-ranks on
// every membership epoch. With Config.Replicas > 1 each stored record and
// checkpoint blob is pushed to the top-K ranked members, so a killed
// owner's results are served byte-identical from a warm replica instead of
// re-executed; reads check the local store, then probe the ranked members
// (POST /v1/records/lookup), then forward. Cross-owner forwarding is
// handle-based: the forwarder submits without waiting, gets the owner's
// job ID back immediately, and polls it — a hop never pins an HTTP
// connection for the length of a simulation. Finished jobs are retained in
// memory only per the Config.JobTTL/MaxJobs policy; evicted job IDs answer
// 404 while their statistics remain in the store.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simstore"
	"repro/internal/sweep"
)

// Default finished-job retention policy (the cmd/simd flag defaults).
// Finished jobs are kept in memory so clients can poll their results; an
// unbounded map is a memory leak under sustained traffic, so the daemon
// evicts terminal, unsubscribed jobs after DefaultJobTTL and whenever more
// than DefaultMaxJobs are retained. The statistics themselves live on in
// the content-addressed store — eviction only forgets the job ID.
const (
	DefaultJobTTL  = 15 * time.Minute
	DefaultMaxJobs = 1000
)

// Config assembles a Server.
type Config struct {
	// Store is the result store (required).
	Store *simstore.Store
	// Workers bounds concurrent simulations; 0 uses GOMAXPROCS.
	Workers int

	// JobTTL evicts finished jobs older than this (0 keeps them forever);
	// MaxJobs caps the retained job count (0 = unbounded). cmd/simd passes
	// DefaultJobTTL / DefaultMaxJobs unless overridden by flags.
	JobTTL  time.Duration
	MaxJobs int

	// Checkpoints makes every executed run checkpoint-assisted: GPU state
	// snapshots at warmup end and kernel boundaries are banked as blobs in
	// Store, and later runs sharing a prefix resume from them instead of
	// re-simulating it. Statistics are byte-identical either way — this only
	// changes wall-clock time and store disk usage.
	Checkpoints bool

	// Self and Peers enable static cluster mode: Peers is the full member
	// list (base URLs, including this daemon) and Self is this daemon's
	// entry in it. Every member must be configured with the same Peers set.
	// Empty Peers (and no Seeds/Gossip) means single-node operation.
	Self  string
	Peers []string

	// Seeds enables dynamic gossip membership instead: the daemon
	// bootstraps by contacting any live seed and thereafter tracks the
	// cluster through heartbeats (join/leave/suspicion, no restarts).
	// Gossip forces dynamic mode even with no seeds — the first daemon of
	// a new cluster, which others will point their -seeds at. Mutually
	// exclusive with Peers.
	Seeds  []string
	Gossip bool

	// Replicas is the replication factor: every stored record and
	// checkpoint blob is pushed to the top-Replicas rendezvous-ranked
	// members (the owner counts as one), and reads probe that many ranked
	// members plus one before re-executing anything. <= 1 disables
	// replication.
	Replicas int

	// Heartbeat is the gossip period (default 1s); SuspectAfter/DeadAfter
	// default to 4x/12x of it. Only meaningful in dynamic mode.
	Heartbeat    time.Duration
	SuspectAfter time.Duration
	DeadAfter    time.Duration

	// RemotePoll is how often forwarded job handles are polled for
	// completion (default 150ms).
	RemotePoll time.Duration

	// Logger, when non-nil, receives one structured access-log line per HTTP
	// request (request ID, route pattern, status, duration). nil disables
	// access logging; metrics are recorded either way.
	Logger *slog.Logger
}

// Server is the simd HTTP handler plus its job queue and (in cluster mode)
// its view of the peer membership.
type Server struct {
	store   *simstore.Store
	queue   *Queue
	ckpt    *checkpoint.Manager // nil unless Config.Checkpoints
	mux     *http.ServeMux
	started time.Time

	node       *cluster.Node // nil single-node
	selfAddr   string        // advertised URL, if known (even single-node)
	replicas   int
	remotePoll time.Duration

	pcMu        sync.RWMutex
	peerClients map[string]*client.Client // lazily built; members come and go

	metrics *serverMetrics
	logger  *slog.Logger

	forwarded   uint64 // atomic: specs sent to another ranked member
	replicaHits uint64 // atomic: reads served from a non-owner's warm copy
	remotePolls uint64 // atomic: job-handle poll round-trips
	replPushed  uint64 // atomic: records+blobs pushed to replicas
	replRecv    uint64 // atomic: records+blobs accepted from peers
	replErrors  uint64 // atomic: failed replica pushes / rejected receipts
	readRepairs uint64 // atomic: records re-pushed after an off-owner read
}

// New builds a Server and starts its worker pool; Close releases it. The
// only error source is an invalid cluster configuration.
func New(cfg Config) (*Server, error) {
	s := &Server{
		store:       cfg.Store,
		mux:         http.NewServeMux(),
		started:     time.Now(),
		selfAddr:    cluster.Normalize(cfg.Self),
		replicas:    cfg.Replicas,
		remotePoll:  cfg.RemotePoll,
		peerClients: make(map[string]*client.Client),
	}
	if s.remotePoll <= 0 {
		s.remotePoll = 150 * time.Millisecond
	}
	// The checkpointer is handed to the queue as an interface; keep the nil
	// case a true nil interface, not a typed nil *Manager.
	var cp sweep.Checkpointer
	if cfg.Checkpoints {
		s.ckpt = checkpoint.NewManager(cfg.Store)
		cp = s.ckpt
	}
	s.queue = NewQueue(cfg.Store, cfg.Workers, cfg.JobTTL, cfg.MaxJobs, cp)
	dynamic := len(cfg.Seeds) > 0 || cfg.Gossip
	if len(cfg.Peers) > 0 && dynamic {
		s.queue.Close()
		return nil, fmt.Errorf("server: static Peers and dynamic Seeds/Gossip are mutually exclusive")
	}
	if len(cfg.Peers) > 0 || dynamic {
		ncfg := cluster.NodeConfig{
			Self:           cfg.Self,
			HeartbeatEvery: cfg.Heartbeat,
			SuspectAfter:   cfg.SuspectAfter,
			DeadAfter:      cfg.DeadAfter,
		}
		if dynamic {
			ncfg.Seeds = cfg.Seeds
		} else {
			ncfg.Static = cfg.Peers
		}
		if cfg.Logger != nil {
			log := cfg.Logger
			ncfg.OnChange = func(epoch uint64, members []string) {
				log.Info("cluster membership changed", "epoch", epoch, "members", len(members))
			}
		}
		n, err := cluster.NewNode(ncfg)
		if err != nil {
			s.queue.Close()
			return nil, err
		}
		s.node = n
		s.mux.Handle("POST "+cluster.GossipPath, n.Handler())
		if cfg.Replicas > 1 {
			s.queue.OnStored(s.replicateRecord)
			if s.ckpt != nil {
				s.ckpt.OnSave(s.replicateBlob)
			}
		}
	}
	s.mux.HandleFunc("POST /v1/runs", s.handleRuns)
	s.mux.HandleFunc("POST /v1/records/lookup", s.handleRecordLookup)
	s.mux.HandleFunc("POST /v1/replicate", s.handleReplicate)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/timeline", s.handleJobTimeline)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/figures/{key}", s.handleFigure)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	s.mux.HandleFunc("POST /v1/scenarios/{name}/run", s.handleScenarioRun)
	s.mux.HandleFunc("GET /v1/cluster", s.handleCluster)
	s.mux.HandleFunc("GET /v1/cluster/membership", s.handleMembership)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Built last: the registry's sampling funcs close over the queue, the
	// cluster view and the checkpoint manager assembled above.
	s.logger = cfg.Logger
	s.metrics = newServerMetrics(s)
	s.queue.Instrument(s.metrics.queueWait, s.metrics.runDuration, s.metrics.storeWrite)
	if s.node != nil {
		s.node.Start() // no-op in static mode
	}
	return s, nil
}

// Self returns the daemon's advertised cluster address ("" single-node).
func (s *Server) Self() string {
	if s.node == nil {
		return ""
	}
	return s.node.Self()
}

// peerClient returns (lazily building) the typed client for a member.
// Members come and go under dynamic membership, so the map grows on
// demand; stale entries are harmless.
func (s *Server) peerClient(addr string) *client.Client {
	s.pcMu.RLock()
	c := s.peerClients[addr]
	s.pcMu.RUnlock()
	if c != nil {
		return c
	}
	s.pcMu.Lock()
	defer s.pcMu.Unlock()
	if c := s.peerClients[addr]; c != nil {
		return c
	}
	c = client.New(addr)
	s.peerClients[addr] = c
	return c
}

// otherMembers lists the current ACTIVE members excluding this daemon.
func (s *Server) otherMembers() []string {
	if s.node == nil {
		return nil
	}
	members := s.node.Members()
	out := make([]string, 0, len(members))
	for _, m := range members {
		if m != s.node.Self() {
			out = append(out, m)
		}
	}
	return out
}

// failover counts one ranked-walk fallback, by cause.
func (s *Server) failover(reason string, n int) {
	if s.metrics != nil && s.metrics.failoverReasons != nil {
		s.metrics.failoverReasons.With(reason).Add(uint64(n))
	}
}

// Handler returns the HTTP handler: the API mux wrapped in the telemetry
// middleware (request metrics, X-Request-Id, access logs).
func (s *Server) Handler() http.Handler { return s.withTelemetry(s.mux) }

// Registry exposes the server's metric registry (tests lint it; embedders
// may add their own series).
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

// Workers returns the resolved simulation worker-pool size.
func (s *Server) Workers() int { return s.queue.Stats().Workers }

// Close leaves the cluster gracefully (peers drop this member without
// waiting out suspicion timers) and stops the worker pool (running
// simulations finish first).
func (s *Server) Close() {
	if s.node != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		s.node.Stop(ctx)
		cancel()
	}
	s.queue.Close()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.Error{Error: fmt.Sprintf(format, args...)})
}

// maxRequestBytes bounds request bodies; batch specs are small.
const maxRequestBytes = 16 << 20

// handleRuns implements POST /v1/runs: resolve every spec, route each to
// its cluster owner (forwarded transparently; any daemon is a valid entry
// point), serve store hits inline, enqueue misses (deduplicated against
// in-flight jobs), and — with ?wait=1 — block until the enqueued jobs
// finish so the response carries every result. An unreachable owner fails
// over to local execution: determinism makes the duplicate harmless, and
// the request is never lost.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var req api.RunRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
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
		writeError(w, http.StatusBadRequest, `no specs (send {"specs":[...]} or a bare spec object)`)
		return
	}

	// Resolve and validate the whole batch before enqueueing anything: a bad
	// spec at the end of the list must not leave the earlier ones already
	// simulating against an error response that references no jobs.
	specs := make([]sweep.RunSpec, len(req.Specs))
	for i, wireSpec := range req.Specs {
		spec, err := wireSpec.ToRunSpec()
		if err != nil {
			writeError(w, http.StatusBadRequest, "spec %d: %v", i, err)
			return
		}
		specs[i] = spec
	}

	// Cluster routing: forwarded requests are always executed here (at most
	// one hop). Otherwise each fingerprintable spec takes the replicated
	// read path — local store (owner copy or warm replica), then a record
	// probe across the top-ranked members, then a handle-based forward walk
	// down the ranking. Forwards happen before any local enqueue, so a
	// spec whose every remote candidate fails cleanly falls back to the
	// local path below.
	clustered := s.node != nil && r.Header.Get(api.ForwardedHeader) == ""
	fps := make([][32]byte, len(req.Specs))
	haveFP := make([]bool, len(req.Specs))
	if s.node != nil {
		for i := range specs {
			fp, err := simstore.Fingerprint(specs[i])
			if err != nil {
				continue // local; SubmitRun reports the error properly
			}
			fps[i], haveFP[i] = fp, true
		}
	}
	wantWait := r.URL.Query().Get("wait") == "1"

	results := make([]api.RunResult, len(req.Specs))
	handled := make([]bool, len(req.Specs))
	// remotes[i] is spec i's forwarded job handle (zero unless it is still
	// running on a member). Indexed by spec like results and handled, so the
	// per-owner forwarding goroutines below write disjoint elements.
	type remoteHandle struct{ peer, id string }
	remotes := make([]remoteHandle, len(req.Specs))

	if clustered {
		members := s.node.Members()
		// Local store first: the owner's copy or a warm replica answers
		// without touching the network.
		for i := range specs {
			if !haveFP[i] {
				continue
			}
			if rec, ok := s.store.Get(fps[i]); ok {
				stats := rec.Stats
				results[i] = api.RunResult{
					Key: req.Specs[i].Key, Fingerprint: simstore.Hex(fps[i]),
					Cached: true, Status: api.StatusDone, Stats: &stats, Peer: s.Self(),
				}
				handled[i] = true
				if len(members) > 1 && cluster.Ranked(fps[i], members)[0] != s.node.Self() {
					atomic.AddUint64(&s.replicaHits, 1)
				}
			}
		}
		// Probe the ranked members for records before forwarding anything
		// to execute: after membership churn the current owner may not
		// hold a record a demoted replica still has.
		s.probeReplicas(r.Context(), req.Specs, specs, fps, haveFP, handled, results, members)

		// Ranked forward walk: offer each unhandled spec to its ranked
		// members in order, submitting without wait so a hop costs one
		// round-trip, never a pinned connection. Reaching self (or
		// exhausting the ranking) drops the spec to the local path.
		next := make([]int, len(specs))
		ranked := make([][]string, len(specs))
		for i := range specs {
			if haveFP[i] && !handled[i] {
				ranked[i] = cluster.Ranked(fps[i], members)
			}
		}
		for {
			groups := map[string][]int{}
			for i := range specs {
				if handled[i] || ranked[i] == nil || next[i] < 0 {
					continue
				}
				if next[i] >= len(ranked[i]) || ranked[i][next[i]] == s.node.Self() {
					next[i] = -1 // local execution below
					continue
				}
				cand := ranked[i][next[i]]
				groups[cand] = append(groups[cand], i)
			}
			if len(groups) == 0 {
				break
			}
			// Candidate groups are disjoint; forward them concurrently.
			var fwdWG sync.WaitGroup
			for cand, idxs := range groups {
				fwdWG.Add(1)
				go func(cand string, idxs []int) {
					defer fwdWG.Done()
					sub := api.RunRequest{Specs: make([]api.Spec, len(idxs))}
					for k, i := range idxs {
						sub.Specs[k] = req.Specs[i]
					}
					fwdStart := time.Now()
					resp, err := s.peerClient(cand).ForwardRuns(r.Context(), sub, false)
					if err != nil || len(resp.Results) != len(idxs) {
						if r.Context().Err() != nil {
							return // client hung up; the walk loop exits below
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
						results[i] = resp.Results[k]
						if results[i].Peer == "" {
							results[i].Peer = cand
						}
						handled[i] = true
						if !api.IsTerminal(results[i].Status) && results[i].JobID != "" {
							remotes[i] = remoteHandle{cand, results[i].JobID}
						}
					}
				}(cand, idxs)
			}
			fwdWG.Wait()
			if r.Context().Err() != nil {
				return // disconnected mid-forward; the response has no reader
			}
		}
	}

	jobs := make([]*Job, len(req.Specs))
	// Jobs this request created (not dedup-shared ones owned by earlier
	// submitters): cancelled if a later spec fails to enqueue, so an error
	// response never leaves orphaned simulations behind — including jobs
	// the forwarding pass already created on remote members.
	var ownJobs []*Job
	cancelOwn := func() {
		for _, j := range ownJobs {
			s.queue.Cancel(j.ID)
		}
		for i, h := range remotes {
			if !results[i].Cached && h.id != "" {
				s.peerClient(h.peer).ForwardCancel(r.Context(), h.id)
			}
		}
	}
	for i, wireSpec := range req.Specs {
		if handled[i] {
			continue // answered by the local store or a ranked member above
		}
		res := api.RunResult{Key: wireSpec.Key, Peer: s.Self()}
		var sub Submitted
		var err error
		if haveFP[i] {
			sub, err = s.queue.SubmitRunFP(wireSpec.Key, specs[i], fps[i])
		} else {
			sub, err = s.queue.SubmitRun(wireSpec.Key, specs[i])
		}
		if err != nil {
			cancelOwn()
			writeError(w, http.StatusServiceUnavailable, "spec %d: %v", i, err)
			return
		}
		res.Fingerprint = sub.Fingerprint
		if sub.Cached {
			res.Cached = true
			res.Status = api.StatusDone
			stats := sub.Stats
			res.Stats = &stats
		} else {
			res.Status = api.StatusQueued
			res.JobID = sub.Job.ID
			jobs[i] = sub.Job
			if !sub.Shared {
				ownJobs = append(ownJobs, sub.Job)
			}
		}
		results[i] = res
	}

	if wantWait {
		// Local jobs block on the queue; remote handles are polled
		// concurrently (each poll is one bounded round-trip, so a slow
		// simulation never pins a connection to its owner).
		var remWG sync.WaitGroup
		for i, h := range remotes {
			if h.id == "" {
				continue
			}
			remWG.Add(1)
			go func(i int, h remoteHandle) {
				defer remWG.Done()
				st, err := s.waitRemoteJob(r.Context(), h.peer, h.id)
				if err != nil {
					if r.Context().Err() != nil {
						return // nobody is reading the response
					}
					// The member vanished mid-run: re-execute locally —
					// determinism makes the duplicate byte-identical.
					s.failover(failoverUnreachable, 1)
					sub, serr := s.queue.SubmitRunFP(req.Specs[i].Key, specs[i], fps[i])
					if serr != nil {
						results[i].Status = api.StatusFailed
						results[i].Error = serr.Error()
						return
					}
					results[i].Peer = s.Self()
					if sub.Cached {
						results[i].Status = api.StatusDone
						stats := sub.Stats
						results[i].Stats = &stats
						results[i].Cached = true
						return
					}
					results[i].JobID = sub.Job.ID
					lst := s.queue.Wait(r.Context(), sub.Job)
					results[i].Status = lst.Status
					results[i].Stats = lst.Stats
					results[i].Error = lst.Error
					return
				}
				results[i].Status = st.Status
				results[i].Stats = st.Stats
				results[i].Error = st.Error
			}(i, h)
		}
		for i, j := range jobs {
			if j == nil {
				continue
			}
			st := s.queue.Wait(r.Context(), j)
			results[i].Status = st.Status
			results[i].Stats = st.Stats
			results[i].Error = st.Error
		}
		remWG.Wait()
		if r.Context().Err() != nil {
			return
		}
	}
	writeJSON(w, http.StatusOK, api.RunResponse{Results: results})
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

// routeRun is the RouteFunc wired into figure jobs: it places each of a
// figure's runs on its rendezvous-ranked member so figure generation
// caches every run on the hash-designated daemon. The read path mirrors
// handleRuns — local store (owner copy or replica), ranked record probe,
// then a handle-based forward walk. handled=false falls through to local
// execution — this daemon owns the spec, there is no cluster,
// fingerprinting failed, or every remote candidate failed over.
func (s *Server) routeRun(ctx context.Context, key string, spec sweep.RunSpec) (gpu.RunStats, bool, bool, error) {
	if s.node == nil {
		return gpu.RunStats{}, false, false, nil
	}
	fp, err := simstore.Fingerprint(spec)
	if err != nil {
		return gpu.RunStats{}, false, false, nil
	}
	members := s.node.Members()
	self := s.node.Self()
	if rec, ok := s.store.Get(fp); ok {
		if len(members) > 1 && cluster.Ranked(fp, members)[0] != self {
			atomic.AddUint64(&s.replicaHits, 1)
		}
		return rec.Stats, true, true, nil
	}
	ranked := cluster.Ranked(fp, members)
	if rec, pos, ok := s.lookupReplica(ctx, fp, ranked); ok {
		if pos > 0 {
			atomic.AddUint64(&s.replicaHits, 1)
			go s.readRepair(fp, rec, ranked[pos])
		}
		return rec.stats, true, true, nil
	}
	wire := api.FromRunSpec(spec)
	wire.Key = key
	for _, cand := range ranked {
		if cand == self {
			return gpu.RunStats{}, false, false, nil // execute locally
		}
		fwdStart := time.Now()
		resp, err := s.peerClient(cand).ForwardRuns(ctx, api.RunRequest{Specs: []api.Spec{wire}}, false)
		if err != nil || len(resp.Results) != 1 {
			if ctx.Err() != nil {
				return gpu.RunStats{}, false, true, ctx.Err()
			}
			reason := failoverUnreachable
			if err == nil || client.IsStatusError(err) {
				reason = failoverBadAnswer
			}
			s.failover(reason, 1)
			continue
		}
		atomic.AddUint64(&s.forwarded, 1)
		s.metrics.forward.With(cand).Observe(time.Since(fwdStart).Seconds())
		r := resp.Results[0]
		if !api.IsTerminal(r.Status) && r.JobID != "" {
			st, werr := s.waitRemoteJob(ctx, cand, r.JobID)
			if werr != nil {
				if ctx.Err() != nil {
					return gpu.RunStats{}, false, true, ctx.Err()
				}
				// The member vanished mid-run; walk on (or fall back to
				// local execution at self's rank).
				s.failover(failoverUnreachable, 1)
				continue
			}
			r.Status = st.Status
			r.Stats = st.Stats
			r.Error = st.Error
		}
		switch {
		case r.Status == api.StatusDone && r.Stats != nil:
			return *r.Stats, r.Cached, true, nil
		case r.Status == api.StatusFailed:
			// The member ran the spec and it genuinely failed
			// (deterministic — re-executing here would fail identically);
			// report, don't retry.
			msg := r.Error
			if msg == "" {
				msg = fmt.Sprintf("member %s answered status failed", cand)
			}
			return gpu.RunStats{}, false, true, fmt.Errorf("%s", msg)
		default:
			// Cancelled (someone cancelled the member's shared job) or any
			// other non-answer: not a property of the spec, so fall back
			// rather than failing the figure.
			s.failover(failoverCancelled, 1)
			return gpu.RunStats{}, false, false, nil
		}
	}
	return gpu.RunStats{}, false, false, nil
}

// findRemoteJob asks every other member for a job unknown locally (each
// lookup is marked forwarded, so peers answer from their own queue only —
// one hop, no recursive fan-out). Forwarded submissions hand out job IDs
// that live on the owner daemon; proxying keeps every daemon a valid entry
// point for polling them.
func (s *Server) findRemoteJob(ctx context.Context, id string) (*api.JobStatus, string, bool) {
	if s.node == nil {
		return nil, "", false
	}
	others := s.otherMembers()
	type hit struct {
		st   *api.JobStatus
		peer string
	}
	hits := make(chan hit, len(others))
	var wg sync.WaitGroup
	for _, peer := range others {
		wg.Add(1)
		go func(peer string, cl *client.Client) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			if st, err := cl.ForwardJob(pctx, id); err == nil {
				hits <- hit{st, peer}
			}
		}(peer, s.peerClient(peer))
	}
	// Answer on the first hit: at most one member holds any job ID, so a
	// slow or dead peer must not delay a lookup the owner already answered.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case h := <-hits:
		return h.st, h.peer, true
	case <-done:
		select { // a hit can race the close; drain before declaring a miss
		case h := <-hits:
			return h.st, h.peer, true
		default:
			return nil, "", false
		}
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if st, ok := s.queue.Job(id); ok {
		st.Peer = s.Self()
		writeJSON(w, http.StatusOK, st)
		return
	}
	if r.Header.Get(api.ForwardedHeader) == "" {
		if st, peer, ok := s.findRemoteJob(r.Context(), id); ok {
			st.Peer = peer
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	writeError(w, http.StatusNotFound, "no job %q", id)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if st, ok := s.queue.Cancel(id); ok {
		st.Peer = s.Self()
		writeJSON(w, http.StatusOK, st)
		return
	}
	if r.Header.Get(api.ForwardedHeader) == "" {
		if _, peer, ok := s.findRemoteJob(r.Context(), id); ok {
			if st, err := s.peerClient(peer).ForwardCancel(r.Context(), id); err == nil {
				st.Peer = peer
				writeJSON(w, http.StatusOK, st)
				return
			}
		}
	}
	writeError(w, http.StatusNotFound, "no job %q", id)
}

// handleJobEvents streams a job's lifecycle as server-sent events: a
// "status" event with the current snapshot immediately, then status
// transitions and (for figure jobs) per-run "progress" events, ending when
// the job reaches a terminal state.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	events, unsubscribe, ok := s.queue.Subscribe(id)
	if !ok {
		// A forwarded submission's job lives on its owner: redirect the
		// stream there rather than proxying event-by-event.
		if r.Header.Get(api.ForwardedHeader) == "" {
			if _, peer, found := s.findRemoteJob(r.Context(), id); found {
				http.Redirect(w, r, peer+"/v1/jobs/"+id+"/events", http.StatusTemporaryRedirect)
				return
			}
		}
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	defer unsubscribe()

	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-events:
			if !ok {
				// Queue shut down: the channel was closed (exactly once, by
				// Queue.Close); end the stream instead of spinning on zero
				// values.
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
			if ev.Type == "status" && ev.Job != nil && terminal(ev.Job.Status) {
				return
			}
		}
	}
}

// expOptions maps wire figure options to harness options exactly like the
// paperfigs flags do, so server-generated figure text is byte-identical to
// local output for the same settings.
func expOptions(o api.FigureOptions) exp.Options {
	opt := exp.DefaultOptions()
	if o.Quick {
		opt = exp.QuickOptions()
	}
	if o.Cycles > 0 {
		opt.MeasureCycles = o.Cycles
	}
	if o.Warmup > 0 {
		opt.WarmupCycles = o.Warmup
	}
	if o.Seed != nil {
		opt.Seed = *o.Seed
	}
	return opt
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	fig, ok := exp.FigureByKey(key)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown figure %q", key)
		return
	}
	wireOpts, err := api.ParseFigureOptions(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	j := s.queue.SubmitFigure(fig, expOptions(wireOpts), s.routeRun)
	if r.URL.Query().Get("async") == "1" {
		writeJSON(w, http.StatusAccepted, api.FigureResponse{Key: fig.Key, Name: fig.Name, JobID: j.ID})
		return
	}

	st := s.queue.Wait(r.Context(), j)
	if !terminal(st.Status) {
		// Client gave up: stop simulating runs nobody will read.
		s.queue.Cancel(j.ID)
		return
	}
	if st.Status != api.StatusDone {
		writeError(w, http.StatusInternalServerError, "figure %s: %s", key, st.Error)
		return
	}
	writeJSON(w, http.StatusOK, api.FigureResponse{
		Key:          fig.Key,
		Name:         fig.Name,
		Text:         st.FigureText,
		CachedRuns:   st.CachedRuns,
		ExecutedRuns: st.ExecutedRuns,
		DurationMs:   st.DurationMs,
	})
}

// handleScenarios implements GET /v1/scenarios: the catalog listing.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var list []api.ScenarioInfo
	for _, sc := range scenario.Catalog() {
		axes := make([]string, len(sc.Axes))
		for i, a := range sc.Axes {
			axes[i] = string(a)
		}
		list = append(list, api.ScenarioInfo{
			Name:        sc.Name,
			Level:       sc.Level.String(),
			Description: sc.Description,
			Axes:        axes,
			Figures:     sc.Figures,
		})
	}
	writeJSON(w, http.StatusOK, list)
}

// handleScenarioRun implements POST /v1/scenarios/{name}/run: execute one
// catalog scenario against the daemon's result store (every run hits the
// store, shares in-flight executions and respects the worker bound; its
// statistics stay cached for later figure requests). Runs execute locally —
// trace-replay scenarios record scratch traces this daemon must be able to
// read back. The determinism gate is not applied here (a store-backed second
// pass would be answered from cache and prove nothing); the paperfigs
// -scenarios path covers it. ?cycles=&warmup=&seed= rescale the recipe.
func (s *Server) handleScenarioRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sc, ok := scenario.ByName(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown scenario %q", name)
		return
	}
	wireOpts, err := api.ParseFigureOptions(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	scale := sc.Level.Scale()
	if wireOpts.Cycles > 0 {
		scale.MeasureCycles = wireOpts.Cycles
	}
	if wireOpts.Warmup > 0 {
		scale.WarmupCycles = wireOpts.Warmup
	}
	if wireOpts.Seed != nil {
		scale.Seed = *wireOpts.Seed
	}

	ex := &storeExec{q: s.queue, ctx: r.Context()}
	rep, err := sc.Run(r.Context(), scenario.RunOptions{Exec: ex, Scale: &scale})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "scenario %s: %v", name, err)
		return
	}
	writeJSON(w, http.StatusOK, api.ScenarioReport{
		Name:         rep.Name,
		Level:        rep.Level.String(),
		Runs:         rep.Runs,
		OK:           rep.OK(),
		Violations:   rep.Violations,
		CachedRuns:   ex.cachedRuns,
		ExecutedRuns: ex.executedRuns,
		DurationMs:   rep.Elapsed.Milliseconds(),
	})
}

// healthSnapshot is the /healthz body, shared with /v1/cluster's self entry.
func (s *Server) healthSnapshot() api.Health {
	qs := s.queue.Stats()
	return api.Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		StoreDir:      s.store.Dir(),
		StoreEntries:  s.store.Len(),
		Workers:       qs.Workers,
		Queued:        qs.Queued,
		Running:       qs.Running,
		JobsTracked:   qs.Tracked,
		Self:          s.Self(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.healthSnapshot())
}

// handleCluster implements GET /v1/cluster: the membership view with a live
// health probe (2-second bound) and store/queue stats per member, plus —
// under gossip membership — each member's liveness status and the local
// membership epoch (clients re-rank peers when it moves). A single-node
// daemon reports itself as the only member.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	st := api.ClusterStatus{Self: s.Self()}
	if s.node == nil {
		h := s.healthSnapshot()
		// selfAddr is known whenever cmd/simd started us (it always derives
		// an advertised URL); library embedders without one report "".
		st.Peers = []api.ClusterPeer{{URL: s.selfAddr, Self: true, Healthy: true, Health: &h}}
		writeJSON(w, http.StatusOK, st)
		return
	}
	st.Epoch = s.node.Epoch()
	entries := s.node.MemberEntries()
	st.Peers = make([]api.ClusterPeer, len(entries))
	// Probe peers concurrently: a dead member costs its 2-second timeout
	// once, not once per dead member.
	var wg sync.WaitGroup
	for i, m := range entries {
		entry := api.ClusterPeer{URL: m.Addr, Self: m.Addr == s.node.Self()}
		if !s.node.Static() {
			entry.Status = string(m.Status)
		}
		if entry.Self {
			h := s.healthSnapshot()
			entry.Healthy, entry.Health = true, &h
			st.Peers[i] = entry
			continue
		}
		wg.Add(1)
		go func(i int, entry api.ClusterPeer) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
			defer cancel()
			h, err := s.peerClient(entry.URL).Health(ctx)
			if err != nil {
				entry.Error = err.Error()
			} else {
				entry.Healthy, entry.Health = true, h
			}
			st.Peers[i] = entry
		}(i, entry)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, st)
}

// handleMembership implements GET /v1/cluster/membership: the raw gossip
// view with no health probes — cheap enough for client pools to poll on a
// short TTL and re-rank when the epoch moves. Unlike /v1/cluster it costs
// no cross-member round-trips.
func (s *Server) handleMembership(w http.ResponseWriter, r *http.Request) {
	view := api.MembershipView{}
	if s.node == nil {
		if s.selfAddr != "" {
			view.Members = []api.MemberEntry{{Addr: s.selfAddr, Self: true}}
		}
		writeJSON(w, http.StatusOK, view)
		return
	}
	view.Epoch = s.node.Epoch()
	for _, m := range s.node.MemberEntries() {
		entry := api.MemberEntry{Addr: m.Addr, Self: m.Addr == s.node.Self()}
		if !s.node.Static() {
			entry.Status = string(m.Status)
		}
		view.Members = append(view.Members, entry)
	}
	writeJSON(w, http.StatusOK, view)
}

// handleMetrics implements GET /metrics: the full registry rendered as
// Prometheus text exposition. Point-in-time families sample their
// subsystems here, at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WriteExposition(w)
}

// handleJobTimeline implements GET /v1/jobs/{id}/timeline: the span tree a
// job's trace recorded (queue wait, checkpoint probe/restore, warmup,
// kernel segments, measure window). Jobs living on another member redirect
// to their owner, mirroring the events endpoint.
func (s *Server) handleJobTimeline(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if tl, ok := s.queue.Timeline(id); ok {
		tl.Peer = s.Self()
		writeJSON(w, http.StatusOK, tl)
		return
	}
	if r.Header.Get(api.ForwardedHeader) == "" {
		if _, peer, found := s.findRemoteJob(r.Context(), id); found {
			http.Redirect(w, r, peer+"/v1/jobs/"+id+"/timeline", http.StatusTemporaryRedirect)
			return
		}
	}
	writeError(w, http.StatusNotFound, "no job %q", id)
}
