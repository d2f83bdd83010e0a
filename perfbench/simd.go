package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/server/api"
	"repro/internal/server/client"
	"repro/internal/simstore"
)

// simd-cluster: three in-process simd members (gossip membership, two
// replicas, checkpoints on) behind httptest, loaded by closed-loop
// client.Client callers. Set-up primes a pool of small specs; then nine
// requests in ten repeat a pool spec (a store hit, answered locally or
// through the record lookup hop when the member holds no copy) and the rest
// are new specs that share a pool spec's banked warmup but differ in
// MeasureCycles, so each restores a checkpoint, simulates briefly, writes
// the store and pushes a replica.
const (
	simdMembers  = 3
	simdReplicas = 2
	// roundSize is how many requests make one round (wall_s, alloc_mb).
	roundSize = 100

	poolWarmupCycles  = 2_000
	poolMeasureCycles = 2_000
	// Set-up runs each pool warmup once on every member at
	// primeMeasureCycles+member, so every member banks every warmup.
	primeMeasureCycles = 200
	// The k-th miss of a run measures missMeasureCycles+k cycles: a spec no
	// earlier request has used.
	missMeasureCycles = 1_000
	// Two kernels give each miss one kernel-boundary checkpoint save.
	simdKernels = 2
	remotePoll  = 10 * time.Millisecond
)

// simdPoolApps have a non-degenerate adaptive run at the pool's scale (the
// memory-bound apps' adaptive runs spend a 2K-cycle window draining).
var simdPoolApps = []string{"AN", "SN", "MM"}

// poolSpecs are the specs set-up primes, keyed "<app>/<mode>".
func poolSpecs(seed int64) []api.Spec {
	var specs []api.Spec
	for _, abbr := range simdPoolApps {
		for _, mode := range simModes {
			cfg := simConfig(mode)
			specs = append(specs, api.Spec{
				Key:           abbr + "/" + mode.String(),
				Benchmarks:    []string{abbr},
				Config:        &cfg,
				Seed:          seed,
				MeasureCycles: poolMeasureCycles,
				WarmupCycles:  poolWarmupCycles,
				Kernels:       simdKernels,
			})
		}
	}
	return specs
}

// request is one entry of the traffic schedule.
type request struct {
	member int
	spec   api.Spec
	miss   bool
}

// schedule yields the request sequence of one seed: the i-th request taken
// is the same on every run with that seed, whichever caller takes it.
// Members are addressed round-robin. Every block of missEvery requests
// holds exactly one miss, at a seeded position, and misses walk the pool in
// seeded rounds that visit every base once: the seed varies the order, not
// the mix, so runs with different seeds do comparable work.
type schedule struct {
	mu      sync.Mutex
	rng     *rand.Rand
	pool    []api.Spec
	n       int
	missAt  int   // position of the miss in the current block
	missSeq []int // pool indices of the current round of misses
	misses  int
}

// missEvery sets the miss share: one request in this many is a miss.
const missEvery = 10

func newSchedule(seed int64, pool []api.Spec) *schedule {
	return &schedule{rng: rand.New(rand.NewSource(seed)), pool: pool}
}

func (s *schedule) take() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n%missEvery == 0 {
		s.missAt = s.rng.Intn(missEvery)
	}
	r := request{member: s.n % simdMembers}
	if s.n%missEvery != s.missAt {
		r.spec = s.pool[s.rng.Intn(len(s.pool))]
		s.n++
		return r
	}
	s.n++
	if len(s.missSeq) == 0 {
		s.missSeq = s.rng.Perm(len(s.pool))
	}
	r.miss = true
	r.spec = s.pool[s.missSeq[0]]
	s.missSeq = s.missSeq[1:]
	r.spec.MeasureCycles = missMeasureCycles + uint64(s.misses)
	r.spec.Key = fmt.Sprintf("%s/miss-%d", r.spec.Key, s.misses)
	s.misses++
	return r
}

type member struct {
	url string
	srv *server.Server
	ts  *httptest.Server
	cl  *client.Client
}

type simdWorkload struct {
	seed    int64
	workdir string
	dir     string
	members []*member
	pool    []api.Spec
	// ref holds the canonical stats of the first answer for each pool spec.
	ref map[string][]byte
}

func newSimdWorkload(o options) *simdWorkload {
	return &simdWorkload{seed: o.seed, workdir: o.workdir}
}

// setup starts the cluster and primes it, setupReps times over (each time
// on fresh stores); the last cluster stays up for the timed phase.
func (w *simdWorkload) setup() (float64, error) {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		w.close()
		start := time.Now()
		if err := w.start(); err != nil {
			return 0, err
		}
		if err := w.prime(); err != nil {
			return 0, err
		}
		times = append(times, elapsed(start))
	}
	return median(times), nil
}

func (w *simdWorkload) start() error {
	if err := os.MkdirAll(w.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.workdir, "simd-")
	if err != nil {
		return err
	}
	w.dir = dir
	for i := 0; i < simdMembers; i++ {
		store, err := simstore.Open(filepath.Join(dir, fmt.Sprint(i)), simstore.Options{})
		if err != nil {
			return err
		}
		// The handler is installed after server.New, which needs the
		// listener's address as its Self.
		var handler http.Handler
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			handler.ServeHTTP(rw, r)
		}))
		url := "http://" + ts.Listener.Addr().String()
		// A forwarded miss is polled for on its owner; the 150ms default
		// would quantize miss latency to the poll clock.
		cfg := server.Config{Store: store, Self: url, Replicas: simdReplicas, Checkpoints: true, RemotePoll: remotePoll}
		if i == 0 {
			cfg.Gossip = true
		} else {
			cfg.Seeds = []string{w.members[0].url}
		}
		srv, err := server.New(cfg)
		if err != nil {
			ts.Close()
			return err
		}
		handler = srv.Handler()
		ts.Start()
		w.members = append(w.members, &member{url: url, srv: srv, ts: ts, cl: client.New(url)})
	}
	return w.waitMembership(30 * time.Second)
}

// waitMembership blocks until every member sees every member alive.
func (w *simdWorkload) waitMembership(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		converged := true
		for _, m := range w.members {
			var view api.MembershipView
			if err := getJSON(context.Background(), m.url+"/v1/cluster/membership", &view); err != nil {
				return err
			}
			alive := 0
			for _, e := range view.Members {
				if e.Status == "alive" {
					alive++
				}
			}
			converged = converged && alive == simdMembers
		}
		if converged {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster membership did not converge in %v", timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// prime runs the pool through member 0 (each spec executes on its owner)
// and then every pool warmup on every member, so timed misses resume from a
// local checkpoint wherever they land. Pool specs are posted one per
// request, as the timed traffic posts them: a batch whose specs have two
// remote owners makes handleRuns write its remote-handle map from two
// forwarding goroutines at once, a data race that can abort the process.
func (w *simdWorkload) prime() error {
	ctx := context.Background()
	w.pool = poolSpecs(w.seed)
	answers := make([]api.RunResult, len(w.pool))
	errs := make([]error, len(w.pool))
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < loadWorkers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				resp, err := w.members[0].cl.Runs(ctx, api.RunRequest{Specs: w.pool[i : i+1]}, true)
				switch {
				case err != nil:
					errs[i] = err
				case len(resp.Results) != 1:
					errs[i] = fmt.Errorf("pool: %d answers for one spec", len(resp.Results))
				default:
					answers[i] = resp.Results[0]
				}
			}
		}()
	}
	for i := range w.pool {
		next <- i
	}
	close(next)
	wg.Wait()
	w.ref = map[string][]byte{}
	for i, res := range answers {
		if errs[i] != nil {
			return errs[i]
		}
		spec, err := w.pool[i].ToRunSpec()
		if err != nil {
			return err
		}
		if v := checkResponse(spec, res, false, nil); len(v) > 0 {
			return fmt.Errorf("pool: %s", strings.Join(v, "; "))
		}
		w.ref[w.pool[i].Key] = scenario.StatsJSON(*res.Stats)
	}
	for i, m := range w.members {
		batch := make([]api.Spec, len(w.pool))
		for k, s := range w.pool {
			s.MeasureCycles = primeMeasureCycles + uint64(i)
			s.Kernels = 1 // only the warmup checkpoint is wanted
			s.Key += "/prime"
			batch[k] = s
		}
		resp, err := m.cl.ForwardRuns(ctx, api.RunRequest{Specs: batch}, true)
		if err != nil {
			return err
		}
		for k, res := range resp.Results {
			spec, err := batch[k].ToRunSpec()
			if err != nil {
				return err
			}
			if v := checkResponse(spec, res, false, nil); len(v) > 0 {
				return fmt.Errorf("prime: %s", strings.Join(v, "; "))
			}
		}
	}
	return nil
}

func (w *simdWorkload) close() {
	// Leave the cluster while every listener is still up, then stop them.
	for _, m := range w.members {
		m.srv.Close()
	}
	for _, m := range w.members {
		m.ts.Close()
	}
	w.members = nil
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *simdWorkload) scrape() ([]exposition, error) {
	var out []exposition
	for _, m := range w.members {
		text, err := getText(context.Background(), m.url+"/metrics")
		if err != nil {
			return nil, err
		}
		e, err := parseExposition(text)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// traffic is what the callers record during the timed phase.
type traffic struct {
	mu                     sync.Mutex
	op, hit, miss          []float64 // ms
	hitLocal, hitRemote    []float64 // ms
	missCycles             float64
	rounds                 []float64 // completion time of every roundSize-th request
	missJobs               []jobRef
	counts                 simCounts
	start                  time.Time
	completedSinceRoundEnd int
	result
}

type jobRef struct{ peer, id string }

func (w *simdWorkload) measure(o options) (*result, error) {
	ctx := context.Background()
	before, err := w.scrape()
	if err != nil {
		return nil, err
	}
	sched := newSchedule(w.seed, w.pool)
	tr := &traffic{start: time.Now(), result: result{metrics: map[string]float64{}}}
	allocStart := allocatedMB()
	deadline := tr.start.Add(time.Duration(o.seconds * float64(time.Second)))

	var wg sync.WaitGroup
	for c := 0; c < loadWorkers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.send(ctx, sched.take(), tr)
			}
		}()
	}
	wg.Wait()
	phase := elapsed(tr.start)
	allocMB := allocatedMB() - allocStart
	after, err := w.scrape()
	if err != nil {
		return nil, err
	}

	res := &tr.result
	m := res.metrics
	var walls []float64
	prev := 0.0
	for _, t := range tr.rounds {
		walls = append(walls, t-prev)
		prev = t
	}
	if len(walls) == 0 {
		walls = []float64{phase * roundSize / float64(max(len(tr.op), 1))}
	}
	m["wall_s"] = median(walls)
	m["sim_kcycles_per_s"] = ratio(tr.missCycles/1e3, delta(before, after, "simd_run_duration_seconds_sum"))
	m["adaptive_speedup"] = adaptiveSpeedup(w.ref, simdPoolApps)
	m["op_p50_ms"] = median(tr.op)
	m["op_tail_ms"], _ = tail(tr.op, 0.99)
	m["served_per_s"] = float64(len(tr.op)) / phase
	m["alloc_mb"] = allocMB * roundSize / float64(max(len(tr.op), 1))
	if !o.trace {
		return res, nil
	}

	m["client.hit_p50_ms"] = median(tr.hit)
	m["client.hit_p99_ms"], _ = tail(tr.hit, 0.99)
	m["client.hit_local_ms_p50"] = median(tr.hitLocal)
	m["client.hit_remote_ms_p50"] = median(tr.hitRemote)
	m["client.miss_p50_ms"] = median(tr.miss)
	m["client.miss_p90_ms"], _ = tail(tr.miss, 0.90)
	m["client.miss_frac"] = ratio(float64(len(tr.miss)), float64(len(tr.op)))
	m["cluster.forward_ms_mean"] = histMean(before, after, "simd_cluster_forward_seconds") * 1e3
	m["cluster.forwarded"] = delta(before, after, "simd_cluster_forwarded_total")
	m["cluster.remote_polls"] = delta(before, after, "simd_cluster_remote_polls_total")
	m["server.queue_wait_ms_mean"] = histMean(before, after, "simd_job_queue_wait_seconds") * 1e3
	m["server.run_s_mean"] = histMean(before, after, "simd_run_duration_seconds")
	m["simstore.write_ms_mean"] = histMean(before, after, "simd_store_write_seconds") * 1e3
	hits, misses := delta(before, after, "simd_store_hits_total"), delta(before, after, "simd_store_misses_total")
	m["simstore.hit_ratio"] = ratio(hits, hits+misses)
	m["checkpoint.restore_ms_mean"] = histMean(before, after, "simd_checkpoint_restore_seconds") * 1e3
	m["checkpoint.save_ms_mean"] = histMean(before, after, "simd_checkpoint_save_seconds") * 1e3
	m["checkpoint.hit_ratio"] = ratio(delta(before, after, "simd_checkpoint_hits_total"), delta(before, after, "simd_runs_executed_total"))
	m["replication.pushed"] = delta(before, after, "simd_replication_pushed_total")
	m["replication.errors"] = delta(before, after, "simd_replication_errors_total")
	m["replication.read_repairs"] = delta(before, after, "simd_replication_read_repairs_total")

	tr.counts.report(m)
	var tl timelineTotals
	for _, j := range tr.missJobs {
		var t api.JobTimeline
		if err := getJSON(ctx, j.peer+"/v1/jobs/"+j.id+"/timeline", &t); err != nil {
			return nil, err
		}
		tl.add(t.Spans)
	}
	tl.report(m)
	return res, nil
}

// send issues one request, times it and checks the answer.
func (w *simdWorkload) send(ctx context.Context, req request, tr *traffic) {
	mb := w.members[req.member]
	t0 := time.Now()
	resp, err := mb.cl.Runs(ctx, api.RunRequest{Specs: []api.Spec{req.spec}}, true)
	ms := time.Since(t0).Seconds() * 1e3

	var v []string
	var res api.RunResult
	switch {
	case err != nil:
		v = []string{req.spec.Key + ": " + err.Error()}
	case len(resp.Results) != 1:
		v = []string{fmt.Sprintf("%s: %d answers", req.spec.Key, len(resp.Results))}
	default:
		res = resp.Results[0]
		spec, err := req.spec.ToRunSpec()
		if err != nil {
			v = []string{err.Error()}
			break
		}
		var ref []byte
		if !req.miss {
			ref = w.ref[req.spec.Key]
		}
		v = checkResponse(spec, res, !req.miss, ref)
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.attempted++
	if len(v) > 0 {
		tr.fail(v...)
		return
	}
	tr.op = append(tr.op, ms)
	if req.miss {
		tr.miss = append(tr.miss, ms)
		tr.missCycles += float64(req.spec.MeasureCycles)
		tr.missJobs = append(tr.missJobs, jobRef{res.Peer, res.JobID})
		// Misses resume from a banked warmup: only the measured window is
		// simulated.
		tr.counts.add(*res.Stats, req.spec.MeasureCycles)
	} else {
		tr.hit = append(tr.hit, ms)
		if res.Peer == mb.url {
			tr.hitLocal = append(tr.hitLocal, ms)
		} else {
			tr.hitRemote = append(tr.hitRemote, ms)
		}
	}
	tr.completedSinceRoundEnd++
	if tr.completedSinceRoundEnd == roundSize {
		tr.completedSinceRoundEnd = 0
		tr.rounds = append(tr.rounds, elapsed(tr.start))
	}
}

// timelineTotals averages the self time of miss jobs' lifecycle spans.
type timelineTotals struct {
	jobs float64
	ms   map[string]float64
}

// timelineBucket maps a span name to the metric its self time counts in.
func timelineBucket(name string) string {
	switch {
	case name == "queue-wait":
		return "timeline.queue_wait_ms"
	case name == "checkpoint-probe":
		return "timeline.checkpoint_probe_ms"
	case name == "checkpoint-restore":
		return "timeline.checkpoint_restore_ms"
	case name == "checkpoint-save":
		return "timeline.checkpoint_save_ms"
	case name == "store-write":
		return "timeline.store_write_ms"
	case name == "measure", name == "warmup", name == "build-program", strings.HasPrefix(name, "kernel-"):
		return "timeline.simulate_ms"
	}
	return ""
}

func (t *timelineTotals) add(roots []*obs.SpanJSON) {
	if t.ms == nil {
		t.ms = map[string]float64{}
	}
	t.jobs++
	var walk func(s *obs.SpanJSON)
	walk = func(s *obs.SpanJSON) {
		self := s.DurUS
		for _, c := range s.Children {
			self -= c.DurUS
			walk(c)
		}
		if b := timelineBucket(s.Name); b != "" {
			t.ms[b] += float64(self) / 1e3
		}
	}
	for _, r := range roots {
		walk(r)
	}
}

func (t *timelineTotals) report(m map[string]float64) {
	for _, d := range simdLayerDefs {
		if strings.HasPrefix(d.name, "timeline.") {
			m[d.name] = ratio(t.ms[d.name], t.jobs)
		}
	}
}

func getText(ctx context.Context, url string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}

func getJSON(ctx context.Context, url string, out any) error {
	text, err := getText(ctx, url)
	if err != nil {
		return err
	}
	return json.Unmarshal([]byte(text), out)
}
