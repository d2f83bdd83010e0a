package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server/api"
)

// TestWaitJobCancelMidPoll: cancelling the context between polls must stop
// the poll loop promptly with the context's error, not hang or return a
// bogus status.
func TestWaitJobCancelMidPoll(t *testing.T) {
	var polls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) == 2 {
			// Cancel while the client is mid-loop; the job never finishes.
			cancel()
		}
		json.NewEncoder(w).Encode(api.JobStatus{ID: "j000001", Kind: "run", Status: api.StatusRunning})
	}))
	defer hs.Close()

	done := make(chan struct{})
	var st *api.JobStatus
	var err error
	go func() {
		defer close(done)
		st, err = New(hs.URL).WaitJob(ctx, "j000001", 5*time.Millisecond)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitJob did not return after its context was cancelled")
	}
	if st != nil {
		t.Errorf("cancelled WaitJob returned a status: %+v", st)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled WaitJob error = %v, want context.Canceled", err)
	}
	if polls.Load() < 2 {
		t.Errorf("server saw %d polls, want at least 2", polls.Load())
	}
}

func TestStatusErrorClassification(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(api.Error{Error: "no job"})
	}))
	defer hs.Close()
	_, err := New(hs.URL).Job(context.Background(), "j1")
	if !IsStatusError(err) {
		t.Errorf("daemon-answered 404 not classified as StatusError: %v", err)
	}
	hs.Close()
	_, err = New(hs.URL).Job(context.Background(), "j1")
	if err == nil || IsStatusError(err) {
		t.Errorf("transport failure classified as StatusError: %v", err)
	}
}

// fakeDaemon is a minimal simd stand-in for pool routing tests: it answers
// /healthz and records every spec POSTed to /v1/runs.
func fakeDaemon(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var runs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Health{Status: "ok"})
	})
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		var req api.RunRequest
		json.NewDecoder(r.Body).Decode(&req)
		resp := api.RunResponse{Results: make([]api.RunResult, len(req.Specs))}
		for i, s := range req.Specs {
			runs.Add(1)
			resp.Results[i] = api.RunResult{Key: s.Key, Status: api.StatusDone}
		}
		json.NewEncoder(w).Encode(resp)
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs, &runs
}

// TestPoolFailsOverInOrder: calls go to the first member while it answers;
// once it dies the next member answers, and the dead one moves to the back
// of the order so later calls try it last.
func TestPoolFailsOverInOrder(t *testing.T) {
	a, runsA := fakeDaemon(t)
	b, runsB := fakeDaemon(t)
	pool, err := NewPool([]string{a.URL, b.URL})
	if err != nil {
		t.Fatal(err)
	}
	req := api.RunRequest{Specs: []api.Spec{{Key: "r", Benchmarks: []string{"VA"}, MeasureCycles: 3000, Seed: 1}}}
	if _, err := pool.Runs(context.Background(), req, true); err != nil {
		t.Fatal(err)
	}
	if runsA.Load() != 1 || runsB.Load() != 0 {
		t.Errorf("first member ran %d specs, second %d; want 1/0", runsA.Load(), runsB.Load())
	}

	// Several callers at once all fail over; the order stays consistent.
	a.Close()
	const callers = 4
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.Runs(context.Background(), req, true); err != nil {
				t.Errorf("failover request failed: %v", err)
			}
		}()
	}
	wg.Wait()
	if runsB.Load() != callers {
		t.Errorf("after the first member died the second ran %d specs, want %d", runsB.Load(), callers)
	}
	want := []string{cluster.Normalize(b.URL), cluster.Normalize(a.URL)}
	if got := pool.Peers(); !reflect.DeepEqual(got, want) {
		t.Errorf("order after failover = %v, want %v (dead member last)", got, want)
	}
}

// TestPoolReturns4xxAtOnce: a member rejecting the request itself is an
// answer, not a failure — the pool must not re-ask the next member.
func TestPoolReturns4xxAtOnce(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(api.Error{Error: "bad spec"})
	}))
	t.Cleanup(bad.Close)
	good, runs := fakeDaemon(t)
	pool, err := NewPool([]string{bad.URL, good.URL})
	if err != nil {
		t.Fatal(err)
	}
	_, err = pool.Runs(context.Background(), api.RunRequest{Specs: []api.Spec{{Key: "r", Benchmarks: []string{"VA"}}}}, false)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("error = %v, want the member's 400", err)
	}
	if runs.Load() != 0 {
		t.Errorf("second member ran %d specs after a 400, want 0", runs.Load())
	}
	if got := pool.Peers()[0]; got != cluster.Normalize(bad.URL) {
		t.Errorf("a 400 demoted its member: order starts with %s", got)
	}
}

// TestPoolMembershipRefresh: Check adopts the cluster's member list once
// from GET /v1/cluster/membership on the first reachable seed — alive and
// suspect members are added, dead and left ones are dropped — and a later
// view with nothing routable changes nothing.
func TestPoolMembershipRefresh(t *testing.T) {
	a, _ := fakeDaemon(t)
	b, _ := fakeDaemon(t)
	const deadSeed = "http://127.0.0.1:1"
	var view atomic.Pointer[api.MembershipView]
	view.Store(&api.MembershipView{
		Epoch: 7,
		Members: []api.MemberEntry{
			{Addr: cluster.Normalize(a.URL), Self: true, Status: "alive"},
			{Addr: cluster.Normalize(b.URL), Status: "suspect"},
			{Addr: deadSeed, Status: "dead"},
			{Addr: "http://127.0.0.1:2", Status: "left"},
		},
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Health{Status: "ok"})
	})
	mux.HandleFunc("GET /v1/cluster/membership", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(view.Load())
	})
	seed := httptest.NewServer(mux)
	t.Cleanup(seed.Close)

	pool, err := NewPool([]string{deadSeed, seed.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Check(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{cluster.Normalize(seed.URL), cluster.Normalize(a.URL), cluster.Normalize(b.URL)}
	if got := pool.Peers(); !reflect.DeepEqual(got, want) {
		t.Errorf("pool peers after Check = %v, want %v (reachable seed, then alive + suspect only)", got, want)
	}

	// A later view with nothing routable must not wipe the pool.
	view.Store(&api.MembershipView{Epoch: 8, Members: []api.MemberEntry{{Addr: "http://127.0.0.1:3", Status: "dead"}}})
	if err := pool.Check(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := pool.Peers(); !reflect.DeepEqual(got, want) {
		t.Errorf("pool peers after an unroutable view = %v, want the previous %v", got, want)
	}
}
