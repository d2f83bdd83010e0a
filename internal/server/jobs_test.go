package server

import (
	"sync"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/server/api"
	"repro/internal/simstore"
)

func newTestQueue(t *testing.T, workers int, ttl time.Duration, maxJobs int) *Queue {
	t.Helper()
	store, err := simstore.Open(t.TempDir(), simstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(store, workers, ttl, maxJobs, nil)
	t.Cleanup(q.Close)
	return q
}

// finishSyntheticRun drives one job through the real lifecycle (queued →
// running → done) without simulating, so retention behavior can be soaked
// at memory speed.
func finishSyntheticRun(q *Queue) *Job {
	q.mu.Lock()
	j := q.newJobLocked("run")
	q.mu.Unlock()
	q.begin(j)
	q.finishRun(j, gpu.RunStats{Cycles: 1}, nil)
	return j
}

// TestJobRetentionBoundedUnderSoak is the unit-level soak for the finished-
// job leak: 10k sequential submissions must never grow the job map past the
// retention cap, while in-flight and subscribed jobs always survive.
func TestJobRetentionBoundedUnderSoak(t *testing.T) {
	const maxJobs = 100
	q := newTestQueue(t, 1, time.Hour, maxJobs)

	// One in-flight job and one terminal-but-subscribed job must survive
	// any amount of churn.
	q.mu.Lock()
	inflight := q.newJobLocked("run")
	q.mu.Unlock()
	q.begin(inflight)

	subscribed := finishSyntheticRun(q)
	_, unsub, ok := q.Subscribe(subscribed.ID)
	if !ok {
		t.Fatal("subscribe to finished job failed")
	}

	for i := 0; i < 10_000; i++ {
		finishSyntheticRun(q)
		if n := q.JobCount(); n > maxJobs+1 {
			// +1: the cap is enforced on creation, so the map may briefly
			// hold maxJobs plus the job being created.
			t.Fatalf("after %d submissions the job map holds %d jobs, want <= %d", i+1, n, maxJobs+1)
		}
	}
	if n := q.JobCount(); n > maxJobs {
		t.Errorf("job map holds %d jobs after soak, want <= %d", n, maxJobs)
	}
	if got := q.Stats().Evicted; got == 0 {
		t.Error("no jobs were evicted during the soak")
	}

	if _, ok := q.Job(inflight.ID); !ok {
		t.Error("in-flight job was evicted by retention")
	}
	if _, ok := q.Job(subscribed.ID); !ok {
		t.Error("subscribed terminal job was evicted by retention")
	}

	// Once unsubscribed the terminal job becomes collectible.
	unsub()
	q.mu.Lock()
	q.gcLocked(time.Now())
	q.mu.Unlock()
	if _, ok := q.Job(subscribed.ID); ok && q.JobCount() > maxJobs {
		t.Error("unsubscribed terminal job survived GC over the cap")
	}
	q.finishRun(inflight, gpu.RunStats{}, nil) // let Close drain cleanly
}

// TestJobRetentionTTL: terminal jobs older than the TTL are evicted even
// when the count cap is far away.
func TestJobRetentionTTL(t *testing.T) {
	q := newTestQueue(t, 1, 50*time.Millisecond, 0)
	j := finishSyntheticRun(q)
	if _, ok := q.Job(j.ID); !ok {
		t.Fatal("finished job not queryable")
	}
	q.mu.Lock()
	q.gcLocked(time.Now().Add(100 * time.Millisecond))
	q.mu.Unlock()
	if _, ok := q.Job(j.ID); ok {
		t.Error("terminal job survived past its TTL")
	}
	if got := q.Stats().Evicted; got != 1 {
		t.Errorf("evicted = %d, want 1", got)
	}
	// Eviction forgets the ID only — waiters holding the *Job still read a
	// coherent terminal status.
	if st := q.Status(j); st.Status != api.StatusDone {
		t.Errorf("evicted job status by pointer = %q, want done", st.Status)
	}
}

// TestSubscribeAfterEviction: a GC'd (or never-existing) job ID yields
// ok=false, never a dangling channel.
func TestSubscribeAfterEviction(t *testing.T) {
	q := newTestQueue(t, 1, time.Millisecond, 0)
	j := finishSyntheticRun(q)
	q.mu.Lock()
	q.gcLocked(time.Now().Add(time.Second))
	q.mu.Unlock()
	if ch, _, ok := q.Subscribe(j.ID); ok || ch != nil {
		t.Error("Subscribe on an evicted job returned a channel")
	}
	if ch, _, ok := q.Subscribe("j999999"); ok || ch != nil {
		t.Error("Subscribe on an unknown job returned a channel")
	}
}

// TestCloseClosesSubscribersExactlyOnce races Close against churning
// subscribers (run with -race): every subscriber channel must be closed
// exactly once (readers observe the close and exit), unsubscribes must not
// double-close, and Subscribe after Close must refuse.
func TestCloseClosesSubscribersExactlyOnce(t *testing.T) {
	store, err := simstore.Open(t.TempDir(), simstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(store, 1, 0, 0, nil)

	jobs := make([]*Job, 8)
	for i := range jobs {
		jobs[i] = finishSyntheticRun(q)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ch, unsub, ok := q.Subscribe(jobs[i%len(jobs)].ID)
				if !ok {
					return // queue closed
				}
				// Drain until the channel is closed (shutdown) or empties.
				for {
					ev, open := <-ch
					if !open {
						return // closed exactly once by Close; reader exits
					}
					if ev.Type == "status" {
						break
					}
				}
				if i%2 == 0 {
					unsub()
					unsub() // idempotent
				}
			}
		}(i)
	}

	time.Sleep(10 * time.Millisecond)
	q.Close()
	q.Close() // idempotent
	close(stop)
	wg.Wait()

	if _, _, ok := q.Subscribe(jobs[0].ID); ok {
		t.Error("Subscribe after Close succeeded")
	}
}
