package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/server/api"
)

// Pool is an ordered failover list over the members of a simd cluster. It
// does no placement of its own: any member can answer any request — the
// server routes each run to its rendezvous owner, probes replicas and
// forwards — so a call goes to the first member in the order, and only a
// member that fails it (a transport error or a 5xx) is skipped. That member
// moves to the back of the order, so later calls try it last. A 4xx is the
// daemon rejecting the request itself, which every member would do alike,
// so it is returned at once.
//
// Check orders the seeds by reachability and adopts the cluster's live
// members once from GET /v1/cluster/membership; there is no background
// refresh. A Pool over a single member behaves like a bare Client.
type Pool struct {
	mu    sync.Mutex
	order []*Client
}

// NewPool builds a pool over the given member base URLs (at least one),
// normalized and deduplicated, in the given order.
func NewPool(seeds []string) (*Pool, error) {
	p := &Pool{}
	for _, s := range seeds {
		p.order = appendNew(p.order, cluster.Normalize(s))
	}
	if len(p.order) == 0 {
		return nil, fmt.Errorf("client: pool needs at least one peer")
	}
	return p, nil
}

// appendNew appends a client for addr unless addr is empty or already
// listed.
func appendNew(order []*Client, addr string) []*Client {
	if addr == "" {
		return order
	}
	for _, c := range order {
		if c.BaseURL == addr {
			return order
		}
	}
	return append(order, New(addr))
}

// Peers returns the member base URLs in their current try order.
func (p *Pool) Peers() []string {
	var peers []string
	for _, c := range p.snapshot() {
		peers = append(peers, c.BaseURL)
	}
	return peers
}

func (p *Pool) snapshot() []*Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Client(nil), p.order...)
}

// Check probes every member's /healthz (2 seconds each) and reorders the
// pool reachable-first, returning an error if none answers. The first
// reachable member is then asked once for the cluster's membership view:
// its alive and suspect members join the order behind the reachable ones,
// and unreachable members it calls dead or left are dropped. A view with
// no routable member, or a failed fetch, leaves the order as probed.
func (p *Pool) Check(ctx context.Context) error {
	var up, down []*Client
	var lastErr error
	for _, c := range p.snapshot() {
		pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		_, err := c.Health(pctx)
		cancel()
		if err != nil {
			down, lastErr = append(down, c), err
			continue
		}
		up = append(up, c)
	}
	if len(up) == 0 {
		return fmt.Errorf("client: no reachable peer among %v: %w", p.Peers(), lastErr)
	}

	vctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	var view api.MembershipView
	verr := up[0].do(vctx, http.MethodGet, "/v1/cluster/membership", nil, &view, nil)
	cancel()
	var live []string
	gone := map[string]bool{}
	for _, m := range view.Members {
		if m.Status == "dead" || m.Status == "left" {
			gone[cluster.Normalize(m.Addr)] = true
		} else {
			live = append(live, cluster.Normalize(m.Addr))
		}
	}
	if verr != nil || len(live) == 0 {
		live, gone = nil, nil // nothing routable: keep the probed order
	}
	order := up
	for _, addr := range live {
		order = appendNew(order, addr)
	}
	for _, c := range down {
		if !gone[c.BaseURL] {
			order = append(order, c)
		}
	}
	p.mu.Lock()
	p.order = order
	p.mu.Unlock()
	return nil
}

// tryPeers is the one failover walk: attempt each member in the current
// order until one succeeds. A retriable failure moves that member to the
// back of the order and goes on; a 4xx answer or a cancelled context
// returns at once. label names the work in the every-member-failed error.
func (p *Pool) tryPeers(ctx context.Context, label string, attempt func(*Client) error) error {
	var lastErr error
	for _, c := range p.snapshot() {
		err := attempt(c)
		if err == nil {
			return nil
		}
		if !retriable(err) || ctx.Err() != nil {
			return err
		}
		p.demote(c)
		lastErr = err
	}
	return fmt.Errorf("client: %s: every peer failed: %w", label, lastErr)
}

// demote moves c to the back of the order.
func (p *Pool) demote(c *Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, o := range p.order {
		if o == c {
			p.order = append(append(p.order[:i:i], p.order[i+1:]...), c)
			return
		}
	}
}

// retriable reports whether err might succeed on a different member:
// transport failures and 5xx answers (overload, internal errors —
// peer-specific conditions) are worth failing over; a 4xx is the daemon
// rejecting the request itself, which every member would reject alike.
func retriable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500
	}
	return true
}

// Runs submits a batch to the first member that answers it; wait is passed
// through (see Client.Runs). Re-sending a batch to another member after a
// failure is safe: runs are deterministic, so a duplicate execution yields
// the byte-identical result.
func (p *Pool) Runs(ctx context.Context, req api.RunRequest, wait bool) (*api.RunResponse, error) {
	var resp *api.RunResponse
	err := p.tryPeers(ctx, fmt.Sprintf("%d spec(s)", len(req.Specs)), func(c *Client) (err error) {
		resp, err = c.Runs(ctx, req, wait)
		return err
	})
	return resp, err
}

// Figure regenerates a figure on the first member that answers (see
// Client.Figure).
func (p *Pool) Figure(ctx context.Context, key string, opt api.FigureOptions) (*api.FigureResponse, error) {
	var resp *api.FigureResponse
	err := p.tryPeers(ctx, "figure "+key, func(c *Client) (err error) {
		resp, err = c.Figure(ctx, key, opt)
		return err
	})
	return resp, err
}

// FigureStream generates a figure with live progress: the job runs
// asynchronously on the first member that accepts it and its SSE event
// stream drives onProgress (may be nil); a dropped stream degrades to
// polling the same job, and a dead member fails over to the next one.
// Returns the terminal job status and the member that served it.
func (p *Pool) FigureStream(ctx context.Context, key string, opt api.FigureOptions, onProgress func(*api.Progress)) (*api.JobStatus, string, error) {
	var st *api.JobStatus
	var served string
	err := p.tryPeers(ctx, "figure "+key, func(c *Client) (err error) {
		st, err = figureStreamOn(ctx, c, key, opt, onProgress)
		served = c.BaseURL
		return err
	})
	if err != nil {
		return nil, "", err
	}
	return st, served, nil
}

// figureStreamOn runs one async figure job on one daemon, consuming its SSE
// stream for progress; if the stream drops mid-job it polls the job status
// instead of failing (the job keeps running on the daemon either way).
func figureStreamOn(ctx context.Context, c *Client, key string, opt api.FigureOptions, onProgress func(*api.Progress)) (*api.JobStatus, error) {
	id, err := c.FigureAsync(ctx, key, opt)
	if err != nil {
		return nil, err
	}
	var final *api.JobStatus
	streamErr := c.JobEvents(ctx, id, func(ev api.Event) bool {
		switch ev.Type {
		case "progress":
			if onProgress != nil && ev.Progress != nil {
				onProgress(ev.Progress)
			}
		case "status":
			if ev.Job != nil && api.IsTerminal(ev.Job.Status) {
				final = ev.Job
				return false
			}
		}
		return true
	})
	if final != nil {
		return final, nil
	}
	st, pollErr := c.WaitJob(ctx, id, 500*time.Millisecond)
	if pollErr != nil {
		if streamErr != nil {
			return nil, fmt.Errorf("%w (stream also failed: %v)", pollErr, streamErr)
		}
		return nil, pollErr
	}
	return st, nil
}
