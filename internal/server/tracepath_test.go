package server

import (
	"context"
	"errors"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server/api"
	"repro/internal/server/client"
)

// postTracePath POSTs a spec replaying path and returns the daemon's
// status error, failing the test unless the answer is a prompt 400: a
// trace the daemon cannot fingerprint is the caller's mistake, and a 5xx
// would send every failover walk on to the next member to fail again.
func postTracePath(t *testing.T, c *client.Client, path string) *client.StatusError {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	_, err := c.Runs(ctx, api.RunRequest{Specs: []api.Spec{
		tinySpec("good", 1),
		{Key: "trace", TracePath: path, MeasureCycles: 1000},
	}}, false)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("answer took %v, want under 1s", elapsed)
	}
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("trace_path %s: err = %v, want HTTP 400", path, err)
	}
	if !strings.Contains(se.Msg, "spec 1") {
		t.Errorf("error %q does not name the bad spec", se.Msg)
	}
	return se
}

func TestMissingTracePathIs400(t *testing.T) {
	srv, c := newTestServer(t, 1)
	postTracePath(t, c, filepath.Join(t.TempDir(), "no-such.trace"))
	if qs := srv.queue.Stats(); qs.Queued != 0 || qs.Running != 0 || qs.Executed != 0 {
		t.Errorf("rejected batch left work behind: %+v", qs)
	}
}
