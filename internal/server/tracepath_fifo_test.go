//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package server

import (
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestFIFOTracePathIsPrompt4xx: a trace_path naming a FIFO must be refused
// without opening it — opening a FIFO for reading blocks until a writer
// appears, which would pin the handler goroutine indefinitely.
func TestFIFOTracePathIsPrompt4xx(t *testing.T) {
	_, c := newTestServer(t, 1)
	fifo := filepath.Join(t.TempDir(), "trace.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	// Runs before the server shuts down: if a handler is stuck opening the
	// FIFO, connecting a writer releases it so the failure is reported
	// instead of hanging the test binary.
	t.Cleanup(func() {
		if w, err := os.OpenFile(fifo, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
			w.Close()
		}
	})
	se := postTracePath(t, c, fifo)
	if !strings.Contains(se.Msg, "not a regular file") {
		t.Errorf("error %q does not say why the trace was refused", se.Msg)
	}
}
