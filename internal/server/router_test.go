package server

import (
	"testing"

	"repro/internal/simstore"
)

// FuzzDecodeRunRequest feeds arbitrary bytes through the decode stage of
// POST /v1/runs and fingerprints every spec it accepts: bad input must come
// back as an error, never a panic. Trace paths are cleared before
// fingerprinting, since a trace spec's fingerprint digests a file on the
// daemon's disk rather than anything in the request.
func FuzzDecodeRunRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		wire, specs, err := decodeRunRequest(body)
		if err != nil {
			return
		}
		if len(specs) == 0 || len(wire) != len(specs) {
			t.Fatalf("decoded %d wire specs into %d run specs", len(wire), len(specs))
		}
		for _, spec := range specs {
			spec.TracePath = ""
			if _, err := simstore.Fingerprint(spec); err != nil {
				t.Errorf("accepted spec does not fingerprint: %v", err)
			}
		}
	})
}
