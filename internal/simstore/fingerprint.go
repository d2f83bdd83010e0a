// Package simstore provides content-addressed caching of simulation results.
//
// The simulator is deterministic: equal sweep.RunSpec values always produce
// identical gpu.RunStats (the trace-replay golden tests and the sweep
// engine's parallel-vs-serial identity test prove it). That turns every
// completed run into a reusable artifact: fingerprint the spec, store the
// statistics under the fingerprint, and any future request for the same run
// is a cache hit that skips the simulation entirely.
//
// Two pieces implement this. Fingerprint maps a RunSpec to a stable 32-byte
// digest over a canonical encoding — insensitive to field ordering,
// unset-vs-default spelling, and run naming, but sensitive to everything
// that can change the simulated statistics (including the *content* of a
// replayed trace file, and a simulator version salt; see DESIGN.md for the
// invalidation rule). Store is an on-disk, LRU-bounded, corruption-tolerant
// map from fingerprint to a versioned JSON result record with atomic writes.
package simstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strconv"

	"repro/internal/sweep"
)

// SchemaVersion versions the canonical fingerprint encoding itself. Bump it
// when the encoding below changes shape (it is mixed into every digest, so a
// bump invalidates all stored results).
const SchemaVersion = 1

// SimVersion is the simulator behaviour salt mixed into every fingerprint.
//
// Invalidation rule: bump this string whenever a change anywhere in the
// simulator alters the statistics produced for some RunSpec — the same class
// of change that requires regenerating the golden trace statistics under
// internal/trace/testdata. Results cached under the old salt then simply
// stop being found, rather than being served stale. Pure refactors,
// performance work and new opt-in features keep the salt (and the golden
// stats) unchanged.
const SimVersion = "repro-sim/1"

// Fingerprint returns the content address of a run: a SHA-256 digest of the
// spec's canonical encoding. Specs that provably produce identical RunStats
// map to the same fingerprint:
//
//   - sweep.RunSpec.Canonical() first erases run naming (Key), side-effect
//     fields (RecordPath) and unset-vs-default differences;
//   - struct fields are encoded name-tagged and name-sorted, so declaration
//     order and added-later zero-valued fields do not shift the digest;
//   - a replayed trace contributes its file *content* digest, not its path,
//     so renaming a trace file preserves hits and editing one changes them.
//
// The error is non-nil only when a trace file named by the spec cannot be
// read or is not a regular file. Fingerprints are stable across processes
// and platforms; golden values are pinned in testdata/fingerprints.golden.
func Fingerprint(spec sweep.RunSpec) ([32]byte, error) {
	c := spec.Canonical()
	if c.TracePath != "" {
		sum, err := fileDigest(c.TracePath)
		if err != nil {
			return [32]byte{}, fmt.Errorf("simstore: fingerprint trace content: %w", err)
		}
		c.TracePath = "sha256:" + hex.EncodeToString(sum)
	}
	h := sha256.New()
	fmt.Fprintf(h, "simstore/%d|%s|", SchemaVersion, SimVersion)
	writeCanonical(h, reflect.ValueOf(c))
	var fp [32]byte
	h.Sum(fp[:0])
	return fp, nil
}

// Hex returns the lower-case hex form of a fingerprint (the form used as a
// store filename and in the HTTP API).
func Hex(fp [32]byte) string { return hex.EncodeToString(fp[:]) }

// fileDigest hashes a regular file's content. Anything else is refused
// before it is read: opening a FIFO blocks until a writer appears, and a
// device can stream forever. The mode is checked before the open and again
// on the opened file, in case the path was swapped in between.
func fileDigest(path string) ([]byte, error) {
	if err := regularFile(os.Stat(path)); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := regularFile(f.Stat()); err != nil {
		return nil, err
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	return h.Sum(nil), nil
}

func regularFile(fi os.FileInfo, err error) error {
	if err != nil {
		return err
	}
	if !fi.Mode().IsRegular() {
		return fmt.Errorf("%s: not a regular file (mode %s)", fi.Name(), fi.Mode().Type())
	}
	return nil
}

// writeCanonical streams a deterministic, self-delimiting encoding of v.
// Struct fields are written sorted by name and zero-valued fields are
// skipped, which is what makes the digest independent of field order and of
// whether a default was left unset or spelled out. The supported kinds are
// exactly those reachable from sweep.RunSpec; anything else is a programming
// error caught by the panic (and by the golden fingerprint test the moment
// such a field is added).
func writeCanonical(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		names := make([]string, 0, t.NumField())
		byName := make(map[string]reflect.Value, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fv := v.Field(i)
			if fv.IsZero() {
				continue
			}
			names = append(names, f.Name)
			byName[f.Name] = fv
		}
		sort.Strings(names)
		io.WriteString(w, "{")
		for _, n := range names {
			io.WriteString(w, n)
			io.WriteString(w, "=")
			writeCanonical(w, byName[n])
			io.WriteString(w, ";")
		}
		io.WriteString(w, "}")
	case reflect.Slice, reflect.Array:
		io.WriteString(w, "[")
		for i := 0; i < v.Len(); i++ {
			writeCanonical(w, v.Index(i))
			io.WriteString(w, ",")
		}
		io.WriteString(w, "]")
	case reflect.String:
		io.WriteString(w, strconv.Quote(v.String()))
	case reflect.Bool:
		io.WriteString(w, strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		io.WriteString(w, strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		io.WriteString(w, strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		io.WriteString(w, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	default:
		panic(fmt.Sprintf("simstore: unsupported kind %s in canonical encoding", v.Kind()))
	}
}
