package gpu

import "sync/atomic"

// cyclesSimulated is a process-wide count of simulated cycles, advanced by
// one atomic add per loopUntil call so the cycle loop's instrumentation cost
// is fixed and allocation-free. Readers (the simd /metrics endpoint) sample
// it outside the hot path; it never feeds RunStats, which stay byte-
// identical with telemetry enabled (the determinism contract).
//
// The counter is package-level rather than per-GPU on purpose: a server
// process runs many short-lived GPU instances concurrently, and aggregate
// cycles/sec throughput is a per-process signal.
var cyclesSimulated atomic.Uint64

// CyclesSimulated reports the simulated cycles advanced by every GPU in the
// process since it started.
func CyclesSimulated() uint64 { return cyclesSimulated.Load() }
