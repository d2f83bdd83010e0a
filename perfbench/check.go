package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/scenario"
	"repro/internal/server/api"
	"repro/internal/sweep"
)

// defaultSeed is the seed golden.json was recorded at.
const defaultSeed = 1

//go:embed golden.json
var goldenJSON []byte

// goldenDigests maps "<workload>/<run key>" to the SHA-256 of the run's
// canonical stats (scenario.StatsJSON) at defaultSeed.
func goldenDigests() (map[string]string, error) {
	g := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func decodeStats(b []byte) (gpu.RunStats, error) {
	var s gpu.RunStats
	err := json.Unmarshal(b, &s)
	return s, err
}

func digest(s gpu.RunStats) string {
	sum := sha256.Sum256(scenario.StatsJSON(s))
	return hex.EncodeToString(sum[:])
}

// checkSimRun is the correctness gate for one sweep run: the stat
// invariants hold for any seed; at defaultSeed the stats must match their
// golden digest; and sim-lockstep's adaptive runs must have switched mode,
// or the adaptive controller was never exercised.
func checkSimRun(wl string, seed int64, spec sweep.RunSpec, s gpu.RunStats, golden map[string]string) []string {
	var v []string
	for _, msg := range scenario.Invariants(spec, s) {
		v = append(v, spec.Key+": "+msg)
	}
	if seed == defaultSeed {
		want, ok := golden[wl+"/"+spec.Key]
		switch {
		case !ok:
			v = append(v, spec.Key+": no golden digest")
		case digest(s) != want:
			v = append(v, spec.Key+": stats differ from the golden digest")
		}
	}
	if wl == "sim-lockstep" && spec.Config.LLCMode == config.LLCAdaptive {
		if s.Controller == nil || s.Controller.SwitchesToPrivate+s.Controller.SwitchesToShared == 0 {
			v = append(v, spec.Key+": adaptive controller never switched")
		}
	}
	return v
}

// checkResponse is the correctness gate for one simd answer: it must be a
// finished run, flagged Cached exactly when the spec was served before, with
// stats byte-identical to the first answer for the spec (ref; nil when this
// is the first) and satisfying the stat invariants.
func checkResponse(spec sweep.RunSpec, res api.RunResult, wantCached bool, ref []byte) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, spec.Key+": "+fmt.Sprintf(format, args...)) }
	if res.Status != api.StatusDone || res.Error != "" || res.Stats == nil {
		fail("status %q, error %q", res.Status, res.Error)
		return v
	}
	if res.Cached != wantCached {
		fail("cached = %v, want %v", res.Cached, wantCached)
	}
	if ref != nil && string(scenario.StatsJSON(*res.Stats)) != string(ref) {
		fail("stats differ from the first answer for the spec")
	}
	for _, msg := range scenario.Invariants(spec, *res.Stats) {
		fail("%s", msg)
	}
	return v
}

// updateGolden records golden.json: every sim workload's sweep at
// defaultSeed. Run from the repository root:
//
//	go -C perfbench run . --update-golden
func updateGolden() error {
	g := map[string]string{}
	for name := range simApps {
		specs, err := simSpecs(name, defaultSeed)
		if err != nil {
			return err
		}
		results, err := (&sweep.Runner{Workers: loadWorkers()}).Run(context.Background(), specs)
		if err != nil {
			return err
		}
		for _, r := range results {
			g[name+"/"+r.Key] = digest(r.Stats)
		}
	}
	out, err := json.MarshalIndent(g, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile("golden.json", append(out, '\n'), 0o644)
}
