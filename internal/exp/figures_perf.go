package exp

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The figures in this file follow the harness's declarative pattern: declare
// every independent run as a sweep.RunSpec, execute the batch through
// Options.runAll (on the Options.Exec executor), then collect rows from
// the keyed statistics in catalog order.

// ---------------------------------------------------------------------------
// Figure 2 — shared vs. private LLC, per workload class
// ---------------------------------------------------------------------------

// Figure2Row is the normalized performance of one benchmark under a private
// LLC relative to the shared-LLC baseline (paper Figure 2).
type Figure2Row struct {
	Abbr              string
	Class             workload.Class
	SharedIPC         float64
	PrivateIPC        float64
	NormalizedPrivate float64
}

// Figure2Result aggregates all benchmarks plus per-class harmonic means.
type Figure2Result struct {
	Rows    []Figure2Row
	ClassHM map[workload.Class]float64
	Options Options
}

// Figure2 runs every benchmark under a shared and a private LLC.
func Figure2(o Options) (*Figure2Result, error) {
	var specs []sweep.RunSpec
	for _, w := range workload.Catalog() {
		specs = append(specs,
			o.modeSpec(w, config.LLCShared),
			o.modeSpec(w, config.LLCPrivate))
	}
	stats, err := o.runAll(specs)
	if err != nil {
		return nil, fmt.Errorf("figure2: %w", err)
	}

	res := &Figure2Result{ClassHM: map[workload.Class]float64{}, Options: o}
	perClass := map[workload.Class][]float64{}
	for _, w := range workload.Catalog() {
		shared := stats[modeKey(w.Abbr, config.LLCShared)]
		private := stats[modeKey(w.Abbr, config.LLCPrivate)]
		row := Figure2Row{
			Abbr:              w.Abbr,
			Class:             w.Class,
			SharedIPC:         shared.IPC,
			PrivateIPC:        private.IPC,
			NormalizedPrivate: norm(private.IPC, shared.IPC),
		}
		res.Rows = append(res.Rows, row)
		perClass[w.Class] = append(perClass[w.Class], row.NormalizedPrivate)
	}
	for c, vals := range perClass {
		res.ClassHM[c] = hmean(vals)
	}
	return res, nil
}

// Format renders the figure as a table.
func (r *Figure2Result) Format() string {
	header := []string{"benchmark", "class", "shared IPC", "private IPC", "private norm."}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Abbr, row.Class.String(),
			fmt.Sprintf("%.1f", row.SharedIPC),
			fmt.Sprintf("%.1f", row.PrivateIPC),
			fmt.Sprintf("%.3f", row.NormalizedPrivate),
		})
	}
	out := "Figure 2: normalized performance of a private vs. shared LLC\n" + formatTable(header, rows)
	for _, c := range []workload.Class{workload.SharedFriendly, workload.PrivateFriendly, workload.Neutral} {
		out += fmt.Sprintf("HM (%s): %.3f\n", c, r.ClassHM[c])
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 3 — inter-cluster locality
// ---------------------------------------------------------------------------

// Figure3Row is the per-benchmark sharing histogram measured on the shared
// LLC in 1,000-cycle windows (paper Figure 3).
type Figure3Row struct {
	Abbr      string
	Class     workload.Class
	Histogram [4]float64 // 1 / 2 / 3-4 / 5-8 clusters
}

// Figure3Result holds all rows plus per-class averages of the multi-cluster
// fraction.
type Figure3Result struct {
	Rows                []Figure3Row
	MultiClusterByClass map[workload.Class]float64
	Options             Options
}

// Figure3 measures inter-cluster locality under a shared LLC.
func Figure3(o Options) (*Figure3Result, error) {
	var specs []sweep.RunSpec
	for _, w := range workload.Catalog() {
		specs = append(specs, o.modeSpec(w, config.LLCShared))
	}
	stats, err := o.runAll(specs)
	if err != nil {
		return nil, fmt.Errorf("figure3: %w", err)
	}

	res := &Figure3Result{MultiClusterByClass: map[workload.Class]float64{}, Options: o}
	sums := map[workload.Class]float64{}
	counts := map[workload.Class]int{}
	for _, w := range workload.Catalog() {
		rs := stats[modeKey(w.Abbr, config.LLCShared)]
		row := Figure3Row{Abbr: w.Abbr, Class: w.Class, Histogram: rs.SharingHistogram}
		res.Rows = append(res.Rows, row)
		multi := row.Histogram[1] + row.Histogram[2] + row.Histogram[3]
		sums[w.Class] += multi
		counts[w.Class]++
	}
	for c, s := range sums {
		res.MultiClusterByClass[c] = s / float64(counts[c])
	}
	return res, nil
}

// Format renders the figure as a table.
func (r *Figure3Result) Format() string {
	header := []string{"benchmark", "class", "1 cluster", "2 clusters", "3-4 clusters", "5-8 clusters"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Abbr, row.Class.String(),
			fmt.Sprintf("%.2f", row.Histogram[0]),
			fmt.Sprintf("%.2f", row.Histogram[1]),
			fmt.Sprintf("%.2f", row.Histogram[2]),
			fmt.Sprintf("%.2f", row.Histogram[3]),
		})
	}
	out := "Figure 3: inter-cluster locality (fraction of LLC lines accessed by N clusters per 1,000 cycles)\n"
	out += formatTable(header, rows)
	for _, c := range []workload.Class{workload.SharedFriendly, workload.PrivateFriendly, workload.Neutral} {
		out += fmt.Sprintf("avg multi-cluster fraction (%s): %.2f\n", c, r.MultiClusterByClass[c])
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 11 — shared / private / adaptive performance
// ---------------------------------------------------------------------------

// allModes lists the three LLC organizations the performance figures sweep.
var allModes = []config.LLCMode{config.LLCShared, config.LLCPrivate, config.LLCAdaptive}

// Figure11Row is the per-benchmark IPC under the three LLC organizations,
// normalized to the shared LLC.
type Figure11Row struct {
	Abbr     string
	Class    workload.Class
	Shared   gpu.RunStats
	Private  gpu.RunStats
	Adaptive gpu.RunStats

	NormPrivate  float64
	NormAdaptive float64
}

// Figure11Result aggregates all benchmarks plus per-class harmonic means.
type Figure11Result struct {
	Rows    []Figure11Row
	HM      map[workload.Class]struct{ Private, Adaptive float64 }
	Options Options
}

// Figure11 runs every benchmark under shared, private and adaptive LLCs.
func Figure11(o Options) (*Figure11Result, error) {
	var specs []sweep.RunSpec
	for _, w := range workload.Catalog() {
		for _, mode := range allModes {
			specs = append(specs, o.modeSpec(w, mode))
		}
	}
	stats, err := o.runAll(specs)
	if err != nil {
		return nil, fmt.Errorf("figure11: %w", err)
	}

	res := &Figure11Result{HM: map[workload.Class]struct{ Private, Adaptive float64 }{}, Options: o}
	perClassPriv := map[workload.Class][]float64{}
	perClassAdap := map[workload.Class][]float64{}
	for _, w := range workload.Catalog() {
		shared := stats[modeKey(w.Abbr, config.LLCShared)]
		private := stats[modeKey(w.Abbr, config.LLCPrivate)]
		adaptive := stats[modeKey(w.Abbr, config.LLCAdaptive)]
		row := Figure11Row{
			Abbr: w.Abbr, Class: w.Class,
			Shared: shared, Private: private, Adaptive: adaptive,
			NormPrivate:  norm(private.IPC, shared.IPC),
			NormAdaptive: norm(adaptive.IPC, shared.IPC),
		}
		res.Rows = append(res.Rows, row)
		perClassPriv[w.Class] = append(perClassPriv[w.Class], row.NormPrivate)
		perClassAdap[w.Class] = append(perClassAdap[w.Class], row.NormAdaptive)
	}
	for c := range perClassPriv {
		res.HM[c] = struct{ Private, Adaptive float64 }{
			Private:  hmean(perClassPriv[c]),
			Adaptive: hmean(perClassAdap[c]),
		}
	}
	return res, nil
}

// Format renders the figure as a table.
func (r *Figure11Result) Format() string {
	header := []string{"benchmark", "class", "shared", "private", "adaptive", "final mode"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Abbr, row.Class.String(),
			"1.000",
			fmt.Sprintf("%.3f", row.NormPrivate),
			fmt.Sprintf("%.3f", row.NormAdaptive),
			row.Adaptive.FinalMode.String(),
		})
	}
	out := "Figure 11: normalized IPC for shared, private and adaptive memory-side LLCs\n"
	out += formatTable(header, rows)
	for _, c := range []workload.Class{workload.SharedFriendly, workload.PrivateFriendly, workload.Neutral} {
		hm := r.HM[c]
		out += fmt.Sprintf("HM (%s): private %.3f, adaptive %.3f\n", c, hm.Private, hm.Adaptive)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 12 — LLC response rate for private-cache-friendly workloads
// ---------------------------------------------------------------------------

// Figure12Row is the LLC response rate (reply flits per cycle) of one
// private-cache-friendly benchmark under the three organizations.
type Figure12Row struct {
	Abbr     string
	Shared   float64
	Private  float64
	Adaptive float64
}

// Figure12Result holds the rows plus harmonic means.
type Figure12Result struct {
	Rows    []Figure12Row
	HM      struct{ Shared, Private, Adaptive float64 }
	Options Options
}

// Figure12 measures the LLC response rate for the private-friendly class.
func Figure12(o Options) (*Figure12Result, error) {
	var specs []sweep.RunSpec
	for _, w := range workload.ByClass(workload.PrivateFriendly) {
		for _, mode := range allModes {
			specs = append(specs, o.modeSpec(w, mode))
		}
	}
	stats, err := o.runAll(specs)
	if err != nil {
		return nil, fmt.Errorf("figure12: %w", err)
	}

	res := &Figure12Result{Options: o}
	var sh, pr, ad []float64
	for _, w := range workload.ByClass(workload.PrivateFriendly) {
		shared := stats[modeKey(w.Abbr, config.LLCShared)]
		private := stats[modeKey(w.Abbr, config.LLCPrivate)]
		adaptive := stats[modeKey(w.Abbr, config.LLCAdaptive)]
		res.Rows = append(res.Rows, Figure12Row{
			Abbr: w.Abbr, Shared: shared.ResponseRate,
			Private: private.ResponseRate, Adaptive: adaptive.ResponseRate,
		})
		sh = append(sh, shared.ResponseRate)
		pr = append(pr, private.ResponseRate)
		ad = append(ad, adaptive.ResponseRate)
	}
	res.HM.Shared, res.HM.Private, res.HM.Adaptive = hmean(sh), hmean(pr), hmean(ad)
	return res, nil
}

// Format renders the figure as a table.
func (r *Figure12Result) Format() string {
	header := []string{"benchmark", "shared", "private", "adaptive"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Abbr,
			fmt.Sprintf("%.2f", row.Shared),
			fmt.Sprintf("%.2f", row.Private),
			fmt.Sprintf("%.2f", row.Adaptive),
		})
	}
	out := "Figure 12: LLC response rate (flits/cycle), private-cache-friendly workloads\n"
	out += formatTable(header, rows)
	out += fmt.Sprintf("HM: shared %.2f, private %.2f, adaptive %.2f\n", r.HM.Shared, r.HM.Private, r.HM.Adaptive)
	return out
}

// ---------------------------------------------------------------------------
// Figure 13 — LLC miss rate for shared-cache-friendly workloads
// ---------------------------------------------------------------------------

// Figure13Row is the LLC miss rate of one shared-cache-friendly benchmark
// under the three organizations.
type Figure13Row struct {
	Abbr     string
	Shared   float64
	Private  float64
	Adaptive float64
}

// Figure13Result holds the rows plus averages.
type Figure13Result struct {
	Rows    []Figure13Row
	Avg     struct{ Shared, Private, Adaptive float64 }
	Options Options
}

// Figure13 measures LLC miss rates for the shared-friendly class.
func Figure13(o Options) (*Figure13Result, error) {
	var specs []sweep.RunSpec
	for _, w := range workload.ByClass(workload.SharedFriendly) {
		for _, mode := range allModes {
			specs = append(specs, o.modeSpec(w, mode))
		}
	}
	stats, err := o.runAll(specs)
	if err != nil {
		return nil, fmt.Errorf("figure13: %w", err)
	}

	res := &Figure13Result{Options: o}
	var sh, pr, ad float64
	n := 0
	for _, w := range workload.ByClass(workload.SharedFriendly) {
		shared := stats[modeKey(w.Abbr, config.LLCShared)]
		private := stats[modeKey(w.Abbr, config.LLCPrivate)]
		adaptive := stats[modeKey(w.Abbr, config.LLCAdaptive)]
		res.Rows = append(res.Rows, Figure13Row{
			Abbr: w.Abbr, Shared: shared.LLCMissRate,
			Private: private.LLCMissRate, Adaptive: adaptive.LLCMissRate,
		})
		sh += shared.LLCMissRate
		pr += private.LLCMissRate
		ad += adaptive.LLCMissRate
		n++
	}
	if n > 0 {
		res.Avg.Shared, res.Avg.Private, res.Avg.Adaptive = sh/float64(n), pr/float64(n), ad/float64(n)
	}
	return res, nil
}

// Format renders the figure as a table.
func (r *Figure13Result) Format() string {
	header := []string{"benchmark", "shared", "private", "adaptive"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Abbr,
			fmt.Sprintf("%.3f", row.Shared),
			fmt.Sprintf("%.3f", row.Private),
			fmt.Sprintf("%.3f", row.Adaptive),
		})
	}
	out := "Figure 13: LLC miss rate, shared-cache-friendly workloads\n"
	out += formatTable(header, rows)
	out += fmt.Sprintf("AVG: shared %.3f, private %.3f (+%.1f pp), adaptive %.3f\n",
		r.Avg.Shared, r.Avg.Private, (r.Avg.Private-r.Avg.Shared)*100, r.Avg.Adaptive)
	return out
}

// norm is Normalize with a short name for internal use.
func norm(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base
}
