package experiments

import (
	"fmt"
	"strings"

	"ysmart/internal/mapreduce"
	"ysmart/internal/translator"
)

// ScalingPoint is one cluster size in the sweep.
type ScalingPoint struct {
	Workers int
	YSmart  float64
	Hive    float64
	// YSmartRun and HiveRun carry the full breakdowns behind the two totals
	// (used by the -json bench output).
	YSmartRun Run
	HiveRun   Run
}

// ScalingResult extends Fig. 11's two cluster sizes into a curve: per-node
// data held constant (1 GB per worker, as on EC2), cluster size swept.
type ScalingResult struct {
	Query  string
	Points []ScalingPoint
}

// ScalingSweep measures Q21 on EC2-style clusters of increasing size with
// constant per-worker data. The paper's observation — execution times
// "almost unchanged" between 11 and 101 nodes — should extend across the
// whole sweep for both systems, with YSmart's advantage preserved.
func ScalingSweep(w *Workload) (*ScalingResult, error) {
	out := &ScalingResult{Query: "Q21"}
	for _, workers := range []int{5, 10, 25, 50, 100} {
		target := float64(workers) * 1e9
		cluster := mapreduce.EC2Cluster(workers)
		cluster.DataScale = w.TPCHScale(target)
		ys, _, err := w.RunTranslated("Q21", translator.YSmart, cluster,
			fmt.Sprintf("scale-%d-ys", workers))
		if err != nil {
			return nil, err
		}
		cluster = mapreduce.EC2Cluster(workers)
		cluster.DataScale = w.TPCHScale(target)
		hive, _, err := w.RunTranslated("Q21", translator.OneToOne, cluster,
			fmt.Sprintf("scale-%d-hive", workers))
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, ScalingPoint{
			Workers:   workers,
			YSmart:    ys.TotalTime(),
			Hive:      hive.TotalTime(),
			YSmartRun: runFromStats("Q21", "ysmart", ys),
			HiveRun:   runFromStats("Q21", "hive", hive),
		})
	}
	return out, nil
}

// Format renders the sweep as a table.
func (r *ScalingResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scaling sweep (extension): %s, 1GB per worker, nc\n", r.Query)
	sb.WriteString("paper basis: near-linear scaling between 11 and 101 nodes (§VII.E)\n")
	fmt.Fprintf(&sb, "  %8s %10s %10s %10s\n", "workers", "ysmart", "hive", "speedup")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "  %8d %9.0fs %9.0fs %10s\n",
			p.Workers, p.YSmart, p.Hive, speedup(p.Hive, p.YSmart))
	}
	return sb.String()
}
