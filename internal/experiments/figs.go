package experiments

import (
	"fmt"
	"strings"

	"ysmart/internal/mapreduce"
	"ysmart/internal/translator"
)

// JobPhase is one bar segment of the paper's breakdown figures.
type JobPhase struct {
	Name   string
	Map    float64
	Reduce float64 // shuffle + reduce, the way Hadoop attributes it
	Gap    float64
}

// Run is one query execution by one system.
type Run struct {
	Query  string
	System string
	Jobs   []JobPhase
	Total  float64
	// ScanBytes and ShuffleBytes total the chain's raw table-scan volume and
	// shuffle traffic — the counters the paper's analysis tracks per system.
	ScanBytes    int64
	ShuffleBytes int64
	// Fault-recovery totals (zero on fault-free runs; see mapreduce.FaultPlan).
	Retries     int
	Recomputed  int
	Speculative int
}

func runFromStats(query, system string, stats *mapreduce.ChainStats) Run {
	r := Run{
		Query: query, System: system, Total: stats.TotalTime(),
		ScanBytes:    stats.TotalMapInputBytes(),
		ShuffleBytes: stats.TotalShuffleBytes(),
		Retries:      stats.TotalRetries(),
		Recomputed:   stats.TotalRecomputed(),
		Speculative:  stats.TotalSpeculative(),
	}
	for _, j := range stats.Jobs {
		r.Jobs = append(r.Jobs, JobPhase{
			Name:   j.Name,
			Map:    j.StartupTime + j.MapTime,
			Reduce: j.ReducePhaseTime(),
			Gap:    j.GapBefore,
		})
	}
	return r
}

func (r Run) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-12s total %7.0fs, %d job(s)\n", r.Query, r.System, r.Total, len(r.Jobs))
	for _, j := range r.Jobs {
		fmt.Fprintf(&sb, "    %-40s map %6.0fs  reduce %6.0fs", j.Name, j.Map, j.Reduce)
		if j.Gap > 0 {
			fmt.Fprintf(&sb, "  gap %5.0fs", j.Gap)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// speedup renders "hive/ysmart" as the paper's percentage speedups.
func speedup(baseline, improved float64) string {
	if improved <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*baseline/improved)
}

// ---------------------------------------------------------------------------
// Fig. 2(b): Hive vs hand-coded MapReduce on Q-AGG and Q-CSA.
// ---------------------------------------------------------------------------

// Fig2bResult holds the four bars of Fig. 2(b).
type Fig2bResult struct {
	Runs []Run // Q-AGG/hive, Q-AGG/hand, Q-CSA/hive, Q-CSA/hand
}

// Fig2b reproduces Fig. 2(b) on the small-cluster model: on the simple
// aggregation Hive is competitive (map-side hash aggregation); on the
// click-stream query the hand-coded two-job program wins by a large factor.
func Fig2b(w *Workload) (*Fig2bResult, error) {
	out := &Fig2bResult{}
	for _, query := range []string{"Q-AGG", "Q-CSA"} {
		cluster := mapreduce.SmallCluster()
		cluster.DataScale = w.ClicksScale(clicksBytes)
		hive, _, err := w.RunTranslated(query, translator.OneToOne, cluster, "fig2b-"+query+"-hive")
		if err != nil {
			return nil, err
		}
		hand, err := w.RunHandCoded(query, cluster, "fig2b-"+query+"-hand")
		if err != nil {
			return nil, err
		}
		out.Runs = append(out.Runs,
			runFromStats(query, "hive", hive),
			runFromStats(query, "hand-coded", hand),
		)
	}
	return out, nil
}

// Format renders the figure as a table.
func (r *Fig2bResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 2(b): Hive vs hand-coded MapReduce (small cluster, 20GB clicks)\n")
	for _, run := range r.Runs {
		fmt.Fprintf(&sb, "  %-6s %-11s %7.0fs (%d jobs)\n", run.Query, run.System, run.Total, len(run.Jobs))
	}
	hive, hand := r.Runs[2].Total, r.Runs[3].Total
	fmt.Fprintf(&sb, "  Q-CSA hand-coded speedup over Hive: %s (paper: ~300%%)\n", speedup(hive, hand))
	return sb.String()
}

// ---------------------------------------------------------------------------
// Fig. 9: breakdown of Q21 job finishing times under four translations.
// ---------------------------------------------------------------------------

// Fig9Result holds the four stacked bars of Fig. 9.
type Fig9Result struct {
	OneToOne Run
	ICTC     Run
	YSmart   Run
	Hand     Run
}

// Fig9 reproduces the correlation ablation (§VII.C): one-operation-one-job,
// input+transit correlation only, all correlations, and the hand-coded
// program, on the small cluster with 10 GB TPC-H.
func Fig9(w *Workload) (*Fig9Result, error) {
	cluster := mapreduce.SmallCluster()
	cluster.DataScale = w.TPCHScale(tpchSmallBytes)
	oto, _, err := w.RunTranslated("Q21", translator.OneToOne, cluster, "fig9-oto")
	if err != nil {
		return nil, err
	}
	ictc, _, err := w.RunTranslated("Q21", translator.ICTCOnly, cluster, "fig9-ictc")
	if err != nil {
		return nil, err
	}
	ys, _, err := w.RunTranslated("Q21", translator.YSmart, cluster, "fig9-ys")
	if err != nil {
		return nil, err
	}
	hand, err := w.RunHandCoded("Q21", cluster, "fig9-hand")
	if err != nil {
		return nil, err
	}
	return &Fig9Result{
		OneToOne: runFromStats("Q21", "one-op-one-job", oto),
		ICTC:     runFromStats("Q21", "ic+tc only", ictc),
		YSmart:   runFromStats("Q21", "ysmart", ys),
		Hand:     runFromStats("Q21", "hand-coded", hand),
	}, nil
}

// Format renders the four bars with per-job phases.
func (r *Fig9Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 9: Q21 sub-tree, breakdown of job finishing times (small cluster, 10GB TPC-H)\n")
	sb.WriteString("paper: 1140s / 773s / 561s / 479s\n")
	for _, run := range []Run{r.OneToOne, r.ICTC, r.YSmart, r.Hand} {
		sb.WriteString(run.String())
	}
	fmt.Fprintf(&sb, "speedups over one-op-one-job: ic+tc %s (paper 167%%), ysmart %s (paper 203%%)\n",
		speedup(r.OneToOne.Total, r.ICTC.Total), speedup(r.OneToOne.Total, r.YSmart.Total))
	fmt.Fprintf(&sb, "ysmart vs hand-coded: %.0f%% slower (paper 17%%)\n",
		100*(r.YSmart.Total-r.Hand.Total)/r.Hand.Total)
	return sb.String()
}

// ---------------------------------------------------------------------------
// Fig. 10: small cluster — YSmart vs Hive vs Pig vs ideal parallel DBMS.
// ---------------------------------------------------------------------------

// Fig10Row is one query's bars.
type Fig10Row struct {
	Query  string
	YSmart Run
	Hive   Run
	Pig    Run
	PgSQL  float64 // seconds; the pipelined executor has no job breakdown
}

// Fig10Result holds all four queries.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10 reproduces §VII.D on the small cluster: 10 GB TPC-H for Q17/Q18/Q21
// and 20 GB clicks for Q-CSA; PostgreSQL is simulated as an ideal 4-way
// parallel pipelined executor over a quarter of the data.
func Fig10(w *Workload) (*Fig10Result, error) {
	out := &Fig10Result{}
	for _, query := range []string{"Q17", "Q18", "Q21", "Q-CSA"} {
		cluster := mapreduce.SmallCluster()
		cluster.DataScale = w.scaleFor(query, tpchSmallBytes)
		ys, _, err := w.RunTranslated(query, translator.YSmart, cluster, "fig10-"+query+"-ys")
		if err != nil {
			return nil, err
		}
		hive, _, err := w.RunTranslated(query, translator.OneToOne, cluster, "fig10-"+query+"-hive")
		if err != nil {
			return nil, err
		}
		pig, _, err := w.RunTranslated(query, translator.PigLike, cluster, "fig10-"+query+"-pig")
		if err != nil {
			return nil, err
		}
		pg, err := w.RunDBMS(query, cluster.DataScale)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Fig10Row{
			Query:  query,
			YSmart: runFromStats(query, "ysmart", ys),
			Hive:   runFromStats(query, "hive", hive),
			Pig:    runFromStats(query, "pig", pig),
			PgSQL:  pg,
		})
	}
	return out, nil
}

// Format renders the comparison table.
func (r *Fig10Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 10: small cluster — ysmart vs hive vs pig vs ideal parallel pgsql\n")
	sb.WriteString("paper speedups of ysmart over hive: Q17 258%, Q18 190%, Q21 252%, Q-CSA 266%\n")
	fmt.Fprintf(&sb, "  %-6s %10s %10s %10s %10s %12s\n", "query", "ysmart", "hive", "pig", "pgsql", "ys-vs-hive")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-6s %9.0fs %9.0fs %9.0fs %9.0fs %12s\n",
			row.Query, row.YSmart.Total, row.Hive.Total, row.Pig.Total, row.PgSQL,
			speedup(row.Hive.Total, row.YSmart.Total))
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Fig. 11: Amazon EC2, 11 and 101 nodes, with and without compression.
// ---------------------------------------------------------------------------

// Fig11Cell is one bar: a query on a cluster size with a compression
// setting.
type Fig11Cell struct {
	Query    string
	Workers  int
	Compress bool
	YSmart   float64
	Hive     float64
	// YSmartRun and HiveRun carry the full per-job breakdowns behind the two
	// totals (used by the -json bench output).
	YSmartRun Run
	HiveRun   Run
}

// Fig11Result holds panels (a)-(c) plus the Q-CSA panel (d).
type Fig11Result struct {
	Cells []Fig11Cell
	// Panel (d): Q-CSA on the 11-node cluster, no compression.
	QCSA struct {
		YSmart, Hive, Pig Run
	}
}

// Fig11 reproduces §VII.E: per-worker-constant data (10 GB on 10 workers,
// 100 GB on 100), compression on and off for the TPC-H queries, and the
// three-system Q-CSA comparison on the small EC2 cluster.
func Fig11(w *Workload) (*Fig11Result, error) {
	out := &Fig11Result{}
	for _, workers := range []int{10, 100} {
		target := tpchSmallBytes
		if workers == 100 {
			target = tpchLargeBytes
		}
		for _, compress := range []bool{false, true} {
			for _, query := range []string{"Q17", "Q18", "Q21"} {
				cluster := mapreduce.EC2Cluster(workers)
				cluster.Compress = compress
				cluster.DataScale = w.TPCHScale(target)
				label := fmt.Sprintf("fig11-%s-%d-%v", query, workers, compress)
				ys, _, err := w.RunTranslated(query, translator.YSmart, cluster, label+"-ys")
				if err != nil {
					return nil, err
				}
				hive, _, err := w.RunTranslated(query, translator.OneToOne, cluster, label+"-hive")
				if err != nil {
					return nil, err
				}
				out.Cells = append(out.Cells, Fig11Cell{
					Query: query, Workers: workers, Compress: compress,
					YSmart:    ys.TotalTime(),
					Hive:      hive.TotalTime(),
					YSmartRun: runFromStats(query, "ysmart", ys),
					HiveRun:   runFromStats(query, "hive", hive),
				})
			}
		}
	}
	// Panel (d).
	cluster := mapreduce.EC2Cluster(10)
	cluster.DataScale = w.ClicksScale(clicksBytes)
	ys, _, err := w.RunTranslated("Q-CSA", translator.YSmart, cluster, "fig11d-ys")
	if err != nil {
		return nil, err
	}
	hive, _, err := w.RunTranslated("Q-CSA", translator.OneToOne, cluster, "fig11d-hive")
	if err != nil {
		return nil, err
	}
	pig, _, err := w.RunTranslated("Q-CSA", translator.PigLike, cluster, "fig11d-pig")
	if err != nil {
		return nil, err
	}
	out.QCSA.YSmart = runFromStats("Q-CSA", "ysmart", ys)
	out.QCSA.Hive = runFromStats("Q-CSA", "hive", hive)
	out.QCSA.Pig = runFromStats("Q-CSA", "pig", pig)
	return out, nil
}

// Format renders all panels.
func (r *Fig11Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 11(a-c): EC2 clusters, ysmart vs hive (c = compression, nc = none)\n")
	sb.WriteString("paper: max speedup 297% (Q21, 101 nodes, nc); compression always hurts\n")
	fmt.Fprintf(&sb, "  %-6s %8s %5s %10s %10s %10s\n", "query", "workers", "mode", "ysmart", "hive", "speedup")
	for _, c := range r.Cells {
		mode := "nc"
		if c.Compress {
			mode = "c"
		}
		fmt.Fprintf(&sb, "  %-6s %8d %5s %9.0fs %9.0fs %10s\n",
			c.Query, c.Workers, mode, c.YSmart, c.Hive, speedup(c.Hive, c.YSmart))
	}
	sb.WriteString("Fig 11(d): Q-CSA on the 11-node cluster (nc)\n")
	sb.WriteString("paper: ysmart 487% over hive, 840% over pig\n")
	fmt.Fprintf(&sb, "  ysmart %7.0fs   hive %7.0fs (%s)   pig %7.0fs (%s)\n",
		r.QCSA.YSmart.Total,
		r.QCSA.Hive.Total, speedup(r.QCSA.Hive.Total, r.QCSA.YSmart.Total),
		r.QCSA.Pig.Total, speedup(r.QCSA.Pig.Total, r.QCSA.YSmart.Total))
	return sb.String()
}

// ---------------------------------------------------------------------------
// Fig. 12 and Fig. 13: the busy Facebook production cluster.
// ---------------------------------------------------------------------------

// Fig12Result holds six concurrent Q17 instances (3 YSmart + 3 Hive).
type Fig12Result struct {
	YSmart [3]Run
	Hive   [3]Run
}

// Fig12 reproduces §VII.F.1: Q17 on the 747-node shared cluster with 1 TB
// of data; contention seeds differ per instance, modelling the unpredicted
// dynamics the paper observed.
func Fig12(w *Workload) (*Fig12Result, error) {
	out := &Fig12Result{}
	for i := 0; i < 3; i++ {
		cluster := mapreduce.FacebookCluster(int64(100 + i))
		cluster.DataScale = w.TPCHScale(tpchFacebookByte)
		ys, _, err := w.RunTranslated("Q17", translator.YSmart, cluster, fmt.Sprintf("fig12-ys%d", i+1))
		if err != nil {
			return nil, err
		}
		out.YSmart[i] = runFromStats("Q17", fmt.Sprintf("ysmart-%d", i+1), ys)

		cluster = mapreduce.FacebookCluster(int64(200 + i))
		cluster.DataScale = w.TPCHScale(tpchFacebookByte)
		hive, _, err := w.RunTranslated("Q17", translator.OneToOne, cluster, fmt.Sprintf("fig12-hive%d", i+1))
		if err != nil {
			return nil, err
		}
		out.Hive[i] = runFromStats("Q17", fmt.Sprintf("hive-%d", i+1), hive)
	}
	return out, nil
}

// Format renders the six instances with phase breakdowns.
func (r *Fig12Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 12: six Q17 instances on the Facebook-like cluster (1TB, contention)\n")
	sb.WriteString("paper: ysmart speedup 230-310% over hive\n")
	for _, run := range append(r.YSmart[:], r.Hive[:]...) {
		sb.WriteString(run.String())
	}
	var ys, hive float64
	for i := 0; i < 3; i++ {
		ys += r.YSmart[i].Total
		hive += r.Hive[i].Total
	}
	fmt.Fprintf(&sb, "average speedup: %s\n", speedup(hive/3, ys/3))
	return sb.String()
}

// Fig13Result holds the Q18 and Q21 averages of three instances each.
type Fig13Result struct {
	Query   [2]string
	YSmart  [2]float64 // average of three instances
	Hive    [2]float64
	Speedup [2]float64
	// YSmartRuns and HiveRuns keep each instance's full breakdown behind the
	// averages (used by the -json bench output).
	YSmartRuns [2][3]Run
	HiveRuns   [2][3]Run
}

// Fig13 reproduces §VII.F.2: Q18 and Q21 on the busy cluster. The paper's
// key observation — speedups exceed the isolated-cluster ones because every
// extra job pays a scheduling gap — emerges from the contention model.
func Fig13(w *Workload) (*Fig13Result, error) {
	out := &Fig13Result{Query: [2]string{"Q18", "Q21"}}
	for qi, query := range out.Query {
		var ysSum, hiveSum float64
		for i := 0; i < 3; i++ {
			cluster := mapreduce.FacebookCluster(int64(300 + 10*qi + i))
			cluster.DataScale = w.TPCHScale(tpchFacebookByte)
			ys, _, err := w.RunTranslated(query, translator.YSmart, cluster, fmt.Sprintf("fig13-%s-ys%d", query, i))
			if err != nil {
				return nil, err
			}
			ysSum += ys.TotalTime()
			out.YSmartRuns[qi][i] = runFromStats(query, fmt.Sprintf("ysmart-%d", i+1), ys)

			cluster = mapreduce.FacebookCluster(int64(400 + 10*qi + i))
			cluster.DataScale = w.TPCHScale(tpchFacebookByte)
			hive, _, err := w.RunTranslated(query, translator.OneToOne, cluster, fmt.Sprintf("fig13-%s-hive%d", query, i))
			if err != nil {
				return nil, err
			}
			hiveSum += hive.TotalTime()
			out.HiveRuns[qi][i] = runFromStats(query, fmt.Sprintf("hive-%d", i+1), hive)
		}
		out.YSmart[qi] = ysSum / 3
		out.Hive[qi] = hiveSum / 3
		out.Speedup[qi] = hiveSum / ysSum
	}
	return out, nil
}

// Format renders the two averaged bars.
func (r *Fig13Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Fig 13: Q18 and Q21 on the Facebook-like cluster (avg of 3 instances)\n")
	sb.WriteString("paper: average speedups 298% (Q18) and 336% (Q21)\n")
	for i := range r.Query {
		fmt.Fprintf(&sb, "  %-4s ysmart %8.0fs   hive %8.0fs   speedup %.0f%%\n",
			r.Query[i], r.YSmart[i], r.Hive[i], 100*r.Speedup[i])
	}
	return sb.String()
}
