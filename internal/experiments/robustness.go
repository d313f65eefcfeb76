package experiments

import (
	"fmt"
	"reflect"
	"strings"

	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/translator"
)

// The robustness experiment answers a question the paper could not (§III
// motivates per-job materialization as the price of fault tolerance, but
// never measures it): how do YSmart's merged plans behave under real task
// failures and stragglers versus one-operation-per-job chains? Merged jobs
// have fewer, larger tasks — a lost task re-executes more work — while
// per-op chains expose more task boundaries but pay per-job startup again
// on every retry-extended phase.

// robustnessProbs is the swept per-attempt task failure probability.
var robustnessProbs = []float64{0, 0.05, 0.1, 0.2}

// robustnessQueries are the workload queries swept (the §VII.D set).
var robustnessQueries = []string{"Q17", "Q18", "Q21", "Q-CSA"}

// RobustnessCell is one (query, failure rate) measurement of both systems.
type RobustnessCell struct {
	Query       string
	FailureProb float64
	YSmart      Run
	Hive        Run
	// YSmartOK / HiveOK report whether the fault-injected run produced
	// output identical to the fault-free run — the recovery-correctness
	// claim of the tentpole.
	YSmartOK bool
	HiveOK   bool
}

// RobustnessResult holds the sweep.
type RobustnessResult struct {
	Seed  int64
	Cells []RobustnessCell
}

// Robustness sweeps the per-attempt task failure probability (with
// stragglers at half that rate and speculation enabled) for YSmart-merged
// vs one-op-per-job plans on the small cluster, verifying after every run
// that recovery reproduced the fault-free output exactly.
func Robustness(w *Workload, seed int64) (*RobustnessResult, error) {
	out := &RobustnessResult{Seed: seed}
	for _, query := range robustnessQueries {
		var refYS, refHive []exec.Row
		for _, prob := range robustnessProbs {
			cluster := func() *mapreduce.Cluster {
				c := mapreduce.SmallCluster()
				c.DataScale = w.scaleFor(query, tpchSmallBytes)
				if prob > 0 {
					c.Faults = &mapreduce.FaultPlan{
						Seed:            seed,
						TaskFailureProb: prob,
						StragglerProb:   prob / 2,
					}
					c.Speculation = mapreduce.Speculation{Enabled: true}
				}
				return c
			}
			label := fmt.Sprintf("robust-%s-p%g", query, prob)
			ysStats, ysRows, err := w.RunTranslated(query, translator.YSmart, cluster(), label+"-ys")
			if err != nil {
				return nil, err
			}
			hiveStats, hiveRows, err := w.RunTranslated(query, translator.OneToOne, cluster(), label+"-hive")
			if err != nil {
				return nil, err
			}
			if prob == 0 {
				refYS, refHive = ysRows, hiveRows
			}
			out.Cells = append(out.Cells, RobustnessCell{
				Query:       query,
				FailureProb: prob,
				YSmart:      runFromStats(query, "ysmart", ysStats),
				Hive:        runFromStats(query, "one-op-one-job", hiveStats),
				YSmartOK:    reflect.DeepEqual(refYS, ysRows),
				HiveOK:      reflect.DeepEqual(refHive, hiveRows),
			})
		}
	}
	return out, nil
}

// Format renders the sweep as a table: per query, simulated time and
// recovery activity of both systems at each failure rate, plus the
// merged-vs-chained slowdown each rate induces.
func (r *RobustnessResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Robustness: task failures + stragglers, speculation on (small cluster, seed %d)\n", r.Seed)
	sb.WriteString("not in the paper: event-level recovery behind the §III materialization argument\n")
	sb.WriteString("  query   p(fail)   ysmart        (retries/spec)   one-op-one-job (retries/spec)   result\n")
	byQuery := make(map[string][]RobustnessCell)
	var order []string
	for _, c := range r.Cells {
		if _, ok := byQuery[c.Query]; !ok {
			order = append(order, c.Query)
		}
		byQuery[c.Query] = append(byQuery[c.Query], c)
	}
	for _, q := range order {
		cells := byQuery[q]
		base := cells[0]
		for _, c := range cells {
			check := "ok"
			if !c.YSmartOK || !c.HiveOK {
				check = "MISMATCH"
			}
			fmt.Fprintf(&sb, "  %-6s  %5.2f   %7.0fs (%3d/%2d)        %7.0fs (%3d/%2d)          %s\n",
				c.Query, c.FailureProb,
				c.YSmart.Total, c.YSmart.Retries+c.YSmart.Recomputed, c.YSmart.Speculative,
				c.Hive.Total, c.Hive.Retries+c.Hive.Recomputed, c.Hive.Speculative,
				check)
		}
		last := cells[len(cells)-1]
		fmt.Fprintf(&sb, "  %-6s  slowdown at p=%.2f: ysmart %.2fx, one-op-one-job %.2fx; ysmart speedup %s -> %s\n",
			q, last.FailureProb,
			last.YSmart.Total/base.YSmart.Total, last.Hive.Total/base.Hive.Total,
			speedup(base.Hive.Total, base.YSmart.Total), speedup(last.Hive.Total, last.YSmart.Total))
	}
	return sb.String()
}

// BenchRows flattens the robustness sweep for -json output.
func (r *RobustnessResult) BenchRows() []BenchRow {
	var out []BenchRow
	for _, c := range r.Cells {
		ys := benchRow("robustness", c.YSmart)
		ys.FailureRate = c.FailureProb
		ys.ResultOK = c.YSmartOK
		hive := benchRow("robustness", c.Hive)
		hive.FailureRate = c.FailureProb
		hive.ResultOK = c.HiveOK
		out = append(out, ys, hive)
	}
	return out
}
