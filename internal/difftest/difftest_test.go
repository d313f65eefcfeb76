package difftest

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ysmart"
	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
)

var update = flag.Bool("update", false, "rewrite golden files from current engine output")

// workload is generated once; every run reads from its own runtime's DFS
// copy, so sharing the row slices is safe.
var workload map[string][]ysmart.Row

func TestMain(m *testing.M) {
	flag.Parse()
	var err error
	workload, err = Tables()
	if err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestWorkersByteIdentical is the differential proof for the worker pool:
// for every workload query, every fault scenario and workers ∈ {1, 2, 8},
// the engine must produce the same rows in the same order, identical
// per-job stats (including attempt logs) and an identical trace byte
// stream as the sequential workers=1 run.
func TestWorkersByteIdentical(t *testing.T) {
	named := queries.Named()
	for _, name := range QueryNames() {
		sql := named[name]
		for _, plan := range FaultPlans(1, 2) {
			t.Run(name+"/"+PlanLabel(plan), func(t *testing.T) {
				base, err := Execute(name, sql, ysmart.YSmart, 1, plan, workload)
				if err != nil {
					t.Fatal(err)
				}
				if len(base.Rows) == 0 {
					t.Fatalf("baseline produced no rows")
				}
				for _, w := range []int{2, 8} {
					got, err := Execute(name, sql, ysmart.YSmart, w, plan, workload)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Rows, base.Rows) {
						t.Errorf("workers=%d: rows differ from workers=1 (got %d rows, want %d)",
							w, len(got.Rows), len(base.Rows))
					}
					if !reflect.DeepEqual(got.Jobs, base.Jobs) {
						for i := range base.Jobs {
							if i < len(got.Jobs) && !reflect.DeepEqual(got.Jobs[i], base.Jobs[i]) {
								t.Errorf("workers=%d: job %d stats differ:\n got  %+v\n want %+v",
									w, i, *got.Jobs[i], *base.Jobs[i])
							}
						}
						if len(got.Jobs) != len(base.Jobs) {
							t.Errorf("workers=%d: %d jobs, want %d", w, len(got.Jobs), len(base.Jobs))
						}
					}
					if !bytes.Equal(got.Trace, base.Trace) {
						t.Errorf("workers=%d: trace bytes differ from workers=1 (%d vs %d bytes)",
							w, len(got.Trace), len(base.Trace))
					}
				}
			})
		}
	}
}

// TestEngineMatchesOracle cross-checks the parallel engine against the
// pipelined DBMS executor, an independent implementation of the same
// queries, and pins the sorted rows in committed golden files.
func TestEngineMatchesOracle(t *testing.T) {
	named := queries.Named()
	for _, name := range QueryNames() {
		sql := named[name]
		t.Run(name, func(t *testing.T) {
			run, err := Execute(name, sql, ysmart.YSmart, 8, nil, workload)
			if err != nil {
				t.Fatal(err)
			}
			got := run.SortedLines()

			want, err := Oracle(sql, workload)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			diffLines(t, "engine vs dbms oracle", got, want)

			golden := filepath.Join("testdata", "golden", strings.ToLower(name)+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to regenerate): %v", err)
			}
			diffLines(t, "engine vs golden", got, strings.Split(strings.TrimRight(string(data), "\n"), "\n"))
		})
	}
}

// TestModesAgree checks that the merged YSmart plan and the one-to-one
// plan compute the same relation at full parallelism — the optimizer must
// not change answers, only job counts.
func TestModesAgree(t *testing.T) {
	named := queries.Named()
	for _, name := range QueryNames() {
		sql := named[name]
		t.Run(name, func(t *testing.T) {
			merged, err := Execute(name, sql, ysmart.YSmart, 8, nil, workload)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := Execute(name, sql, ysmart.OneToOne, 8, nil, workload)
			if err != nil {
				t.Fatal(err)
			}
			diffLines(t, "ysmart vs one-to-one", merged.SortedLines(), naive.SortedLines())
		})
	}
}

// TestFaultedPredictionMatchesAnalytic checks that fault injection moves
// only the schedule: every faulted job keeps the fault-free job's
// counters and predicts exactly the fault-free analytic time, so
// CostDrift measures recovery against the model's own prediction.
func TestFaultedPredictionMatchesAnalytic(t *testing.T) {
	named := queries.Named()
	for _, name := range QueryNames() {
		sql := named[name]
		for _, mode := range []ysmart.Mode{ysmart.YSmart, ysmart.OneToOne} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				plans := FaultPlans(1, 2)
				base, err := Execute(name, sql, mode, 1, plans[0], workload)
				if err != nil {
					t.Fatal(err)
				}
				for _, js := range base.Jobs {
					if d := js.CostDrift(); d != 1 {
						t.Errorf("%s: fault-free CostDrift = %.17g, want exactly 1", js.Name, d)
					}
				}
				for _, plan := range plans[1:] {
					run, err := Execute(name, sql, mode, 1, plan, workload)
					if err != nil {
						t.Fatal(err)
					}
					if len(run.Jobs) != len(base.Jobs) {
						t.Fatalf("%s: %d jobs, want %d", PlanLabel(plan), len(run.Jobs), len(base.Jobs))
					}
					for i, js := range run.Jobs {
						want := base.Jobs[i]
						if math.Float64bits(js.PredictedTime) != math.Float64bits(want.PredictedTime) {
							t.Errorf("%s %s: PredictedTime %.17g, fault-free %.17g",
								PlanLabel(plan), js.Name, js.PredictedTime, want.PredictedTime)
						}
						if got, want := analyticView(js), analyticView(want); !reflect.DeepEqual(got, want) {
							t.Errorf("%s %s: counters differ from the fault-free job:\n got  %+v\n want %+v",
								PlanLabel(plan), js.Name, got, want)
						}
					}
				}
			})
		}
	}
}

// analyticView is a copy of js without the fields fault recovery may
// change (the scheduled phase times and the recovery accounting) and
// without PredictedTime, which the caller compares bit for bit.
func analyticView(js *mapreduce.JobStats) mapreduce.JobStats {
	v := *js
	v.MapTime, v.ShuffleTime, v.ReduceTime, v.PredictedTime = 0, 0, 0, 0
	v.MapTaskRetries, v.ReduceTaskRetries, v.RecomputedMapTasks = 0, 0, 0
	v.SpeculativeTasks, v.SpeculativeWins, v.NodeFailures = 0, 0, 0
	v.Attempts = nil
	return v
}

// diffLines reports the first few differing lines between two sorted row
// encodings.
func diffLines(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, want %d", label, len(got), len(want))
	}
	shown := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("%s: row %d:\n got  %s\n want %s", label, i, got[i], want[i])
			if shown++; shown >= 3 {
				t.Errorf("%s: ... further diffs elided", label)
				return
			}
		}
	}
}
