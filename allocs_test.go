//go:build !race

package ysmart_test

import (
	"testing"

	"ysmart"
)

// TestRunAllocs gates the row path's allocation count: heap allocations of
// one in-process Runtime.Run at one worker, tables preloaded. The race
// detector changes allocation behaviour, so the file is excluded from
// -race builds; CI runs it in a separate plain step.
//
// Measured with go1.24 on linux/amd64 when the append codec, demanded-
// column decode, compiled CMF operator graph and slab-carved shuffle
// groups landed (the strings.Builder and strings.Split row path before
// them: Q21 100,922, Q-AGG 54,306):
//
//	Q21    27,526
//	Q-AGG  12,226
//
// Each bound is 1.10x its measurement. Bounds may only tighten.
func TestRunAllocs(t *testing.T) {
	tpch, err := ysmart.GenerateTPCH(ysmart.DefaultTPCH())
	if err != nil {
		t.Fatal(err)
	}
	clicks, err := ysmart.GenerateClicks(ysmart.DefaultClicks())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query  string
		tables map[string][]ysmart.Row
		bound  float64
	}{
		{"Q21", tpch, 1.10 * 27526},
		{"Q-AGG", clicks, 1.10 * 12226},
	} {
		q, err := ysmart.Parse(ysmart.WorkloadQueries()[tc.query], ysmart.WorkloadCatalog())
		if err != nil {
			t.Fatal(err)
		}
		tr, err := q.Translate(ysmart.YSmart, ysmart.Options{QueryName: tc.query})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := ysmart.NewRuntime(ysmart.SmallCluster())
		if err != nil {
			t.Fatal(err)
		}
		rt.SetWorkers(1)
		rt.LoadTables(tc.tables)
		var runErr error
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := rt.Run(tr); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", tc.query, runErr)
		}
		t.Logf("%s: %.0f allocs per run (bound %.0f)", tc.query, allocs, tc.bound)
		if allocs > tc.bound {
			t.Errorf("%s: %.0f allocs per run, bound %.0f", tc.query, allocs, tc.bound)
		}
	}
}
