package translator

import (
	"testing"

	"ysmart/internal/dbms"
	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
	"ysmart/internal/queries"
)

// TestDistributedSortExactOrder: an ORDER BY without LIMIT runs with
// order-preserving keys over the cluster's full reducer count, and the
// output file's row sequence equals the oracle's exactly.
func TestDistributedSortExactOrder(t *testing.T) {
	sql := `SELECT uid, cid, ts FROM clicks
	        WHERE cid < 3
	        ORDER BY cid DESC, ts, uid`
	dfs, db := workload(t)
	root, err := queries.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := dbms.Execute(root, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle.Rows) < 100 {
		t.Fatalf("only %d rows; the scenario is too thin", len(oracle.Rows))
	}

	for _, mode := range allModes {
		tr, err := Translate(root, mode, Options{QueryName: "dsort-" + mode.String()})
		if err != nil {
			t.Fatalf("translate (%v): %v", mode, err)
		}
		eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.RunChain(tr.Jobs)
		if err != nil {
			t.Fatalf("run (%v): %v", mode, err)
		}
		// The sort job uses the cluster's reducers, not a single one.
		last := stats.Jobs[len(stats.Jobs)-1]
		if last.NumReduceTasks <= 1 {
			t.Errorf("%v: sort ran with %d reduce task(s), want the cluster default",
				mode, last.NumReduceTasks)
		}
		rows, err := tr.ReadResult(dfs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(oracle.Rows) {
			t.Fatalf("%v: %d rows, want %d", mode, len(rows), len(oracle.Rows))
		}
		// Exact sequence comparison — this is what the ordered key encoding
		// buys: global order across range partitions.
		for i := range rows {
			if exec.EncodeRow(rows[i]) != exec.EncodeRow(oracle.Rows[i]) {
				t.Fatalf("%v: row %d out of order:\n got %s\nwant %s",
					mode, i, exec.EncodeRow(rows[i]), exec.EncodeRow(oracle.Rows[i]))
			}
		}
	}
}

// TestLimitedSortStaysSingleReducer: with LIMIT the global cut still runs
// in one reducer (the classic plan), and the sequence is exact.
func TestLimitedSortStaysSingleReducer(t *testing.T) {
	sql := `SELECT uid, ts FROM clicks ORDER BY ts DESC, uid LIMIT 10`
	dfs, db := workload(t)
	root, err := queries.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := dbms.Execute(root, db)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Translate(root, YSmart, Options{QueryName: "lsort"})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.RunChain(tr.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	last := stats.Jobs[len(stats.Jobs)-1]
	if last.NumReduceTasks != 1 {
		t.Errorf("limited sort reduce tasks = %d, want 1", last.NumReduceTasks)
	}
	rows, err := tr.ReadResult(dfs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for i := range rows {
		if exec.EncodeRow(rows[i]) != exec.EncodeRow(oracle.Rows[i]) {
			t.Fatalf("row %d: got %s, want %s",
				i, exec.EncodeRow(rows[i]), exec.EncodeRow(oracle.Rows[i]))
		}
	}
}

// TestSortStringKeysDistributed: string sort keys survive the ordered
// encoding (escaping, terminators) across partitions.
func TestSortStringKeysDistributed(t *testing.T) {
	sql := `SELECT o_orderstatus, o_orderkey FROM orders ORDER BY o_orderstatus, o_orderkey DESC`
	dfs, db := workload(t)
	root, err := queries.Plan(sql)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := dbms.Execute(root, db)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Translate(root, YSmart, Options{QueryName: "ssort"})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunChain(tr.Jobs); err != nil {
		t.Fatal(err)
	}
	rows, err := tr.ReadResult(dfs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if exec.EncodeRow(rows[i]) != exec.EncodeRow(oracle.Rows[i]) {
			t.Fatalf("row %d: got %s, want %s",
				i, exec.EncodeRow(rows[i]), exec.EncodeRow(oracle.Rows[i]))
		}
	}
}

// TestLimitZeroAndOneAllModes: LIMIT 0 returns no rows and LIMIT 1 the
// first, exactly as the oracle does, in every translation mode; and a
// LIMIT 0 query never shares its result fingerprint with the same query
// without LIMIT, so the reuse store cannot serve one for the other.
func TestLimitZeroAndOneAllModes(t *testing.T) {
	const base = `SELECT cid, count(*) AS n FROM clicks GROUP BY cid ORDER BY cid`
	dfs, db := workload(t)
	for _, limit := range []string{" LIMIT 0", " LIMIT 1", ""} {
		sql := base + limit
		root, err := queries.Plan(sql)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := dbms.Execute(root, db)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int{" LIMIT 0": 0, " LIMIT 1": 1, "": 5}[limit]
		if len(oracle.Rows) != want {
			t.Fatalf("%q: oracle returned %d rows, want %d", sql, len(oracle.Rows), want)
		}
		for _, mode := range allModes {
			tr, err := Translate(root, mode, Options{QueryName: "limit-" + mode.String()})
			if err != nil {
				t.Fatalf("%q translate (%v): %v", sql, mode, err)
			}
			rows, _ := runMR(t, tr, dfs)
			if len(rows) != len(oracle.Rows) {
				t.Fatalf("%q (%v): %d rows, want %d", sql, mode, len(rows), len(oracle.Rows))
			}
			for i := range rows {
				if exec.EncodeRow(rows[i]) != exec.EncodeRow(oracle.Rows[i]) {
					t.Errorf("%q (%v) row %d: got %s, want %s", sql, mode, i,
						exec.EncodeRow(rows[i]), exec.EncodeRow(oracle.Rows[i]))
				}
			}
		}
	}
	for _, mode := range allModes {
		limited := translate(t, base+" LIMIT 0", mode, Options{QueryName: "fp"})
		plain := translate(t, base, mode, Options{QueryName: "fp"})
		a, b := limited.Artifacts, plain.Artifacts
		if a[len(a)-1].Fingerprint == b[len(b)-1].Fingerprint {
			t.Errorf("%v: LIMIT 0 and no LIMIT share the result fingerprint %s", mode, a[len(a)-1].Fingerprint)
		}
	}
}
