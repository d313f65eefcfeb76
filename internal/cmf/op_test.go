package cmf

import (
	"slices"
	"strings"
	"testing"

	"ysmart/internal/exec"
	"ysmart/internal/sqlparser"
)

func intRow(vals ...int64) exec.Row {
	r := make(exec.Row, len(vals))
	for i, v := range vals {
		r[i] = exec.Int(v)
	}
	return r
}

func col(i int) RowFn {
	return func(r exec.Row) (exec.Value, error) { return r[i], nil }
}

func TestJoinOpInner(t *testing.T) {
	j := &JoinOp{
		OpName: "j", Left: StreamSource(0), Right: StreamSource(1),
		LeftWidth: 2, RightWidth: 2, Type: sqlparser.InnerJoin,
	}
	streams := map[int][]exec.Row{
		0: {intRow(1, 10), intRow(1, 20)},
		1: {intRow(1, 100), intRow(1, 200)},
	}
	out, err := j.Eval(intRow(1), [][]exec.Row{streams[0], streams[1]})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("inner join rows = %d, want 4 (cross within key)", len(out))
	}
	if len(out[0]) != 4 {
		t.Errorf("row width = %d, want 4", len(out[0]))
	}
}

func TestJoinOpResidual(t *testing.T) {
	j := &JoinOp{
		OpName: "j", Left: StreamSource(0), Right: StreamSource(1),
		LeftWidth: 2, RightWidth: 2, Type: sqlparser.InnerJoin,
		Residual: func(r exec.Row) (bool, error) { return r[1].I < r[3].I, nil },
	}
	out, err := j.Eval(nil, [][]exec.Row{
		{intRow(1, 10), intRow(1, 300)},
		{intRow(1, 100), intRow(1, 200)},
	})
	if err != nil {
		t.Fatal(err)
	}
	// (10,100), (10,200) pass; 300 pairs fail.
	if len(out) != 2 {
		t.Fatalf("residual join rows = %d, want 2", len(out))
	}
}

func TestJoinOpOuterVariants(t *testing.T) {
	mk := func(typ sqlparser.JoinType) []exec.Row {
		j := &JoinOp{
			OpName: "j", Left: StreamSource(0), Right: StreamSource(1),
			LeftWidth: 1, RightWidth: 1, Type: typ,
			Residual: func(r exec.Row) (bool, error) {
				return !r[0].IsNull() && !r[1].IsNull() && r[0].I == r[1].I, nil
			},
		}
		out, err := j.Eval(nil, [][]exec.Row{
			{intRow(1), intRow(2)},
			{intRow(2), intRow(3)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	if out := mk(sqlparser.InnerJoin); len(out) != 1 {
		t.Errorf("inner = %v, want 1 row", out)
	}
	left := mk(sqlparser.LeftOuterJoin)
	if len(left) != 2 {
		t.Fatalf("left outer = %v, want 2 rows", left)
	}
	foundNullExt := false
	for _, r := range left {
		if r[0].I == 1 && r[1].IsNull() {
			foundNullExt = true
		}
	}
	if !foundNullExt {
		t.Errorf("left outer missing null extension: %v", left)
	}
	if out := mk(sqlparser.RightOuterJoin); len(out) != 2 {
		t.Errorf("right outer = %v, want 2 rows", out)
	}
	if out := mk(sqlparser.FullOuterJoin); len(out) != 3 {
		t.Errorf("full outer = %v, want 3 rows", out)
	}
}

func TestJoinOpEmptySides(t *testing.T) {
	j := &JoinOp{
		OpName: "j", Left: StreamSource(0), Right: StreamSource(1),
		LeftWidth: 1, RightWidth: 1, Type: sqlparser.LeftOuterJoin,
	}
	// Left rows, empty right: all null-extended.
	out, err := j.Eval(nil, [][]exec.Row{{intRow(1), intRow(2)}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !out[0][1].IsNull() {
		t.Errorf("left outer with empty right = %v", out)
	}
	// Inner join with an empty side yields nothing.
	j.Type = sqlparser.InnerJoin
	out, err = j.Eval(nil, [][]exec.Row{{intRow(1)}, nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("inner join with empty side = %v, want none", out)
	}
}

func TestJoinOpProjection(t *testing.T) {
	j := &JoinOp{
		OpName: "j", Left: StreamSource(0), Right: StreamSource(1),
		LeftProj: []int{1}, RightProj: []int{0},
		LeftWidth: 1, RightWidth: 1, Type: sqlparser.InnerJoin,
	}
	out, err := j.Eval(nil, [][]exec.Row{
		{intRow(1, 10)},
		{intRow(100, 7)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0].I != 10 || out[0][1].I != 100 {
		t.Errorf("projected join = %v, want [[10 100]]", out)
	}
}

func TestAggOpGrouped(t *testing.T) {
	a := &AggOp{
		OpName: "a", In: StreamSource(0),
		GroupBy: []RowFn{col(0)},
		Aggs: []AggFunc{
			{Kind: exec.AggCountStar},
			{Kind: exec.AggSum, Arg: col(1)},
			{Kind: exec.AggMin, Arg: col(1)},
		},
	}
	out, err := a.Eval(nil, [][]exec.Row{{
		intRow(1, 10), intRow(2, 5), intRow(1, 30), intRow(2, 7),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("groups = %d, want 2", len(out))
	}
	// Deterministic order by encoded group key: "1" then "2".
	if out[0][0].I != 1 || out[0][1].I != 2 || out[0][2].I != 40 || out[0][3].I != 10 {
		t.Errorf("group 1 = %v", out[0])
	}
	if out[1][0].I != 2 || out[1][2].I != 12 || out[1][3].I != 5 {
		t.Errorf("group 2 = %v", out[1])
	}
}

func TestAggOpGlobalEmptyInput(t *testing.T) {
	a := &AggOp{
		OpName: "a", In: StreamSource(0),
		Aggs: []AggFunc{{Kind: exec.AggCountStar}, {Kind: exec.AggSum, Arg: col(0)}},
	}
	out, err := a.Eval(nil, [][]exec.Row{nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][0].I != 0 || !out[0][1].IsNull() {
		t.Errorf("global agg over empty input = %v, want [0 NULL]", out)
	}

	// Grouped aggregate over empty input yields no rows.
	a.GroupBy = []RowFn{col(0)}
	out, err = a.Eval(nil, [][]exec.Row{nil})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("grouped agg over empty input = %v, want none", out)
	}
}

func TestAggOpCountDistinct(t *testing.T) {
	a := &AggOp{
		OpName: "a", In: StreamSource(0),
		GroupBy: []RowFn{col(0)},
		Aggs:    []AggFunc{{Kind: exec.AggCountDistinct, Arg: col(1)}, {Kind: exec.AggMax, Arg: col(1)}},
	}
	out, err := a.Eval(nil, [][]exec.Row{{
		intRow(1, 5), intRow(1, 5), intRow(1, 9),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0][1].I != 2 || out[0][2].I != 9 {
		t.Errorf("count distinct = %v, want [1 2 9]", out)
	}
}

func TestFilterProjectSortOps(t *testing.T) {
	filter := &FilterOp{
		OpName: "f", In: StreamSource(0),
		Pred: func(r exec.Row) (bool, error) { return r[0].I > 1, nil },
	}
	project := &ProjectOp{
		OpName: "p", In: OpSource("f"),
		Exprs: []RowFn{col(1), func(r exec.Row) (exec.Value, error) {
			return exec.Int(r[0].I * 10), nil
		}},
	}
	sortOp := &SortOp{
		OpName: "s", In: OpSource("p"),
		Keys:  []SortKey{{Fn: col(0), Desc: true}},
		Limit: -1,
	}
	// Ops listed out of dependency order: compilation must reorder them.
	g, err := compileGraph(graphJob(sortOp, project, filter))
	if err != nil {
		t.Fatal(err)
	}
	var values []string
	for _, r := range []exec.Row{intRow(1, 100), intRow(2, 300), intRow(3, 200)} {
		values = append(values, EncodeTagged(0, nil, r))
	}
	sc, err := g.bucket("", values)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 2*len(g.ops))
	if err := g.eval(sc, counts); err != nil {
		t.Fatal(err)
	}
	results := make(map[string][]exec.Row)
	for i, op := range g.ops {
		results[op.Name()] = sc.results[i]
	}
	if len(results["f"]) != 2 {
		t.Errorf("filter = %v", results["f"])
	}
	s := results["s"]
	if len(s) != 2 || s[0][0].I != 300 || s[1][0].I != 200 {
		t.Errorf("sorted = %v, want [[300 20] [200 30]]", s)
	}
	// Rows in, rows out per op in evaluation order f, p, s.
	if want := []int64{3, 2, 2, 2, 2, 2}; !slices.Equal(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
}

// graphJob wraps ops in a minimal valid common job reading stream 0 and
// writing the first op.
func graphJob(ops ...Op) *CommonJob {
	return &CommonJob{
		Name: "g",
		Inputs: []CommonInput{{
			Path: "p", Decode: exec.DecodeRowUntyped,
			Key:     func(exec.Row) (string, error) { return "", nil },
			Streams: []Stream{{ID: 0}},
		}},
		Ops:     ops,
		Outputs: []OutputSpec{{Op: ops[0].Name()}},
		Output:  "o",
	}
}

func TestSortOpLimit(t *testing.T) {
	s := &SortOp{
		OpName: "s", In: StreamSource(0),
		Keys:  []SortKey{{Fn: col(0)}},
		Limit: 2,
	}
	out, err := s.Eval(nil, [][]exec.Row{{intRow(3), intRow(1), intRow(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0][0].I != 1 || out[1][0].I != 2 {
		t.Errorf("limited sort = %v", out)
	}
	// LIMIT 0 keeps nothing; a negative limit means no LIMIT.
	for limit, want := range map[int]int{0: 0, -1: 3} {
		s.Limit = limit
		out, err := s.Eval(nil, [][]exec.Row{{intRow(3), intRow(1), intRow(2)}})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != want {
			t.Errorf("Limit %d: %d rows, want %d", limit, len(out), want)
		}
	}
}

func TestBuildGraphErrors(t *testing.T) {
	pass := func(exec.Row) (bool, error) { return true, nil }
	// Unknown op source.
	_, err := graphJob(&FilterOp{OpName: "f", In: OpSource("missing"), Pred: pass}).Build()
	if err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("err = %v, want unknown op", err)
	}
	// Cycle.
	a := &FilterOp{OpName: "a", In: OpSource("b"), Pred: pass}
	b := &FilterOp{OpName: "b", In: OpSource("a"), Pred: pass}
	_, err = graphJob(a, b).Build()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("err = %v, want cycle", err)
	}
	// Duplicate names.
	_, err = graphJob(a, a).Build()
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("err = %v, want duplicate", err)
	}
}
