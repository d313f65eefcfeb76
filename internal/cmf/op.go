package cmf

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"ysmart/internal/exec"
	"ysmart/internal/sqlparser"
)

// Source names where an operator's input rows come from: either a mapper
// stream (a merged job's map output) or the per-key results of another
// operator in the same common job (a post-job computation input).
type Source struct {
	Stream int    // valid when Op == ""
	Op     string // non-empty for post-job inputs
}

// StreamSource references mapper stream id.
func StreamSource(id int) Source { return Source{Stream: id} }

// OpSource references another operator's results.
func OpSource(name string) Source { return Source{Op: name} }

// IsOp reports whether the source is another operator.
func (s Source) IsOp() bool { return s.Op != "" }

// String renders the source for diagnostics and DOT labels.
func (s Source) String() string {
	if s.IsOp() {
		return "op:" + s.Op
	}
	return fmt.Sprintf("stream:%d", s.Stream)
}

// RowPred evaluates a predicate over a row.
type RowPred func(exec.Row) (bool, error)

// RowFn computes a value from a row.
type RowFn func(exec.Row) (exec.Value, error)

// Op is one operator of a common job's per-key dataflow. Operators are
// evaluated once per reduce key over the rows of that key group.
type Op interface {
	// Name identifies the operator inside the job.
	Name() string
	// Sources lists the operator's inputs.
	Sources() []Source
	// Eval computes the operator's result rows for one key group. inputs
	// holds the rows of each source in Sources() order.
	Eval(key exec.Row, inputs [][]exec.Row) ([]exec.Row, error)
}

// ---------------------------------------------------------------------------
// JoinOp
// ---------------------------------------------------------------------------

// JoinOp joins two inputs within a key group. Because merged jobs share the
// partition key, the equi-join condition is already satisfied by key
// equality; only the residual predicate remains to be checked per pair
// (paper §IV.B: "join with the same partition").
type JoinOp struct {
	OpName      string
	Left, Right Source
	// LeftProj/RightProj select columns of stream rows (nil = identity).
	// Projections are ignored for op sources, whose rows are already shaped.
	LeftProj, RightProj []int
	// LeftWidth/RightWidth are the input row widths after projection, used
	// for null extension in outer joins.
	LeftWidth, RightWidth int
	Type                  sqlparser.JoinType
	// Residual, if non-nil, must pass for a pair to match; it sees the
	// concatenated (left ++ right) row.
	Residual RowPred
}

// Name implements Op.
func (j *JoinOp) Name() string { return j.OpName }

// Sources implements Op.
func (j *JoinOp) Sources() []Source { return []Source{j.Left, j.Right} }

// Eval implements Op. Each candidate pair is built in the slab's free
// space and handed back when the residual rejects it, so only matching
// pairs (and outer-join padding) consume memory.
func (j *JoinOp) Eval(_ exec.Row, inputs [][]exec.Row) ([]exec.Row, error) {
	left := projectRows(inputs[0], j.LeftProj, !j.Left.IsOp())
	right := projectRows(inputs[1], j.RightProj, !j.Right.IsOp())

	// Without a residual every pair matches; with one, expect about one
	// match per row of the larger side.
	expect := len(left) * len(right)
	if j.Residual != nil {
		expect = max(len(left), len(right))
	}
	out := make([]exec.Row, 0, expect)
	slab := newRowSlab(expect * (j.LeftWidth + j.RightWidth))
	keepRight := j.Type == sqlparser.RightOuterJoin || j.Type == sqlparser.FullOuterJoin
	var rightMatched []bool
	if keepRight {
		rightMatched = make([]bool, len(right))
	}
	for _, l := range left {
		matched := false
		for ri, r := range right {
			pair := slab.row(len(l) + len(r))
			copy(pair[copy(pair, l):], r)
			if j.Residual != nil {
				ok, err := j.Residual(pair)
				if err != nil {
					return nil, fmt.Errorf("join %s residual: %w", j.OpName, err)
				}
				if !ok {
					slab.release(len(pair))
					continue
				}
			}
			matched = true
			if keepRight {
				rightMatched[ri] = true
			}
			out = append(out, pair)
		}
		if !matched && (j.Type == sqlparser.LeftOuterJoin || j.Type == sqlparser.FullOuterJoin) {
			pair := slab.row(len(l) + j.RightWidth)
			fillNull(pair[copy(pair, l):])
			out = append(out, pair)
		}
	}
	if keepRight {
		for ri, r := range right {
			if !rightMatched[ri] {
				pair := slab.row(j.LeftWidth + len(r))
				fillNull(pair[:j.LeftWidth])
				copy(pair[j.LeftWidth:], r)
				out = append(out, pair)
			}
		}
	}
	return out, nil
}

func fillNull(r exec.Row) {
	for i := range r {
		r[i] = exec.Null()
	}
}

func projectRows(rows []exec.Row, proj []int, apply bool) []exec.Row {
	if !apply || proj == nil {
		return rows
	}
	out := make([]exec.Row, len(rows))
	slab := newRowSlab(len(rows) * len(proj))
	for i, r := range rows {
		pr := slab.row(len(proj))
		for pi, idx := range proj {
			pr[pi] = r[idx]
		}
		out[i] = pr
	}
	return out
}

// rowSlab cuts rows out of shared backing arrays, so a batch of rows costs
// a few allocations instead of one per row. A cut row keeps its array when
// the slab moves on to a fresh one, and its capacity ends at its length,
// so appending to it cannot clobber a neighbour.
type rowSlab struct {
	buf  exec.Row
	next int // capacity of the next backing array
}

// newRowSlab returns a slab whose first backing array holds size values.
func newRowSlab(size int) rowSlab { return rowSlab{next: size} }

// row cuts an n-value row off the slab.
func (s *rowSlab) row(n int) exec.Row {
	if cap(s.buf)-len(s.buf) < n {
		size := max(s.next, n, 16)
		s.buf = make(exec.Row, 0, size)
		s.next = 2 * size
	}
	start := len(s.buf)
	s.buf = s.buf[:start+n]
	return s.buf[start : start+n : start+n]
}

// release hands back the most recently cut row, of n values.
func (s *rowSlab) release(n int) { s.buf = s.buf[:len(s.buf)-n] }

// ---------------------------------------------------------------------------
// AggOp
// ---------------------------------------------------------------------------

// AggFunc is one aggregate computed by an AggOp.
type AggFunc struct {
	Kind exec.AggKind
	// Arg computes the aggregate input from a row; nil for COUNT(*).
	Arg RowFn
}

// AggOp groups its input rows (within the key group) by the GroupBy columns
// and computes aggregates. Its output rows are the group values followed by
// the aggregate results. Merged aggregations are correct because job-flow
// correlation guarantees the reduce partition key is a subset of the
// grouping columns (paper §IV.A scenario 1).
type AggOp struct {
	OpName string
	In     Source
	InProj []int // projection applied to stream rows (nil = identity)
	// GroupBy computes the grouping values from an input row; empty means a
	// single (global-within-key) group.
	GroupBy []RowFn
	Aggs    []AggFunc
	// FromPartials switches the op to merge combiner-produced partial rows
	// (group values ++ partial fields) instead of raw rows.
	FromPartials bool
}

// Name implements Op.
func (a *AggOp) Name() string { return a.OpName }

// Sources implements Op.
func (a *AggOp) Sources() []Source { return []Source{a.In} }

// linearGroups is how many groups an AggOp finds by scanning before it
// indexes them in a map; most key groups hold a single group.
const linearGroups = 8

// Eval implements Op. Group keys are rendered into a reused buffer and
// kept back to back in one byte slice; a group's output row and
// accumulators are allocated only when the group is first seen.
func (a *AggOp) Eval(_ exec.Row, inputs [][]exec.Row) ([]exec.Row, error) {
	rows := projectRows(inputs[0], a.InProj, !a.In.IsOp())
	if a.FromPartials {
		return a.evalFromPartials(rows)
	}

	// A group's row holds its group values, then (once the input is
	// consumed) its aggregate results; its key is keys[keyStart:keyEnd].
	type group struct {
		row              exec.Row
		keyStart, keyEnd int
	}
	var (
		groupBuf [linearGroups]group
		keyStore [256]byte
		accBuf   [2 * linearGroups]exec.Accumulator
		keyBuf   [64]byte
	)
	groups, keys, accs := groupBuf[:0], keyStore[:0], accBuf[:0]
	var index map[string]int
	nGroup := len(a.GroupBy)
	width := nGroup + len(a.Aggs)
	slab := newRowSlab(width)
	for _, r := range rows {
		// Evaluate the group values straight into a candidate output row,
		// handed back to the slab when the group already exists.
		vals := slab.row(width)
		key := keyBuf[:0]
		for i, fn := range a.GroupBy {
			v, err := fn(r)
			if err != nil {
				return nil, fmt.Errorf("agg %s group: %w", a.OpName, err)
			}
			vals[i] = v
			if i > 0 {
				key = append(key, '\t')
			}
			key = exec.AppendField(key, v)
		}
		gi := -1
		if index != nil {
			if i, ok := index[string(key)]; ok {
				gi = i
			}
		} else {
			for i, g := range groups {
				if string(keys[g.keyStart:g.keyEnd]) == string(key) {
					gi = i
					break
				}
			}
		}
		if gi >= 0 {
			slab.release(width)
		} else {
			gi = len(groups)
			groups = append(groups, group{row: vals, keyStart: len(keys), keyEnd: len(keys) + len(key)})
			keys = append(keys, key...)
			for _, spec := range a.Aggs {
				accs = append(accs, exec.NewAccumulator(spec.Kind))
			}
			if index != nil {
				index[string(key)] = gi
			} else if len(groups) > linearGroups {
				index = make(map[string]int, 2*len(groups))
				for i, g := range groups {
					index[string(keys[g.keyStart:g.keyEnd])] = i
				}
			}
		}
		gaccs := accs[gi*len(a.Aggs) : (gi+1)*len(a.Aggs)]
		for i, spec := range a.Aggs {
			if spec.Arg == nil {
				gaccs[i].Add(exec.Int(1))
				continue
			}
			v, err := spec.Arg(r)
			if err != nil {
				return nil, fmt.Errorf("agg %s arg: %w", a.OpName, err)
			}
			gaccs[i].Add(v)
		}
	}
	// A global aggregate over zero rows still yields one row (SQL
	// semantics); grouped aggregates yield no rows.
	if len(groups) == 0 && nGroup == 0 {
		out := make(exec.Row, len(a.Aggs))
		for i, spec := range a.Aggs {
			out[i] = exec.NewAccumulator(spec.Kind).Result()
		}
		return []exec.Row{out}, nil
	}
	out := make([]exec.Row, len(groups))
	for gi, g := range groups {
		for i, acc := range accs[gi*len(a.Aggs) : (gi+1)*len(a.Aggs)] {
			g.row[nGroup+i] = acc.Result()
		}
		out[gi] = g.row
	}
	if len(groups) > 1 {
		order := make([]int, len(groups))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(x, y int) int {
			return bytes.Compare(keys[groups[x].keyStart:groups[x].keyEnd], keys[groups[y].keyStart:groups[y].keyEnd])
		})
		sorted := make([]exec.Row, len(order))
		for i, gi := range order {
			sorted[i] = out[gi]
		}
		out = sorted
	}
	return out, nil
}

// evalFromPartials merges partial rows (see partial.go) that all belong to
// one final group: the reduce key of a combined aggregation job is the full
// grouping key, so every partial row in the group shares its group values.
func (a *AggOp) evalFromPartials(rows []exec.Row) ([]exec.Row, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	nGroup := len(a.GroupBy)
	states := make([]partialState, len(a.Aggs))
	for i, spec := range a.Aggs {
		states[i] = newPartialState(spec.Kind)
	}
	for _, r := range rows {
		off := nGroup
		for i, spec := range a.Aggs {
			w := partialWidth(spec.Kind)
			if off+w > len(r) {
				return nil, fmt.Errorf("agg %s: partial row too short (%d cols)", a.OpName, len(r))
			}
			if err := states[i].merge(r[off : off+w]); err != nil {
				return nil, fmt.Errorf("agg %s: %w", a.OpName, err)
			}
			off += w
		}
	}
	out := make(exec.Row, 0, nGroup+len(a.Aggs))
	out = append(out, rows[0][:nGroup]...)
	for _, st := range states {
		out = append(out, st.result())
	}
	return []exec.Row{out}, nil
}

// ---------------------------------------------------------------------------
// FilterOp, ProjectOp, SortOp
// ---------------------------------------------------------------------------

// FilterOp keeps input rows passing Pred.
type FilterOp struct {
	OpName string
	In     Source
	InProj []int
	Pred   RowPred
}

// Name implements Op.
func (f *FilterOp) Name() string { return f.OpName }

// Sources implements Op.
func (f *FilterOp) Sources() []Source { return []Source{f.In} }

// Eval implements Op.
func (f *FilterOp) Eval(_ exec.Row, inputs [][]exec.Row) ([]exec.Row, error) {
	rows := projectRows(inputs[0], f.InProj, !f.In.IsOp())
	out := make([]exec.Row, 0, len(rows))
	for _, r := range rows {
		ok, err := f.Pred(r)
		if err != nil {
			return nil, fmt.Errorf("filter %s: %w", f.OpName, err)
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// ProjectOp computes expression columns over each input row.
type ProjectOp struct {
	OpName string
	In     Source
	InProj []int
	Exprs  []RowFn
}

// Name implements Op.
func (p *ProjectOp) Name() string { return p.OpName }

// Sources implements Op.
func (p *ProjectOp) Sources() []Source { return []Source{p.In} }

// Eval implements Op.
func (p *ProjectOp) Eval(_ exec.Row, inputs [][]exec.Row) ([]exec.Row, error) {
	rows := projectRows(inputs[0], p.InProj, !p.In.IsOp())
	out := make([]exec.Row, 0, len(rows))
	slab := newRowSlab(len(rows) * len(p.Exprs))
	for _, r := range rows {
		pr := slab.row(len(p.Exprs))
		for i, fn := range p.Exprs {
			v, err := fn(r)
			if err != nil {
				return nil, fmt.Errorf("project %s: %w", p.OpName, err)
			}
			pr[i] = v
		}
		out = append(out, pr)
	}
	return out, nil
}

// SortKey is one ordering key of a SortOp.
type SortKey struct {
	Fn   RowFn
	Desc bool
}

// SortOp orders its input rows. It is used in single-reduce-task SORT jobs
// where the key group contains the whole data set.
type SortOp struct {
	OpName string
	In     Source
	InProj []int
	Keys   []SortKey
	// Limit keeps only the first Limit rows after sorting; a negative
	// Limit keeps them all.
	Limit int
}

// Name implements Op.
func (s *SortOp) Name() string { return s.OpName }

// Sources implements Op.
func (s *SortOp) Sources() []Source { return []Source{s.In} }

// Eval implements Op.
func (s *SortOp) Eval(_ exec.Row, inputs [][]exec.Row) ([]exec.Row, error) {
	rows := projectRows(inputs[0], s.InProj, !s.In.IsOp())
	out := make([]exec.Row, len(rows))
	copy(out, rows)
	var evalErr error
	sort.SliceStable(out, func(i, k int) bool {
		for _, key := range s.Keys {
			vi, err := key.Fn(out[i])
			if err != nil {
				evalErr = err
				return false
			}
			vk, err := key.Fn(out[k])
			if err != nil {
				evalErr = err
				return false
			}
			c := exec.Compare(vi, vk)
			if c == 0 {
				continue
			}
			if key.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if evalErr != nil {
		return nil, fmt.Errorf("sort %s: %w", s.OpName, evalErr)
	}
	if s.Limit >= 0 && len(out) > s.Limit {
		out = out[:s.Limit]
	}
	return out, nil
}
