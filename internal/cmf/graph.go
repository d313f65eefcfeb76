package cmf

import (
	"fmt"
	"strings"

	"ysmart/internal/exec"
)

// graph is a common job's operator graph compiled once, by Build: the
// operators in evaluation order with every input resolved to an index, so
// evaluating a key group needs no name lookups, maps or closures. It is
// immutable after compilation and shared by all concurrent key groups.
type graph struct {
	ops  []Op       // evaluation (topological) order
	srcs [][]srcRef // per op, its inputs in Sources() order
	// relational marks the operators whose input rows count as billable
	// reduce work: joins, aggregations and sorts. Chain filters and
	// projections are the column-level plumbing a one-to-one translation
	// runs (uncounted) in its map phases.
	relational []bool
	outputs    []graphOutput // CommonJob.Outputs, resolved
	maxSrcs    int
	opaqueKeys bool // see CommonJob.OpaqueKeys
	// streams numbers the job's streams densely, input by input; streams[i]
	// lists input i's streams.
	streams  [][]streamRef
	nStreams int
}

// srcRef is a resolved operator input: a dense stream number or the index
// of an earlier operator in evaluation order.
type srcRef struct {
	stream bool
	idx    int
}

// graphOutput is a resolved CommonJob output: the op index and its tag.
type graphOutput struct {
	op  int
	tag string
}

// streamRef pairs a stream ID with its dense number.
type streamRef struct {
	id, dense int
}

// compileGraph orders cj's operators so that every operator follows its
// sources, visiting them depth-first in Ops order. Build validates the job
// first, so names are unique and every source exists; only cycles are
// left to detect.
func compileGraph(cj *CommonJob) (*graph, error) {
	g := &graph{streams: make([][]streamRef, len(cj.Inputs)), opaqueKeys: cj.OpaqueKeys}
	dense := make(map[int]int)
	for ii, in := range cj.Inputs {
		for _, st := range in.Streams {
			dense[st.ID] = g.nStreams
			g.streams[ii] = append(g.streams[ii], streamRef{id: st.ID, dense: g.nStreams})
			g.nStreams++
		}
	}
	byName := make(map[string]Op, len(cj.Ops))
	for _, op := range cj.Ops {
		byName[op.Name()] = op
	}
	index := make(map[string]int, len(cj.Ops))
	visiting := make(map[string]bool)
	var visit func(op Op) error
	visit = func(op Op) error {
		if _, done := index[op.Name()]; done {
			return nil
		}
		if visiting[op.Name()] {
			return fmt.Errorf("op cycle through %q", op.Name())
		}
		visiting[op.Name()] = true
		var refs []srcRef
		for _, s := range op.Sources() {
			if !s.IsOp() {
				refs = append(refs, srcRef{stream: true, idx: dense[s.Stream]})
				continue
			}
			if err := visit(byName[s.Op]); err != nil {
				return err
			}
			refs = append(refs, srcRef{idx: index[s.Op]})
		}
		index[op.Name()] = len(g.ops)
		g.ops = append(g.ops, op)
		g.srcs = append(g.srcs, refs)
		g.maxSrcs = max(g.maxSrcs, len(refs))
		switch op.(type) {
		case *JoinOp, *AggOp, *SortOp:
			g.relational = append(g.relational, true)
		default:
			g.relational = append(g.relational, false)
		}
		return nil
	}
	for _, op := range cj.Ops {
		if err := visit(op); err != nil {
			return nil, err
		}
	}
	for _, out := range cj.Outputs {
		g.outputs = append(g.outputs, graphOutput{op: index[out.Op], tag: out.Tag})
	}
	return g, nil
}

// groupScratch is the per-key-group working memory of the common reducer,
// sized from the group and dropped when the group is done.
type groupScratch struct {
	key     exec.Row
	buckets [][]exec.Row // per dense stream, the rows it may see
	results [][]exec.Row // per op, its result rows
	inputs  [][]exec.Row // the current op's inputs
}

// bucket decodes a key group into the graph's streams (Algorithm 1): the
// key and every value row are decoded into one slab, and each row goes to
// the streams of its input that the value does not exclude.
func (g *graph) bucket(key string, values []string) (groupScratch, error) {
	width := 1
	if len(values) > 0 {
		width = strings.Count(values[0], "\t") + 1
	}
	slab := make(exec.Row, 0, strings.Count(key, "\t")+1+len(values)*width)
	var sc groupScratch
	if !g.opaqueKeys {
		var err error
		slab, err = exec.AppendRowUntyped(slab, key)
		if err != nil {
			return sc, err
		}
		sc.key = slab[:len(slab):len(slab)]
	}
	tagged := make([]TaggedValue, len(values))
	var small [16]int
	counts := small[:0]
	if g.nStreams > len(small) {
		counts = make([]int, 0, g.nStreams)
	}
	counts = counts[:g.nStreams]
	total := 0
	for i, v := range values {
		tv, rest, err := decodeTagged(slab, v)
		if err != nil {
			return sc, err
		}
		slab = rest
		if tv.Input < 0 || tv.Input >= len(g.streams) {
			return sc, fmt.Errorf("value references input %d of %d", tv.Input, len(g.streams))
		}
		for _, st := range g.streams[tv.Input] {
			if tv.Sees(st.id) {
				counts[st.dense]++
				total++
			}
		}
		tagged[i] = tv
	}
	lists := make([][]exec.Row, g.nStreams+len(g.ops)+g.maxSrcs)
	sc.buckets = lists[:g.nStreams]
	sc.results = lists[g.nStreams : g.nStreams+len(g.ops)]
	sc.inputs = lists[g.nStreams+len(g.ops):]
	store := make([]exec.Row, total)
	off := 0
	for d, n := range counts {
		sc.buckets[d] = store[off : off : off+n]
		off += n
	}
	for _, tv := range tagged {
		for _, st := range g.streams[tv.Input] {
			if tv.Sees(st.id) {
				sc.buckets[st.dense] = append(sc.buckets[st.dense], tv.Row)
			}
		}
	}
	return sc, nil
}

// eval runs the operators over one bucketed key group in evaluation order.
// counts receives, per op i, the rows it consumed at 2i and produced at
// 2i+1.
func (g *graph) eval(sc groupScratch, counts []int64) error {
	for i, op := range g.ops {
		in := sc.inputs[:len(g.srcs[i])]
		for k, s := range g.srcs[i] {
			if s.stream {
				in[k] = sc.buckets[s.idx]
			} else {
				in[k] = sc.results[s.idx]
			}
			counts[2*i] += int64(len(in[k]))
		}
		rows, err := op.Eval(sc.key, in)
		if err != nil {
			return err
		}
		sc.results[i] = rows
		counts[2*i+1] += int64(len(rows))
	}
	return nil
}
