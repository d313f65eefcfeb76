package cmf

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ysmart/internal/exec"
	"ysmart/internal/mapreduce"
)

// Stream is one merged job's view of a common input: its map-side selection
// over the shared table scan.
type Stream struct {
	ID int
	// Filter is the stream's selection; nil accepts every row.
	Filter RowPred
}

// CommonInput describes one map-side input of a common job.
type CommonInput struct {
	Path string
	// Decode parses one input line into a row (typically a schema-typed
	// decode for base tables, or a tag-stripping decode for intermediate
	// files written by earlier common jobs).
	Decode func(line string) (exec.Row, error)
	// Key computes the encoded partition key of a row: normally
	// exec.EncodeKey of the key values, or exec.EncodeOrderedKey for
	// distributed sorts, whose key byte-order must equal value order (such
	// keys are opaque; see CommonJob.OpaqueKeys). All streams of an input
	// share the key — that is precisely the transit-correlation condition
	// that allowed the merge.
	Key func(exec.Row) (string, error)
	// Project reduces the decoded row to the union of the columns any
	// stream needs; nil keeps the whole row.
	Project func(exec.Row) exec.Row
	Streams []Stream
}

// OutputSpec names an operator whose per-key results the job writes.
type OutputSpec struct {
	Op string
	// Tag distinguishes this operator's rows in the shared output file when
	// the job writes results of several merged jobs (§VI.B). Single-output
	// jobs leave it empty.
	Tag string
}

// CommonJob is the translator-facing description of one merged MapReduce
// job: shared inputs, the per-key operator graph, and which operators'
// results are written.
type CommonJob struct {
	Name    string
	Inputs  []CommonInput
	Ops     []Op
	Outputs []OutputSpec
	// Output is the DFS path the job writes.
	Output         string
	NumReduceTasks int
	// CombineOp optionally names a FromPartials AggOp to drive map-side
	// partial aggregation (Hive's hash-aggregate map phase). It requires a
	// single input with a single unfiltered-or-filtered stream and
	// decomposable aggregates.
	CombineOp string
	// OpaqueKeys marks the reduce keys as non-decodable (order-preserving
	// binary encodings); the reducer then passes a nil key row to the
	// operator graph, which none of the operators consult.
	OpaqueKeys bool
}

// Build lowers the common job onto the MapReduce engine.
func (cj *CommonJob) Build() (*mapreduce.Job, error) {
	if err := cj.validate(); err != nil {
		return nil, err
	}

	streamInput := make(map[int]int) // stream ID -> input index
	for ii, in := range cj.Inputs {
		for _, st := range in.Streams {
			streamInput[st.ID] = ii
		}
	}

	job := &mapreduce.Job{
		Name:           cj.Name,
		Output:         cj.Output,
		NumReduceTasks: cj.NumReduceTasks,
	}
	for ii := range cj.Inputs {
		in := cj.Inputs[ii]
		idx := ii
		job.Inputs = append(job.Inputs, mapreduce.Input{
			Path:   in.Path,
			Mapper: commonMapper(idx, in),
		})
	}
	g, err := compileGraph(cj)
	if err != nil {
		return nil, fmt.Errorf("common job %s: %w", cj.Name, err)
	}
	job.Reducer = &commonReducer{g: g}

	if cj.CombineOp != "" {
		comb, err := cj.buildCombiner()
		if err != nil {
			return nil, err
		}
		job.Combiner = comb
	}
	return job, nil
}

func (cj *CommonJob) validate() error {
	if cj.Name == "" {
		return fmt.Errorf("common job has no name")
	}
	if len(cj.Inputs) == 0 {
		return fmt.Errorf("common job %s has no inputs", cj.Name)
	}
	seenStream := make(map[int]bool)
	for ii, in := range cj.Inputs {
		if in.Decode == nil || in.Key == nil {
			return fmt.Errorf("common job %s input %d needs Decode and Key", cj.Name, ii)
		}
		if len(in.Streams) == 0 {
			return fmt.Errorf("common job %s input %d has no streams", cj.Name, ii)
		}
		for _, st := range in.Streams {
			if seenStream[st.ID] {
				return fmt.Errorf("common job %s: duplicate stream id %d", cj.Name, st.ID)
			}
			seenStream[st.ID] = true
		}
	}
	opNames := make(map[string]bool, len(cj.Ops))
	for _, op := range cj.Ops {
		if op.Name() == "" {
			return fmt.Errorf("common job %s has an unnamed op", cj.Name)
		}
		if opNames[op.Name()] {
			return fmt.Errorf("common job %s: duplicate op %q", cj.Name, op.Name())
		}
		opNames[op.Name()] = true
	}
	for _, op := range cj.Ops {
		for _, src := range op.Sources() {
			if src.IsOp() {
				if !opNames[src.Op] {
					return fmt.Errorf("common job %s: op %q reads unknown op %q", cj.Name, op.Name(), src.Op)
				}
			} else if !seenStream[src.Stream] {
				return fmt.Errorf("common job %s: op %q reads unknown stream %d", cj.Name, op.Name(), src.Stream)
			}
		}
	}
	if len(cj.Outputs) == 0 {
		return fmt.Errorf("common job %s writes nothing", cj.Name)
	}
	tags := make(map[string]bool)
	for _, out := range cj.Outputs {
		if !opNames[out.Op] {
			return fmt.Errorf("common job %s outputs unknown op %q", cj.Name, out.Op)
		}
		if len(cj.Outputs) > 1 && out.Tag == "" {
			return fmt.Errorf("common job %s: multi-output jobs need distinct tags", cj.Name)
		}
		if out.Tag != "" && tags[out.Tag] {
			return fmt.Errorf("common job %s: duplicate output tag %q", cj.Name, out.Tag)
		}
		tags[out.Tag] = true
	}
	return nil
}

// commonMapper implements §VI.A: decode, evaluate every stream's selection,
// and emit one tagged common pair when at least one stream wants the row.
func commonMapper(inputIdx int, in CommonInput) mapreduce.Mapper {
	return mapreduce.MapperFunc(func(line string, emit mapreduce.Emit) error {
		row, err := in.Decode(line)
		if err != nil {
			return err
		}
		if row == nil {
			return nil // decoder filtered the line (e.g. foreign tag)
		}
		var exclBuf [8]int
		excluded := exclBuf[:0]
		matched := 0
		for _, st := range in.Streams {
			ok := true
			if st.Filter != nil {
				ok, err = st.Filter(row)
				if err != nil {
					return err
				}
			}
			if ok {
				matched++
			} else {
				excluded = append(excluded, st.ID)
			}
		}
		if matched == 0 {
			return nil
		}
		key, err := in.Key(row)
		if err != nil {
			return err
		}
		common := row
		if in.Project != nil {
			common = in.Project(row)
		}
		emit(key, EncodeTagged(inputIdx, excluded, common))
		return nil
	})
}

// commonReducer implements Algorithm 1: bucket the key group's values into
// the streams allowed to see them, evaluate the operator graph, and write
// the designated outputs (tagged when the job has several). It counts the
// rows consumed by every operator so the cost model can charge the merged
// reducer's real computation (the paper's §VII.C observation that merged
// reduce phases "execute more lines of code").
type commonReducer struct {
	g *graph // compiled by Build; read-only
	// mu guards the accounting below. Reduce itself is pure per key group —
	// the operator graph evaluates on stack-local state — so the engine may
	// run key groups concurrently (see ConcurrentReduce); only the counter
	// folds serialize, and sums commute, so totals are identical at any
	// worker count.
	mu   sync.Mutex
	work int64
	// inRows/outRows accumulate per-operator row counts (indexed like g.ops)
	// across all key groups; the engine snapshots them around a job to
	// report the per-job delta (see mapreduce.DispatchReporter). Both stay
	// nil until the first key group.
	inRows, outRows []int64
}

// ConcurrentReduce implements mapreduce.ConcurrentReducer: key groups are
// independent and the shared counters above are mutex-folded.
func (cr *commonReducer) ConcurrentReduce() {}

// Reduce implements mapreduce.Reducer.
func (cr *commonReducer) Reduce(key string, values []string, emit func(string)) error {
	g := cr.g
	sc, err := g.bucket(key, values)
	if err != nil {
		return err
	}
	var small [32]int64
	counts := small[:0]
	if 2*len(g.ops) > len(small) {
		counts = make([]int64, 0, 2*len(g.ops))
	}
	counts = counts[:2*len(g.ops)]
	if err := g.eval(sc, counts); err != nil {
		return err
	}
	cr.mu.Lock()
	cr.record(counts)
	cr.mu.Unlock()
	var lineBuf [256]byte
	for _, out := range g.outputs {
		for _, r := range sc.results[out.op] {
			line := lineBuf[:0]
			if out.tag != "" {
				line = append(line, out.tag...)
				line = append(line, outputTagSep...)
			}
			emit(string(exec.AppendRow(line, r)))
		}
	}
	return nil
}

// ReduceWork implements mapreduce.ReduceWorkReporter.
func (cr *commonReducer) ReduceWork() int64 {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.work
}

// record folds one key group's per-operator counts (see graph.eval) into
// the cumulative totals. The caller holds cr.mu.
func (cr *commonReducer) record(counts []int64) {
	if cr.inRows == nil {
		cr.inRows = make([]int64, len(cr.g.ops))
		cr.outRows = make([]int64, len(cr.g.ops))
	}
	for i := range cr.g.ops {
		cr.inRows[i] += counts[2*i]
		cr.outRows[i] += counts[2*i+1]
		if cr.g.relational[i] {
			cr.work += counts[2*i]
		}
	}
}

// DispatchCounts implements mapreduce.DispatchReporter: cumulative per-
// operator row counts sorted by operator name.
func (cr *commonReducer) DispatchCounts() []mapreduce.OpDispatch {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	out := make([]mapreduce.OpDispatch, 0, len(cr.inRows))
	for i := range cr.inRows {
		out = append(out, mapreduce.OpDispatch{Op: cr.g.ops[i].Name(), InRows: cr.inRows[i], OutRows: cr.outRows[i]})
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Op < out[k].Op })
	return out
}

// buildCombiner wires map-side partial aggregation for a single-aggregation
// job (paper §I footnote 2 — the optimization that makes Hive competitive
// on plain aggregation queries).
func (cj *CommonJob) buildCombiner() (mapreduce.Combiner, error) {
	if len(cj.Inputs) != 1 || len(cj.Inputs[0].Streams) != 1 {
		return nil, fmt.Errorf("common job %s: combiner requires a single input with one stream", cj.Name)
	}
	var agg *AggOp
	for _, op := range cj.Ops {
		if op.Name() == cj.CombineOp {
			a, ok := op.(*AggOp)
			if !ok {
				return nil, fmt.Errorf("common job %s: combine op %q is not an aggregation", cj.Name, cj.CombineOp)
			}
			agg = a
		}
	}
	if agg == nil {
		return nil, fmt.Errorf("common job %s: combine op %q not found", cj.Name, cj.CombineOp)
	}
	if !agg.FromPartials {
		return nil, fmt.Errorf("common job %s: combine op %q must consume partials", cj.Name, cj.CombineOp)
	}
	kinds := make([]exec.AggKind, len(agg.Aggs))
	for i, a := range agg.Aggs {
		kinds[i] = a.Kind
	}
	if !Decomposable(kinds) {
		return nil, fmt.Errorf("common job %s: aggregates are not decomposable", cj.Name)
	}
	inputIdx := 0
	return mapreduce.CombinerFunc(func(key string, values []string) ([]string, error) {
		groupVals, err := exec.DecodeRowUntyped(key)
		if err != nil {
			return nil, err
		}
		rows := make([]exec.Row, len(values))
		var slab exec.Row
		if len(values) > 0 {
			slab = make(exec.Row, 0, len(values)*(strings.Count(values[0], "\t")+1))
		}
		for i, v := range values {
			tv, rest, err := decodeTagged(slab, v)
			if err != nil {
				return nil, err
			}
			rows[i], slab = tv.Row, rest
		}
		partial, err := buildPartialRow(groupVals, agg.Aggs, rows)
		if err != nil {
			return nil, err
		}
		return []string{EncodeTagged(inputIdx, nil, partial)}, nil
	}), nil
}
