package mapreduce

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"ysmart/internal/obs"
)

// Engine executes jobs against a DFS and costs them against a cluster
// model. It is not safe for concurrent use: callers drive one chain at a
// time. Internally, however, the engine fans map tasks, combiners, reduce
// key groups and fault-path re-executions out across a pool of worker
// goroutines (see parallel.go); results are gathered in deterministic task
// order, so output, stats and traces are byte-identical at any worker
// count.
type Engine struct {
	dfs     *DFS
	cluster *Cluster
	gapRNG  *rand.Rand
	workers int

	tracer  obs.Tracer
	metrics *obs.Registry
	// logger receives structured lifecycle events (chains, jobs, retries,
	// recomputes, node deaths). A nil logger is a no-op; like tracing,
	// logging only observes and never changes execution.
	logger *obs.Logger
	// simNow is the simulated clock: the end time of everything executed so
	// far on this engine. Span events are stamped with it, so traces from
	// successive chains on one engine share a single timeline.
	simNow float64
	// ctx is the context of the chain being run (nil outside
	// RunChainContext). forEachTask checks it before every work item, so
	// a cancelled chain stops at the next task boundary.
	ctx context.Context
}

// NewEngine builds an engine. The cluster must validate.
func NewEngine(dfs *DFS, cluster *Cluster) (*Engine, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		dfs:     dfs,
		cluster: cluster,
		gapRNG:  rand.New(rand.NewSource(cluster.Contention.Seed)),
		workers: DefaultWorkers(),
		tracer:  obs.Nop,
	}, nil
}

// DFS returns the engine's file system.
func (e *Engine) DFS() *DFS { return e.dfs }

// Cluster returns the engine's cluster model.
func (e *Engine) Cluster() *Cluster { return e.cluster }

// Instrument attaches a tracer and metrics registry to the engine and its
// DFS. Execution and counters are unaffected — tracing only observes. A
// nil tracer restores the no-op default.
func (e *Engine) Instrument(t obs.Tracer, r *obs.Registry) {
	if t == nil {
		t = obs.Nop
	}
	e.tracer = t
	e.metrics = r
	e.dfs.Instrument(t, r, e.Now)
}

// SetLogger attaches a structured event logger to the engine (nil turns
// logging off). Job lifecycle, retries, recomputes and node failures are
// logged as one JSON event per line, stamped with the simulated clock.
func (e *Engine) SetLogger(l *obs.Logger) { e.logger = l }

// Now returns the simulated clock in seconds.
func (e *Engine) Now() float64 { return e.simNow }

// RunChain executes jobs sequentially in dependency order (the way Hive
// drove its job chains) and returns per-job stats in execution order.
func (e *Engine) RunChain(jobs []*Job) (*ChainStats, error) {
	return e.RunChainContext(context.Background(), jobs)
}

// RunChainContext is RunChain under ctx: once ctx is done, the chain stops
// with ctx's error at the next job or task boundary. A job stopped during
// its map tasks or its concurrent reduce writes no output.
func (e *Engine) RunChainContext(ctx context.Context, jobs []*Job) (*ChainStats, error) {
	e.ctx = ctx
	defer func() { e.ctx = nil }()
	ordered, err := topoSort(jobs)
	if err != nil {
		return nil, err
	}
	stats := &ChainStats{}
	chainStart := e.simNow
	e.logger.Info("chain.start",
		obs.F("jobs", int64(len(ordered))), obs.F("sim_s", chainStart))
	// The chain span brackets every job (and survives early error returns
	// thanks to the deferred End — the pairing the spanpair analyzer
	// enforces); its byte totals are only known once the jobs have run.
	span := obs.Begin(e.tracer, "chain", fmt.Sprintf("chain(%d jobs)", len(ordered)),
		"driver", e.simNow, obs.F("jobs", int64(len(ordered))))
	defer func() {
		span.End(e.simNow,
			obs.F("map_input_bytes", stats.TotalMapInputBytes()),
			obs.F("shuffle_bytes", stats.TotalShuffleBytes()))
	}()
	for i, j := range ordered {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("job %s: %w", j.Name, err)
		}
		var gap float64
		if i > 0 {
			gap = e.nextGap()
		}
		if gap > 0 {
			if e.tracer.Enabled() {
				e.tracer.Emit(obs.SpanEvent("gap", "gap", "job:"+j.Name, e.simNow, gap))
			}
			e.simNow += gap
		}
		js, err := e.RunJob(j)
		if err != nil {
			e.logger.Error("chain.failed",
				obs.F("job", j.Name), obs.F("error", err.Error()), obs.F("sim_s", e.simNow))
			return nil, fmt.Errorf("job %s: %w", j.Name, err)
		}
		js.GapBefore = gap
		stats.Jobs = append(stats.Jobs, js)
	}
	if e.metrics != nil {
		e.metrics.Add("ysmart_engine_chains_total", 1)
		// The chain's end-to-end simulated latency distribution: the per-query
		// histogram behind the p50/p99 figures the load harness reports.
		e.metrics.Observe("ysmart_chain_sim_seconds", e.simNow-chainStart)
	}
	e.logger.Info("chain.done",
		obs.F("jobs", int64(len(ordered))),
		obs.F("sim_s", e.simNow),
		obs.F("total_s", e.simNow-chainStart),
		obs.F("scan_bytes", stats.TotalMapInputBytes()),
		obs.F("shuffle_bytes", stats.TotalShuffleBytes()))
	return stats, nil
}

// nextGap draws the contention-induced delay inserted before a job.
func (e *Engine) nextGap() float64 {
	c := e.cluster.Contention
	if !c.Enabled {
		return 0
	}
	return c.GapMin + e.gapRNG.Float64()*(c.GapMax-c.GapMin)
}

func topoSort(jobs []*Job) ([]*Job, error) {
	state := make(map[*Job]int, len(jobs)) // 0 unseen, 1 visiting, 2 done
	inSet := make(map[*Job]bool, len(jobs))
	for _, j := range jobs {
		inSet[j] = true
	}
	var out []*Job
	var visit func(j *Job) error
	visit = func(j *Job) error {
		switch state[j] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("dependency cycle through job %s", j.Name)
		}
		state[j] = 1
		for _, d := range j.DependsOn {
			if !inSet[d] {
				return fmt.Errorf("job %s depends on %s which is not in the chain", j.Name, d.Name)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[j] = 2
		out = append(out, j)
		return nil
	}
	for _, j := range jobs {
		if err := visit(j); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// kv is one map output pair.
type kv struct{ key, value string }

// mapTask is one map task's share of a job input, kept so the fault path
// can re-execute the task's user code on retries and recomputes.
type mapTask struct {
	input Input
	chunk []string
}

// mapTaskResult is one map task's contribution, produced on a worker and
// gathered by the driver in task order. pairs holds post-combine output;
// preBytes, the pre-combine output size, feeds the cost model's sort
// charge.
type mapTaskResult struct {
	pairs    []kv
	preBytes int64
	filtered int64 // lines the input's Prefilter rejected before the mapper
}

// runMapTask runs one map task's user code over its chunk: the input's
// prefilter, the mapper and, for jobs with a reducer, the combiner. The
// primary pass and every fault-path re-execution call it, so a replayed
// attempt runs exactly the code the first attempt ran.
func runMapTask(j *Job, task mapTask) (mapTaskResult, error) {
	var taskPairs []kv
	emit := func(key, value string) {
		taskPairs = append(taskPairs, kv{key, value})
	}
	var r mapTaskResult
	for _, line := range task.chunk {
		if task.input.Prefilter != nil && !task.input.Prefilter(line) {
			r.filtered++
			continue
		}
		if err := task.input.Mapper.Map(line, emit); err != nil {
			return r, fmt.Errorf("map %s: %w", task.input.Path, err)
		}
	}
	r.pairs = taskPairs
	for _, p := range taskPairs {
		r.preBytes += int64(len(p.key) + len(p.value) + 2)
	}
	if j.Reducer != nil && j.Combiner != nil {
		combined, err := combineTask(taskPairs, j.Combiner)
		if err != nil {
			return r, fmt.Errorf("combine: %w", err)
		}
		r.pairs = combined
	}
	return r, nil
}

// RunJob executes a single job: map over every input, optional combine per
// map task, shuffle/group, reduce, and write the output file. It returns
// the job's counters and simulated times, and advances the simulated clock
// past the job (emitting span events when a tracer is attached).
func (e *Engine) RunJob(j *Job) (*JobStats, error) {
	jobStart := e.simNow
	stats, err := e.runJob(j)
	if err != nil {
		return nil, err
	}
	e.finishJob(j, stats, jobStart)
	return stats, nil
}

// runJob is the execution body of RunJob, free of any clock/trace concerns.
func (e *Engine) runJob(j *Job) (*JobStats, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	cl := e.cluster
	stats := &JobStats{Name: j.Name, MapOnly: j.Reducer == nil}

	// ----- Map phase -----------------------------------------------------
	var tasks []mapTask
	for _, in := range j.Inputs {
		lines, err := e.dfs.Read(in.Path)
		if err != nil {
			return nil, err
		}
		inBytes := linesBytes(lines)
		stats.MapInputRecords += int64(len(lines))
		stats.MapInputBytes += inBytes

		// Number of map tasks is determined by the scaled input size.
		scaled := float64(inBytes) * cl.DataScale
		nTasks := int(math.Ceil(scaled / float64(cl.Cost.SplitSize)))
		if nTasks < 1 {
			nTasks = 1
		}
		stats.NumMapTasks += nTasks

		// Split actual lines into task chunks so per-task combining matches
		// Hadoop's per-task partial aggregation.
		for _, chunk := range splitChunks(lines, nTasks) {
			tasks = append(tasks, mapTask{input: in, chunk: chunk})
		}
	}
	// Map tasks (and their combiners) run concurrently on the worker pool:
	// each task writes only its own mapResults slot, and the gather below
	// walks slots in ascending task index, so map output order is exactly
	// the sequential engine's.
	mapResults := make([]mapTaskResult, len(tasks))
	err := e.forEachTask(len(tasks), func(i int) error {
		r, err := runMapTask(j, tasks[i])
		mapResults[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	var preCombineBytes int64
	var mapOutput []kv // post-combine pairs from all tasks
	var mapOnlyLines []string
	for _, r := range mapResults {
		preCombineBytes += r.preBytes
		stats.MapRecordsFiltered += r.filtered
		if j.Reducer == nil {
			for _, p := range r.pairs {
				mapOnlyLines = append(mapOnlyLines, p.value)
			}
			continue
		}
		mapOutput = append(mapOutput, r.pairs...)
	}

	var keys []string
	var groups map[string][]string
	if j.Reducer == nil {
		// Map-only jobs write straight to the DFS.
		e.dfs.Write(j.Output, mapOnlyLines)
		stats.MapOutputRecords = int64(len(mapOnlyLines))
		stats.MapOutputBytes = linesBytes(mapOnlyLines)
		stats.ReduceOutputRecords = stats.MapOutputRecords
		stats.ReduceOutputBytes = stats.MapOutputBytes
	} else if keys, groups, err = e.shuffleReduce(j, stats, mapOutput); err != nil {
		return nil, err
	}

	c := e.analyticCost(stats, preCombineBytes)
	if e.faultsActive() {
		if err := e.scheduleFaults(j, stats, c, tasks, keys, groups); err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// shuffleReduce groups the map output by key, runs the reducer over the
// groups in sorted key order and writes the job's output. It returns the
// sorted keys and their groups for fault-path reduce replays.
func (e *Engine) shuffleReduce(j *Job, stats *JobStats, mapOutput []kv) ([]string, map[string][]string, error) {
	cl := e.cluster
	stats.MapOutputRecords = int64(len(mapOutput))
	for _, p := range mapOutput {
		stats.MapOutputBytes += int64(len(p.key) + len(p.value) + 2)
	}
	stats.ShuffleBytes = stats.MapOutputBytes
	if cl.Compress {
		stats.ShuffleBytes = int64(float64(stats.ShuffleBytes) * cl.Cost.CompressionRatio)
	}

	// ----- Shuffle: partition and group ----------------------------------
	numReduce := j.NumReduceTasks
	if numReduce <= 0 {
		numReduce = cl.DefaultReduceTasks()
	}
	stats.NumReduceTasks = numReduce

	// Count each key's values first, so every group is a slice of one
	// backing array, filled in map-output order.
	counts := make(map[string]int)
	for _, p := range mapOutput {
		counts[p.key]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	values := make([]string, len(mapOutput))
	groups := make(map[string][]string, len(keys))
	off := 0
	for _, k := range keys {
		n := counts[k]
		groups[k] = values[off : off : off+n]
		off += n
	}
	for _, p := range mapOutput {
		groups[p.key] = append(groups[p.key], p.value)
	}
	stats.ReduceGroups = int64(len(keys))
	stats.ReduceInputRecords = int64(len(mapOutput))

	// ----- Reduce ---------------------------------------------------------
	var workStart int64
	if wr, ok := j.Reducer.(ReduceWorkReporter); ok {
		workStart = wr.ReduceWork()
	}
	var dispatchStart []OpDispatch
	if dr, ok := j.Reducer.(DispatchReporter); ok {
		dispatchStart = dr.DispatchCounts()
	}
	// Key groups run concurrently only for reducers that declare themselves
	// safe (ConcurrentReducer); each group emits into its own buffer and the
	// gather concatenates buffers in global sorted-key order, reproducing
	// the sequential engine's output exactly. Unmarked reducers may carry
	// per-call state whose evolution depends on call order, so they always
	// run sequentially over the sorted keys.
	var outLines []string
	if _, ok := j.Reducer.(ConcurrentReducer); ok && e.workers > 1 {
		outs := make([][]string, len(keys))
		err := e.forEachTask(len(keys), func(i int) error {
			k := keys[i]
			if err := j.Reducer.Reduce(k, groups[k], func(line string) { outs[i] = append(outs[i], line) }); err != nil {
				return fmt.Errorf("reduce key %q: %w", k, err)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		for _, o := range outs {
			outLines = append(outLines, o...)
		}
	} else {
		emitLine := func(line string) { outLines = append(outLines, line) }
		for _, k := range keys {
			if err := j.Reducer.Reduce(k, groups[k], emitLine); err != nil {
				return nil, nil, fmt.Errorf("reduce key %q: %w", k, err)
			}
		}
	}
	stats.ReduceWorkRecords = stats.ReduceInputRecords
	if wr, ok := j.Reducer.(ReduceWorkReporter); ok {
		if delta := wr.ReduceWork() - workStart; delta > stats.ReduceWorkRecords {
			stats.ReduceWorkRecords = delta
		}
	}
	if dr, ok := j.Reducer.(DispatchReporter); ok {
		stats.Dispatch = dispatchDelta(dispatchStart, dr.DispatchCounts())
	}
	e.dfs.Write(j.Output, outLines)
	stats.ReduceOutputRecords = int64(len(outLines))
	stats.ReduceOutputBytes = linesBytes(outLines)
	return keys, groups, nil
}

// combineTask groups one map task's output by key and applies the combiner.
func combineTask(pairs []kv, c Combiner) ([]kv, error) {
	byKey := make(map[string][]string)
	order := make([]string, 0, len(byKey))
	for _, p := range pairs {
		if _, ok := byKey[p.key]; !ok {
			order = append(order, p.key)
		}
		byKey[p.key] = append(byKey[p.key], p.value)
	}
	var out []kv
	for _, k := range order {
		vals, err := c.Combine(k, byKey[k])
		if err != nil {
			return nil, err
		}
		for _, v := range vals {
			out = append(out, kv{k, v})
		}
	}
	return out, nil
}

// splitChunks divides lines into n nearly equal contiguous chunks.
func splitChunks(lines []string, n int) [][]string {
	if n <= 1 || len(lines) <= 1 {
		return [][]string{lines}
	}
	if n > len(lines) {
		n = len(lines)
	}
	out := make([][]string, 0, n)
	per := len(lines) / n
	rem := len(lines) % n
	i := 0
	for c := 0; c < n; c++ {
		size := per
		if c < rem {
			size++
		}
		out = append(out, lines[i:i+size])
		i += size
	}
	return out
}

// partitionOf is the default hash partitioner (exported for tests of
// grouping invariants).
func partitionOf(key string, numReduce int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(numReduce))
}

// ---------------------------------------------------------------------------
// Cost model application
// ---------------------------------------------------------------------------

// mapCPURecords returns the effective record count charged the full
// MapCPUPerRecord: records an early filter rejected cost only the
// prefilter fraction of a map invocation, so installed prefilters lower
// the predicted map CPU (and PredictedTime) in proportion to their
// selectivity. With no prefilter installed it is exactly the scaled input
// record count, keeping fault-free costing byte-identical.
func mapCPURecords(s *JobStats, cm CostModel, scale float64) float64 {
	inRecords := float64(s.MapInputRecords) * scale
	filtered := float64(s.MapRecordsFiltered) * scale
	return inRecords - filtered*(1-cm.prefilterFactor())
}

// phaseCost is a job's analytic phase work: what the throughput model
// charges each phase before per-wave task overhead, the wave counts that
// overhead multiplies, and the shuffle time. Fault-free runs read their
// phase times straight off it; under a FaultPlan, scheduleFaults spreads
// the same work over concrete task attempts.
type phaseCost struct {
	mapWork, reduceWork   float64
	mapWaves, reduceWaves float64
	shuffle               float64
}

// analyticCost fills s's bottlenecks, startup and analytic phase times
// from its counters, sets PredictedTime to their total, and returns the
// phase work behind them. All byte/record quantities are scaled by the
// cluster DataScale first. Each phase is costed as the maximum of its
// disk-, network- and CPU-bound times (a throughput bottleneck model)
// plus per-wave task scheduling overhead. A map-only job writes its map
// output straight to the DFS with replication and has no shuffle or
// reduce phase.
func (e *Engine) analyticCost(s *JobStats, preCombineBytes int64) phaseCost {
	cl := e.cluster
	cm := cl.Cost
	scale := cl.DataScale
	nodes := cl.effectiveNodes()
	repl := float64(cm.HDFSReplication - 1)
	inBytes := float64(s.MapInputBytes) * scale
	var c phaseCost
	c.mapWaves = math.Ceil(float64(s.NumMapTasks) / cl.mapSlots())

	if s.MapOnly {
		outBytes := float64(s.ReduceOutputBytes) * scale
		mapDisk := (inBytes + outBytes) / (nodes * cm.DiskBandwidth)
		mapNet := outBytes * repl / (nodes * cm.NetworkBandwidth)
		mapCPU := mapCPURecords(s, cm, scale) * cm.MapCPUPerRecord / cl.mapSlots()
		c.mapWork = math.Max(mapDisk+mapNet, mapCPU) * cl.loadFactor()
		s.MapBottleneck = "disk+net"
		if mapCPU > mapDisk+mapNet {
			s.MapBottleneck = "cpu"
		}
	} else {
		preBytes := float64(preCombineBytes) * scale
		outBytes := float64(s.MapOutputBytes) * scale
		spillBytes := outBytes
		var compressCPU float64
		if cl.Compress {
			spillBytes *= cm.CompressionRatio
			compressCPU = outBytes * cm.CompressCPUPerByte
		}

		// Map phase. Compression runs inline in the spill path, so its CPU
		// cost adds to the phase rather than overlapping the disk time.
		mapDisk := (inBytes + spillBytes) / (nodes * cm.DiskBandwidth)
		mapCPU := (mapCPURecords(s, cm, scale)*cm.MapCPUPerRecord + preBytes*cm.SortCPUPerByte) / cl.mapSlots()
		c.mapWork = (math.Max(mapDisk, mapCPU) + compressCPU/cl.mapSlots()) * cl.loadFactor()
		s.MapBottleneck = "disk"
		if mapCPU > mapDisk {
			s.MapBottleneck = "cpu"
		}

		// Shuffle.
		shuffleBytes := float64(s.ShuffleBytes) * scale
		shuffleNet := shuffleBytes / (nodes * cm.NetworkBandwidth)
		var decompressCPU float64
		if cl.Compress {
			decompressCPU = shuffleBytes * cm.DecompressCPUPerByte / cl.reduceSlots()
		}
		c.shuffle = (shuffleNet + decompressCPU) * cl.loadFactor()

		// Reduce phase: read merged input from local disk, run the reduce
		// function, write output to the DFS (one local replica on disk, the
		// rest over the network).
		redInBytes := outBytes // decompressed size
		redRecords := float64(s.ReduceWorkRecords) * scale
		redOutBytes := float64(s.ReduceOutputBytes) * scale
		redDisk := (redInBytes + redOutBytes) / (nodes * cm.DiskBandwidth)
		redNet := redOutBytes * repl / (nodes * cm.NetworkBandwidth)
		redCPU := redRecords * cm.ReduceCPUPerRecord / cl.reduceSlots()
		c.reduceWork = math.Max(redDisk+redNet, redCPU) * cl.loadFactor()
		c.reduceWaves = math.Ceil(float64(s.NumReduceTasks) / cl.reduceSlots())
		s.ReduceBottleneck = "disk+net"
		if redCPU > redDisk+redNet {
			s.ReduceBottleneck = "cpu"
		}
		s.ShuffleTime = c.shuffle
		s.ReduceTime = c.reduceWork + c.reduceWaves*cm.TaskOverhead
	}
	s.MapTime = c.mapWork + c.mapWaves*cm.TaskOverhead
	s.StartupTime = cm.JobStartup
	// The analytic path IS the prediction, so its drift is exactly 1; a
	// fault-injected run keeps this total while the schedule stretches
	// the phase times.
	s.PredictedTime = s.StartupTime + s.MapTime + s.ShuffleTime + s.ReduceTime
	return c
}
