package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"ysmart/internal/obs"
)

// cancelLines is the input of the cancellation tests.
func cancelLines() []string {
	lines := make([]string, 400)
	for i := range lines {
		lines[i] = "alpha beta gamma"
	}
	return lines
}

// TestRunChainContextCancel cancels the chain from inside the second job's
// mapper: RunChainContext must fail with context.Canceled, the cancelled
// job must write no output, and the job after it must never start. The
// cancelled job is tried with and without a reduce phase, over one map
// task and over about a hundred (of which only the ones already started
// may run), at one worker and at eight.
func TestRunChainContextCancel(t *testing.T) {
	lines := cancelLines()
	for _, mapOnly := range []bool{false, true} {
		for _, scale := range []float64{1, 1e6} { // one map task, ~100
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("mapOnly=%t/scale=%g/workers=%d", mapOnly, scale, workers), func(t *testing.T) {
					runCancelCase(t, lines, mapOnly, scale, workers)
				})
			}
		}
	}
}

// runCancelCase runs one case of TestRunChainContextCancel.
func runCancelCase(t *testing.T, lines []string, mapOnly bool, scale float64, workers int) {
	cluster := SmallCluster()
	cluster.DataScale = scale
	dfs := NewDFS()
	dfs.Write("in", lines)
	e, err := NewEngine(dfs, cluster)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(workers)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	first := wordCountJob("in", "mid")
	first.Name = "first"
	cancelled := wordCountJob("in", "out")
	cancelled.Name = "second"
	cancelled.DependsOn = []*Job{first}
	var mapped atomic.Int64
	cancelled.Inputs[0].Mapper = MapperFunc(func(line string, emit Emit) error {
		mapped.Add(1)
		cancel()
		emit(line, line)
		return nil
	})
	if mapOnly {
		cancelled.Reducer = nil
	}
	var lastRan atomic.Bool
	last := wordCountJob("out", "final")
	last.Name = "last"
	last.DependsOn = []*Job{cancelled}
	last.Inputs[0].Mapper = MapperFunc(func(string, Emit) error {
		lastRan.Store(true)
		return nil
	})

	_, err = e.RunChainContext(ctx, []*Job{first, cancelled, last})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "job second") {
		t.Errorf("err = %v, want it to name the cancelled job", err)
	}
	if !dfs.Exists("mid") {
		t.Error("the job before the cancellation wrote no output")
	}
	if dfs.Exists("out") {
		t.Error("the cancelled job wrote its output file")
	}
	if scale > 1 && mapped.Load() >= int64(len(lines)) {
		t.Error("every map task ran after the cancellation")
	}
	if lastRan.Load() || dfs.Exists("final") {
		t.Error("a job after the cancelled one ran")
	}

	// The engine is reusable: the next chain runs under its own
	// context, not the cancelled one.
	if _, err := e.RunChain([]*Job{wordCountJob("in", "again")}); err != nil {
		t.Fatalf("chain after cancellation: %v", err)
	}
}

// TestRunChainContextStopsBetweenJobs cancels from the first job's
// sequential reducer, where no task boundary follows: the first job
// completes, and the chain stops before the second one starts — it does
// not even read its input.
func TestRunChainContextStopsBetweenJobs(t *testing.T) {
	dfs := NewDFS()
	dfs.Write("in", cancelLines())
	e, err := NewEngine(dfs, SmallCluster())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.Instrument(nil, reg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := wordCountJob("in", "mid")
	first.Name = "first"
	reduce := first.Reducer
	first.Reducer = ReducerFunc(func(key string, values []string, emit func(string)) error {
		cancel()
		return reduce.Reduce(key, values, emit)
	})
	second := wordCountJob("mid", "out")
	second.Name = "second"
	second.DependsOn = []*Job{first}

	_, err = e.RunChainContext(ctx, []*Job{first, second})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want one wrapping context.Canceled", err)
	}
	if !dfs.Exists("mid") {
		t.Error("the job that cancelled during its reduce wrote no output")
	}
	if dfs.Exists("out") {
		t.Error("the job after the cancellation ran")
	}
	if got := reg.Value("ysmart_dfs_reads_total"); got != 1 {
		t.Errorf("%v DFS reads, want only the first job's input", got)
	}
}
