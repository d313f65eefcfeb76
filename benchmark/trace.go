package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
)

// recorder keeps the traced pass's spans in memory. Every span has an id
// and the id of the span that caused it; the spans of one query share the
// request span as their root.
type recorder struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []obs.Event
	total map[string]time.Duration // summed span time per span name
	count map[string]int64
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), total: map[string]time.Duration{}, count: map[string]int64{}}
}

// openSpan is a started span; end records it.
type openSpan struct {
	r           *recorder
	id, parent  int64
	name, track string
	start       time.Time
}

// begin starts a span on track; parent 0 makes it a request (root) span.
func (r *recorder) begin(track, name string, parent int64) openSpan {
	return openSpan{r: r, id: r.nextID.Add(1), parent: parent, name: name, track: track, start: time.Now()}
}

// end records the span and returns its duration.
func (s openSpan) end(args ...obs.Field) time.Duration {
	d := time.Since(s.start)
	ev := obs.SpanEvent("bench", s.name, s.track, s.start.Sub(s.r.origin).Seconds(), d.Seconds(),
		append([]obs.Field{obs.F("id", s.id), obs.F("parent", s.parent)}, args...)...)
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, ev)
	s.r.total[s.name] += d
	s.r.count[s.name]++
	s.r.mu.Unlock()
	return d
}

// meanOf is the mean duration of the named spans in the given unit.
func (r *recorder) meanOf(name string, unit time.Duration) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ratio(float64(r.total[name])/float64(unit), float64(r.count[name]))
}

// write renders the spans as Chrome trace-event JSON into dir.
func (r *recorder) write(dir, file string) error {
	r.mu.Lock()
	data := obs.ChromeTrace(r.spans)
	r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}

// Callback kinds timed by the job wrappers.
const (
	mapCall = iota
	combineCall
	reduceCall
	numCalls
)

// callbackClock folds the per-record callback intervals of one RunChain:
// busy time per callback kind, and the wall time covered by at least one
// running callback (the union of the intervals across workers). No
// per-record span is kept.
type callbackClock struct {
	busy [numCalls]atomic.Int64 // nanoseconds

	mu         sync.Mutex
	active     int
	coverStart time.Time
	covered    time.Duration
}

// enter marks a callback as running and returns its start time.
func (c *callbackClock) enter() time.Time {
	c.mu.Lock()
	now := time.Now()
	if c.active == 0 {
		c.coverStart = now
	}
	c.active++
	c.mu.Unlock()
	return now
}

// exit marks a callback of the given kind, started at t0, as done.
func (c *callbackClock) exit(kind int, t0 time.Time) {
	c.mu.Lock()
	now := time.Now()
	c.active--
	if c.active == 0 {
		c.covered += now.Sub(c.coverStart)
	}
	c.mu.Unlock()
	c.busy[kind].Add(int64(now.Sub(t0)))
}

// coverage returns the union of the callback intervals so far.
func (c *callbackClock) coverage() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.covered
}

type timedMapper struct {
	inner mapreduce.Mapper
	clock *callbackClock
}

func (m timedMapper) Map(line string, emit mapreduce.Emit) error {
	t0 := m.clock.enter()
	err := m.inner.Map(line, emit)
	m.clock.exit(mapCall, t0)
	return err
}

type timedCombiner struct {
	inner mapreduce.Combiner
	clock *callbackClock
}

func (c timedCombiner) Combine(key string, values []string) ([]string, error) {
	t0 := c.clock.enter()
	out, err := c.inner.Combine(key, values)
	c.clock.exit(combineCall, t0)
	return out, err
}

type timedReducer struct {
	inner mapreduce.Reducer
	clock *callbackClock
}

func (r timedReducer) Reduce(key string, values []string, emit func(line string)) error {
	t0 := r.clock.enter()
	err := r.inner.Reduce(key, values, emit)
	r.clock.exit(reduceCall, t0)
	return err
}

// commonReducer is the CMF common reducer interface set: concurrent key
// groups, reduce-work accounting and per-operator dispatch counts.
type commonReducer interface {
	mapreduce.ConcurrentReducer
	mapreduce.ReduceWorkReporter
	mapreduce.DispatchReporter
}

// timedCommonReducer times a common reducer and forwards every optional
// interface, so the engine takes the same path as for the bare reducer.
type timedCommonReducer struct {
	timedReducer
	common commonReducer
}

// ConcurrentReduce implements mapreduce.ConcurrentReducer.
func (r timedCommonReducer) ConcurrentReduce() {}

// ReduceWork implements mapreduce.ReduceWorkReporter.
func (r timedCommonReducer) ReduceWork() int64 { return r.common.ReduceWork() }

// DispatchCounts implements mapreduce.DispatchReporter.
func (r timedCommonReducer) DispatchCounts() []mapreduce.OpDispatch {
	return r.common.DispatchCounts()
}

// wrapJobs installs timing wrappers on every callback of jobs, in place.
// A reducer implementing only some of the engine's optional interfaces is
// refused: a wrapper hiding one would change the engine's path.
func wrapJobs(jobs []*mapreduce.Job, clock *callbackClock) error {
	for _, j := range jobs {
		inputs := make([]mapreduce.Input, len(j.Inputs))
		for i, in := range j.Inputs {
			in.Mapper = timedMapper{inner: in.Mapper, clock: clock}
			inputs[i] = in
		}
		j.Inputs = inputs
		if j.Combiner != nil {
			j.Combiner = timedCombiner{inner: j.Combiner, clock: clock}
		}
		if j.Reducer == nil {
			continue
		}
		base := timedReducer{inner: j.Reducer, clock: clock}
		_, concurrent := j.Reducer.(mapreduce.ConcurrentReducer)
		_, work := j.Reducer.(mapreduce.ReduceWorkReporter)
		_, dispatch := j.Reducer.(mapreduce.DispatchReporter)
		switch common, ok := j.Reducer.(commonReducer); {
		case ok:
			j.Reducer = timedCommonReducer{timedReducer: base, common: common}
		case !concurrent && !work && !dispatch:
			j.Reducer = base
		default:
			return fmt.Errorf("job %s: reducer %T implements an interface subset the wrappers do not forward", j.Name, j.Reducer)
		}
	}
	return nil
}

// regDelta reads what a registry accumulated over a timed window: the
// snapshots at its start and end, and exact, the newest snapshot taken
// while the server's latency histograms still held every raw sample. obs
// keeps 4,096 samples per histogram and only buckets after that, and the
// buckets start at 1 ms, too coarse for a sub-millisecond p50.
type regDelta struct {
	before, after, exact []obs.Metric
}

// serverHistograms are the registry histograms the serve workloads read
// quantiles from.
var serverHistograms = []string{"ysmart_server_query_seconds", "ysmart_server_admission_wait_seconds"}

// findHist returns the unlabelled histogram name in a snapshot, or nil.
func findHist(ms []obs.Metric, name string) *obs.Histogram {
	for _, m := range ms {
		if m.Name == name && len(m.Labels) == 0 && m.Hist != nil {
			return m.Hist
		}
	}
	return nil
}

// keepExact snapshots reg every 50 ms until stop closes and returns the
// newest snapshot in which the server histograms were still complete.
func keepExact(reg *obs.Registry, stop <-chan struct{}) []obs.Metric {
	var exact []obs.Metric
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return exact
		case <-tick.C:
			snap := reg.Snapshot()
			for _, name := range serverHistograms {
				if h := findHist(snap, name); h != nil && uint64(len(h.Samples)) != h.Count {
					return exact // samples are only ever dropped from here on
				}
			}
			exact = snap
		}
	}
}

// sum is the growth of every counter named name, summed over labels.
func (d regDelta) sum(name string) float64 {
	total := func(ms []obs.Metric) float64 {
		var t float64
		for _, m := range ms {
			if m.Name == name && m.Kind == obs.CounterKind {
				t += m.Value
			}
		}
		return t
	}
	return total(d.after) - total(d.before)
}

// quantile estimates the q-quantile of the observations histogram name
// received in the window. It is exact over the raw samples the window
// kept (all of them, or the part before the histogram's sample cap);
// with none kept it interpolates inside the bucket deltas, as
// obs.Histogram.Quantile does.
func (d regDelta) quantile(name string, q float64) float64 {
	var seen uint64
	if before := findHist(d.before, name); before != nil {
		seen = before.Count
	}
	for _, snap := range [][]obs.Metric{d.after, d.exact} {
		h := findHist(snap, name)
		if h == nil || uint64(len(h.Samples)) != h.Count || h.Count <= seen {
			continue
		}
		kept := h.Samples[seen:]
		return (&obs.Histogram{Count: uint64(len(kept)), Samples: kept}).Quantile(q)
	}
	after := findHist(d.after, name)
	if after == nil {
		return 0
	}
	delta := &obs.Histogram{Bounds: after.Bounds, Counts: append([]uint64(nil), after.Counts...), Count: after.Count - seen}
	if before := findHist(d.before, name); before != nil {
		for i, c := range before.Counts {
			delta.Counts[i] -= c
		}
	}
	return delta.Quantile(q)
}
