package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// step issues one query for one client and reports its latency. ok is
// false when the query failed, was refused or disagreed with the oracle;
// the failure is counted and the client goes on. A non-nil error means
// the client cannot continue and aborts the run.
type step func() (latency time.Duration, ok bool, err error)

// pass is one closed-loop run: every client issues its next query only
// after the previous reply arrived. A warm-up lets caches fill before the
// timed window; every answer, warm-up included, counts in attempted and
// failed, while the latencies, the throughput and the runtime counters
// cover the timed window only.
type pass struct {
	latencies []float64 // seconds, one per successful timed query, sorted
	timed     int64     // successful queries started in the timed window
	attempted int64
	failed    int64
	wall      float64 // seconds from the window's start to its last reply
	mallocs   uint64
	numGC     uint32
	pauseNs   uint64
	allocB    uint64
	heapStart uint64 // HeapAlloc after a GC before the warm-up
	heapEnd   uint64 // HeapAlloc after a GC at the end of the run
}

// measure runs one closed loop per step function: warmup seconds untimed,
// then a timed window of seconds. A query belongs to the window it starts
// in. opens, when set, runs as the window opens. Nothing is torn down
// before the final heap reading, so live state the workload holds is
// counted.
func measure(clients []step, warmup, seconds float64, opens func()) (*pass, error) {
	runtime.GC()
	var initial runtime.MemStats
	runtime.ReadMemStats(&initial)
	type tally struct {
		lat                      []float64
		timed, attempted, failed int64
		last                     time.Time
		err                      error
	}
	tallies := make([]tally, len(clients))
	open := time.Now().Add(time.Duration(warmup * float64(time.Second)))
	closes := open.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i, next := range clients {
		wg.Add(1)
		go func(t *tally, next step) {
			defer wg.Done()
			for {
				began := time.Now()
				if !began.Before(closes) {
					return
				}
				d, ok, err := next()
				if err != nil {
					t.err = err
					return
				}
				t.attempted++
				if !ok {
					t.failed++
					continue
				}
				if began.Before(open) {
					continue
				}
				t.timed++
				t.lat = append(t.lat, d.Seconds())
				t.last = began.Add(d)
			}
		}(&tallies[i], next)
	}
	time.Sleep(time.Until(open))
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	if opens != nil {
		opens()
	}
	wg.Wait()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	runtime.GC()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)

	p := &pass{
		mallocs:   after.Mallocs - before.Mallocs,
		numGC:     after.NumGC - before.NumGC,
		pauseNs:   after.PauseTotalNs - before.PauseTotalNs,
		allocB:    after.TotalAlloc - before.TotalAlloc,
		heapStart: initial.HeapAlloc,
		heapEnd:   end.HeapAlloc,
	}
	last := open
	for _, t := range tallies {
		if t.err != nil {
			return nil, t.err
		}
		p.latencies = append(p.latencies, t.lat...)
		p.timed += t.timed
		p.attempted += t.attempted
		p.failed += t.failed
		if t.last.After(last) {
			last = t.last
		}
	}
	p.wall = last.Sub(open).Seconds()
	sort.Float64s(p.latencies)
	return p, nil
}

// endToEnd fills the end-to-end metrics a pass measures on its own.
func (p *pass) endToEnd(v map[string]float64) {
	done := float64(p.timed)
	v["qps"] = ratio(done, p.wall)
	v["latency_p50_ms"] = 1e3 * nearestRank(p.latencies, 0.50)
	v["latency_p99_ms"] = 1e3 * nearestRank(p.latencies, 0.99)
	v["allocs_per_query"] = ratio(float64(p.mallocs), done)
	v["live_heap_mb"] = float64(p.heapEnd) / (1 << 20)
	v["failed_ratio"] = ratio(float64(p.failed), float64(p.attempted))
}

// outcome wraps a pass's counts around the metric values.
func (p *pass) outcome(v map[string]float64) *outcome {
	return &outcome{attempted: p.attempted, failed: p.failed, samples: len(p.latencies), values: v}
}

// tracedOutcome completes a traced run's per-layer values with what needs
// its untraced pass too: the client p99, the tracing overhead and the
// failures of both passes.
func tracedOutcome(v map[string]float64, untraced, traced *pass) *outcome {
	v["latency_p99_ms"] = 1e3 * nearestRank(untraced.latencies, 0.99)
	qps := ratio(float64(untraced.timed), untraced.wall)
	v["trace.qps_overhead_pct"] = 100 * ratio(qps-ratio(float64(traced.timed), traced.wall), qps)
	o := traced.outcome(v)
	o.attempted += untraced.attempted
	o.failed += untraced.failed
	v["failed_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	return o
}

// runtimeLayer fills the Go runtime's per-layer metrics of a traced pass.
func (p *pass) runtimeLayer(v map[string]float64) {
	done := float64(p.timed)
	v["go.gc_cycles_per_query"] = ratio(float64(p.numGC), done)
	v["go.gc_pause_ms"] = ratio(float64(p.pauseNs)/1e6, float64(p.numGC))
	v["go.alloc_mb_per_query"] = ratio(float64(p.allocB)/(1<<20), done)
	v["server.heap_growth_kb_per_query"] = ratio((float64(p.heapEnd)-float64(p.heapStart))/1024, float64(p.attempted-p.failed))
}

// nearestRank is the nearest-rank q-quantile of ascending samples (0 when
// there are none).
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median is the middle of xs (the mean of the two middle values for an
// even count). It sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// notObserved sets metrics a workload cannot observe to 0.
func notObserved(v map[string]float64, names ...string) {
	for _, n := range names {
		v[n] = 0
	}
}
