package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"ysmart"
	"ysmart/internal/correlation"
	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/plan"
	"ysmart/internal/sqlparser"
	"ysmart/internal/translator"
)

// reference is one untraced pass of the five paper queries on a fresh
// runtime: the exact output every later run must reproduce, and the
// simulated counters of the paper's cost model.
type reference struct {
	rows  map[string]string // rendered rows in result order
	stats map[string]string // ChainStats.String()
	sim   map[string]float64

	simS                                float64 // sum of ChainStats.TotalTime() over the pass
	jobs, scanB, shuffleB, writeB       int64
	mapRecords, groups, dispIn, dispOut int64
}

// referencePass runs the paper queries once through the public runtime.
func referencePass(tables map[string][]ysmart.Row, workers int) (*reference, error) {
	rt, err := ysmart.NewRuntime(ysmart.SmallCluster())
	if err != nil {
		return nil, err
	}
	rt.SetWorkers(workers)
	rt.LoadTables(tables)
	ref := &reference{rows: map[string]string{}, stats: map[string]string{}, sim: map[string]float64{}}
	sqls := ysmart.WorkloadQueries()
	for _, name := range paperQueries {
		q, err := ysmart.Parse(sqls[name], ysmart.WorkloadCatalog())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		tr, err := q.Translate(ysmart.YSmart, ysmart.Options{QueryName: name})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res, err := rt.Run(tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ref.rows[name] = strings.Join(renderRows(res.Rows), "\n")
		ref.stats[name] = res.Stats.String()
		ref.sim[name] = res.Stats.TotalTime()
		ref.simS += res.Stats.TotalTime()
		ref.jobs += int64(res.Stats.NumJobs())
		ref.scanB += res.Stats.TotalMapInputBytes()
		ref.shuffleB += res.Stats.TotalShuffleBytes()
		for _, j := range res.Stats.Jobs {
			ref.writeB += j.ReduceOutputBytes
			ref.mapRecords += j.MapInputRecords
			ref.groups += j.ReduceGroups
			for _, d := range j.Dispatch {
				ref.dispIn += d.InRows
				ref.dispOut += d.OutRows
			}
		}
	}
	return ref, nil
}

// counters fills the simulated per-layer counters, per query.
func (ref *reference) counters(v map[string]float64) {
	n := float64(len(paperQueries))
	v["translator.jobs_per_query"] = float64(ref.jobs) / n
	v["mapreduce.scan_mb"] = float64(ref.scanB) / (1 << 20) / n
	v["mapreduce.shuffle_mb"] = float64(ref.shuffleB) / (1 << 20) / n
	v["mapreduce.dfs_write_mb"] = float64(ref.writeB) / (1 << 20) / n
	v["mapreduce.map_input_records"] = float64(ref.mapRecords) / n
	v["mapreduce.reduce_groups"] = float64(ref.groups) / n
	v["cmf.dispatch_rows_in"] = float64(ref.dispIn) / n
	v["cmf.dispatch_rows_out"] = float64(ref.dispOut) / n
}

// setupAnalytic generates and encodes the tables and loads them into a
// fresh runtime.
func setupAnalytic(s seeds) (*ysmart.Runtime, error) {
	tables, err := generate(s.tpch, s.clicksA)
	if err != nil {
		return nil, err
	}
	rt, err := ysmart.NewRuntime(ysmart.SmallCluster())
	if err != nil {
		return nil, err
	}
	rt.SetWorkers(runtime.NumCPU())
	for name, rows := range tables {
		rt.LoadTableLines(name, ysmart.EncodeTable(rows))
	}
	return rt, nil
}

// runAnalytic is the analytic workload: one in-process client running
// Parse, Translate(YSmart) and Run on the paper queries, round-robin.
func runAnalytic(cfg config) (*outcome, error) {
	s := deriveSeeds(cfg.seed)
	tables, err := generate(s.tpch, s.clicksA)
	if err != nil {
		return nil, err
	}
	sqls := ysmart.WorkloadQueries()
	oracle := map[string]uint64{}
	for _, name := range paperQueries {
		if oracle[name], err = oracleDigest(sqls[name], tables); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	ref, err := referencePass(tables, runtime.NumCPU())
	if err != nil {
		return nil, err
	}

	var rt *ysmart.Runtime
	times := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		if rt, err = setupAnalytic(s); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	v := map[string]float64{"setup_s": median(times), "sim_s": ref.simS}
	p, err := measure([]step{analyticStep(rt, oracle)}, cfg.warmup(), cfg.pass(), nil)
	if err != nil {
		return nil, err
	}
	p.endToEnd(v)
	if !cfg.trace {
		return p.outcome(v), nil
	}
	return tracedAnalytic(cfg, s, ref, oracle, p)
}

// analyticStep issues the paper queries round-robin through the public
// façade and checks each result against the oracle.
func analyticStep(rt *ysmart.Runtime, oracle map[string]uint64) step {
	sqls := ysmart.WorkloadQueries()
	cat := ysmart.WorkloadCatalog()
	i := 0
	return func() (time.Duration, bool, error) {
		name := paperQueries[i%len(paperQueries)]
		i++
		t0 := time.Now()
		var res *ysmart.Result
		q, err := ysmart.Parse(sqls[name], cat)
		if err == nil {
			var tr *ysmart.Translation
			if tr, err = q.Translate(ysmart.YSmart, ysmart.Options{QueryName: name}); err == nil {
				res, err = rt.Run(tr)
			}
		}
		d := time.Since(t0)
		if err != nil {
			return d, false, nil
		}
		return d, digest(renderRows(res.Rows)) == oracle[name], nil
	}
}

// chainTotals accumulates the callback clocks of every traced RunChain.
type chainTotals struct {
	chains  int64
	wall    time.Duration
	covered time.Duration
	busy    [numCalls]time.Duration
}

// tracedAnalytic repeats the analytic workload with spans around each
// layer call that ysmart.Parse and Runtime.Run make, and timing wrappers on
// the translated jobs. It fails unless every traced query reproduces the
// untraced reference exactly: rows, ChainStats.String() and simulated
// seconds.
func tracedAnalytic(cfg config, s seeds, ref *reference, oracle map[string]uint64, untraced *pass) (*outcome, error) {
	tables, err := generate(s.tpch, s.clicksA)
	if err != nil {
		return nil, err
	}
	dfs := mapreduce.NewDFS()
	eng, err := mapreduce.NewEngine(dfs, mapreduce.SmallCluster())
	if err != nil {
		return nil, err
	}
	eng.SetWorkers(runtime.NumCPU())
	for name, rows := range tables {
		dfs.Write(translator.TablePath(name), ysmart.EncodeTable(rows))
	}

	rec := newRecorder()
	var totals chainTotals
	sqls := ysmart.WorkloadQueries()
	cat := ysmart.WorkloadCatalog()
	i := 0
	next := func() (time.Duration, bool, error) {
		name := paperQueries[i%len(paperQueries)]
		i++
		req := rec.begin("analytic", "request", 0)
		sp := rec.begin("analytic", "sqlparser.Parse", req.id)
		stmt, err := sqlparser.Parse(sqls[name])
		sp.end()
		if err != nil {
			return 0, false, fmt.Errorf("%s: %w", name, err)
		}
		sp = rec.begin("analytic", "plan.Build", req.id)
		root, err := plan.Build(stmt, cat)
		sp.end()
		if err != nil {
			return 0, false, fmt.Errorf("%s: %w", name, err)
		}
		sp = rec.begin("analytic", "correlation.Analyze", req.id)
		a, err := correlation.Analyze(root)
		sp.end()
		if err != nil {
			return 0, false, fmt.Errorf("%s: %w", name, err)
		}
		sp = rec.begin("analytic", "translator.TranslateAnalyzed", req.id)
		tr, err := translator.TranslateAnalyzed(a, translator.YSmart, translator.Options{QueryName: name})
		sp.end()
		if err != nil {
			return 0, false, fmt.Errorf("%s: %w", name, err)
		}
		clock := &callbackClock{}
		if err := wrapJobs(tr.Jobs, clock); err != nil {
			return 0, false, err
		}
		sp = rec.begin("analytic", "mapreduce.RunChain", req.id)
		stats, err := eng.RunChain(tr.Jobs)
		busy := [numCalls]time.Duration{}
		for k := range busy {
			busy[k] = time.Duration(clock.busy[k].Load())
		}
		covered := clock.coverage()
		wall := sp.end(obs.F("map_busy_ms", ms(busy[mapCall])), obs.F("combine_busy_ms", ms(busy[combineCall])),
			obs.F("reduce_busy_ms", ms(busy[reduceCall])), obs.F("covered_ms", ms(covered)))
		if err != nil {
			return 0, false, fmt.Errorf("%s: %w", name, err)
		}
		totals.chains++
		totals.wall += wall
		totals.covered += covered
		for k := range busy {
			totals.busy[k] += busy[k]
		}
		sp = rec.begin("analytic", "translator.ReadResult", req.id)
		rows, err := tr.ReadResult(dfs)
		sp.end()
		d := req.end(obs.F("query", name))
		if err != nil {
			return 0, false, fmt.Errorf("%s: %w", name, err)
		}
		rendered := renderRows(rows)
		if strings.Join(rendered, "\n") != ref.rows[name] || stats.String() != ref.stats[name] || stats.TotalTime() != ref.sim[name] {
			return 0, false, fmt.Errorf("%s: the traced run's rows, ChainStats or sim_s differ from the untraced run", name)
		}
		return d, digest(rendered) == oracle[name], nil
	}
	p, err := measure([]step{next}, cfg.warmup(), cfg.pass(), nil)
	if err != nil {
		return nil, err
	}
	if err := rec.write(cfg.out, fmt.Sprintf("trace-analytic-seed%d.json", cfg.seed)); err != nil {
		return nil, err
	}

	v := map[string]float64{}
	p.runtimeLayer(v)
	ref.counters(v)
	v["sqlparser.parse_us"] = rec.meanOf("sqlparser.Parse", time.Microsecond)
	v["plan.build_us"] = rec.meanOf("plan.Build", time.Microsecond)
	v["correlation.analyze_us"] = rec.meanOf("correlation.Analyze", time.Microsecond)
	v["translator.lower_us"] = rec.meanOf("translator.TranslateAnalyzed", time.Microsecond)
	v["translator.read_result_ms"] = rec.meanOf("translator.ReadResult", time.Millisecond)
	v["mapreduce.run_chain_ms"] = rec.meanOf("mapreduce.RunChain", time.Millisecond)
	n := float64(totals.chains)
	v["mapreduce.map_busy_ms"] = ratio(ms(totals.busy[mapCall]), n)
	v["mapreduce.combine_busy_ms"] = ratio(ms(totals.busy[combineCall]), n)
	v["cmf.reduce_busy_ms"] = ratio(ms(totals.busy[reduceCall]), n)
	v["mapreduce.engine_self_ms"] = ratio(ms(totals.wall-totals.covered), n)
	var busy time.Duration
	for _, b := range totals.busy {
		busy += b
	}
	v["mapreduce.worker_utilization"] = ratio(float64(busy), float64(totals.wall)*float64(runtime.NumCPU()))
	notObserved(v, serverLayer...)
	v["connect_p50_ms"] = 0
	return tracedOutcome(v, untraced, p), nil
}
