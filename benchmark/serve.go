package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ysmart"
	"ysmart/internal/mapreduce"
	"ysmart/internal/obs"
	"ysmart/internal/server"
	"ysmart/internal/translator"
)

// serveClients is the closed-loop client count of the serve workloads, each
// client on its own connection. It matches the two cores of the reference
// machine, so the clients never outnumber the cores.
const serveClients = 2

// writeEvery is how many serve-reuse queries, counted over both clients,
// run between two writes of the clicks table. Each write makes the click
// queries cold for the new data version, so a few percent of the queries
// are cold runs and the p99 is one.
const writeEvery = 50

// serverLayer are the per-layer metrics only a served workload observes.
var serverLayer = []string{
	"server.query_p50_ms", "server.query_p99_ms", "server.wire_overhead_us",
	"server.rows_sent_per_query", "server.admission_wait_p99_ms",
	"server.plancache_hit_ratio", "server.plancache_evictions", "server.plancache_retranslations",
	"server.session_setup_ms", "reuse.hit_ratio", "reuse.invalidations", "reuse.bytes_saved_mb",
}

// hostLayer are the per-layer metrics timed around the layer calls of the
// in-process analytic run; a server makes those calls out of reach.
var hostLayer = []string{
	"sqlparser.parse_us", "plan.build_us", "correlation.analyze_us", "translator.lower_us",
	"translator.read_result_ms", "mapreduce.run_chain_ms", "mapreduce.map_busy_ms",
	"mapreduce.combine_busy_ms", "cmf.reduce_busy_ms", "mapreduce.engine_self_ms",
	"mapreduce.worker_utilization",
}

// instance is one running server with its open client connections.
type instance struct {
	srv     *server.Server
	reg     *obs.Registry
	addr    string
	clients []*server.Client
	dials   []time.Duration
	clicks  [2][]string // both click-stream versions, encoded (serve-reuse)
}

// startServer generates and encodes the tables, starts a server configured
// with the ysmart-server flag defaults on loopback, and opens the client
// connections: everything setup_s times.
func startServer(s seeds, reuse bool, rec *recorder) (*instance, error) {
	tables, err := generate(s.tpch, s.clicksA)
	if err != nil {
		return nil, err
	}
	in := &instance{reg: obs.NewRegistry()}
	encoded := server.EncodeTables(tables)
	if reuse {
		cfg := ysmart.DefaultClicks()
		cfg.Seed = s.clicksB
		alt, err := ysmart.GenerateClicks(cfg)
		if err != nil {
			return nil, err
		}
		in.clicks = [2][]string{encoded["clicks"], server.EncodeTables(alt)["clicks"]}
	}
	in.srv, err = server.New(server.Config{
		Catalog:     ysmart.WorkloadCatalog(),
		Cluster:     mapreduce.SmallCluster,
		Mode:        translator.YSmart,
		MaxInflight: 4,
		MaxQueued:   64,
		CacheSize:   128,
		Registry:    in.reg,
		Reuse:       reuse,
	}, encoded)
	if err != nil {
		return nil, err
	}
	if in.addr, err = in.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for i := 0; i < serveClients; i++ {
		c, d, err := dial(rec, fmt.Sprintf("client-%d", i), in.addr)
		if err != nil {
			in.close()
			return nil, err
		}
		in.clients = append(in.clients, c)
		in.dials = append(in.dials, d)
	}
	return in, nil
}

// close disconnects the clients and shuts the server down, waiting for
// every session to end.
func (in *instance) close() {
	for _, c := range in.clients {
		c.Close()
	}
	in.srv.Shutdown(10 * time.Second)
}

// repeatSetup starts the server setups times and keeps the last instance;
// the median start-up time is setup_s.
func repeatSetup(s seeds, reuse bool) (*instance, float64, error) {
	var in *instance
	times := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if in != nil {
			in.close()
		}
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		var err error
		if in, err = startServer(s, reuse, nil); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return in, median(times), nil
}

// dial opens a client connection, as a span when rec is set.
func dial(rec *recorder, track, addr string) (*server.Client, time.Duration, error) {
	t0 := time.Now()
	var sp openSpan
	if rec != nil {
		sp = rec.begin(track, "server.Dial", 0)
	}
	c, err := server.Dial(addr, "bench", "ysmart", 30*time.Second)
	d := time.Since(t0)
	if rec != nil {
		d = sp.end()
	}
	return c, d, err
}

// query sends one statement, as a request span when rec is set. A
// ServerError (the query failed or was refused) comes back as failed; any
// other error means the connection is gone.
func query(rec *recorder, track string, c *server.Client, sql string) (res *server.QueryResult, d time.Duration, failed bool, err error) {
	t0 := time.Now()
	var sp openSpan
	if rec != nil {
		sp = rec.begin(track, "server.Client.Query", 0)
	}
	res, err = c.Query(sql)
	d = time.Since(t0)
	if rec != nil {
		d = sp.end()
	}
	var se *server.ServerError
	if errors.As(err, &se) {
		return nil, d, true, nil
	}
	return res, d, false, err
}

// servedRun is one pass of a serve workload: its clients' steps plus what
// they recorded for the oracle check and the per-layer metrics.
type servedRun struct {
	in      *instance
	rec     *recorder
	rows    []int64      // rows received, per client
	replies []int64      // result sets received, per client
	logs    [][]response // serve-adhoc's replies, per client

	mu    sync.Mutex
	dials []time.Duration // reconnects during the pass
}

func newServedRun(in *instance, rec *recorder) *servedRun {
	return &servedRun{in: in, rec: rec, rows: make([]int64, serveClients),
		replies: make([]int64, serveClients), logs: make([][]response, serveClients)}
}

// verify counts the pass's logged replies that disagree with the oracle
// as failures of p.
func (r *servedRun) verify(w serveWorkload, p *pass) error {
	if w.verify == nil {
		return nil
	}
	bad, err := w.verify(r)
	p.failed += bad
	return err
}

// received counts one result set of client i.
func (r *servedRun) received(i int, res *server.QueryResult) {
	r.rows[i] += int64(len(res.Rows))
	r.replies[i]++
}

// serveLayer fills the per-layer metrics of a traced serve pass from the
// client's samples and the server registry's growth over the pass.
func (r *servedRun) serveLayer(v map[string]float64, p *pass, d regDelta) {
	done := float64(p.timed)
	var rows, replies int64
	for i := range r.rows {
		rows += r.rows[i]
		replies += r.replies[i]
	}
	serverP50 := d.quantile("ysmart_server_query_seconds", 0.50)
	v["server.query_p50_ms"] = 1e3 * serverP50
	v["server.query_p99_ms"] = 1e3 * d.quantile("ysmart_server_query_seconds", 0.99)
	v["server.wire_overhead_us"] = 1e6 * (nearestRank(p.latencies, 0.50) - serverP50)
	v["server.rows_sent_per_query"] = ratio(float64(rows), float64(replies))
	v["server.admission_wait_p99_ms"] = 1e3 * d.quantile("ysmart_server_admission_wait_seconds", 0.99)
	hits, misses := d.sum("ysmart_server_plancache_hits_total"), d.sum("ysmart_server_plancache_misses_total")
	v["server.plancache_hit_ratio"] = ratio(hits, hits+misses)
	v["server.plancache_evictions"] = d.sum("ysmart_server_plancache_evictions_total")
	v["server.plancache_retranslations"] = d.sum("ysmart_server_plancache_retranslations_total")
	v["server.session_setup_ms"] = r.rec.meanOf("server.Dial", time.Millisecond)
	rhits, rmisses := d.sum("ysmart_reuse_hits_total"), d.sum("ysmart_reuse_misses_total")
	v["reuse.hit_ratio"] = ratio(rhits, rhits+rmisses)
	v["reuse.invalidations"] = d.sum("ysmart_reuse_invalidations_total")
	v["reuse.bytes_saved_mb"] = d.sum("ysmart_reuse_bytes_saved_total") / (1 << 20)
	v["translator.jobs_per_query"] = ratio(d.sum("ysmart_engine_jobs_total"), done)
	v["mapreduce.scan_mb"] = ratio(d.sum("ysmart_engine_map_input_bytes_total")/(1<<20), done)
	v["mapreduce.shuffle_mb"] = ratio(d.sum("ysmart_engine_shuffle_bytes_total")/(1<<20), done)
	v["mapreduce.dfs_write_mb"] = ratio(d.sum("ysmart_dfs_write_bytes_total")/(1<<20), done)
	v["mapreduce.map_input_records"] = ratio(d.sum("ysmart_engine_map_input_records_total"), done)
	v["mapreduce.reduce_groups"] = ratio(d.sum("ysmart_engine_reduce_groups_total"), done)
	v["cmf.dispatch_rows_in"] = ratio(d.sum("ysmart_cmf_op_input_rows_total"), done)
	v["cmf.dispatch_rows_out"] = ratio(d.sum("ysmart_cmf_op_output_rows_total"), done)
	notObserved(v, hostLayer...)
}

// connectP50 is the median Dial time of the pass's reconnects, or of the
// set-up connections when the clients never reconnected.
func (r *servedRun) connectP50() float64 {
	ds := r.dials
	if len(ds) == 0 {
		ds = r.in.dials
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// serveWorkload is what distinguishes the two serve workloads. steps
// builds the clients' closed loops for one pass; verify, when set, runs
// after the timed region and returns how many logged replies disagreed
// with the oracle.
type serveWorkload struct {
	name   string
	reuse  bool
	steps  func(r *servedRun) []step
	verify func(r *servedRun) (int64, error)
}

// runServe drives a serve workload: repeated set-up, an untraced pass and,
// with tracing on, a second pass on a fresh server with request spans and
// registry deltas.
func runServe(cfg config, w serveWorkload) (*outcome, error) {
	s := deriveSeeds(cfg.seed)
	tables, err := generate(s.tpch, s.clicksA)
	if err != nil {
		return nil, err
	}
	ref, err := referencePass(tables, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	in, setupS, err := repeatSetup(s, w.reuse)
	if err != nil {
		return nil, err
	}
	v := map[string]float64{"setup_s": setupS, "sim_s": ref.simS}
	r := newServedRun(in, nil)
	p, err := measure(w.steps(r), cfg.warmup(), cfg.pass(), nil)
	in.close()
	if err != nil {
		return nil, err
	}
	if err := r.verify(w, p); err != nil {
		return nil, err
	}
	p.endToEnd(v)
	v["connect_p50_ms"] = r.connectP50()
	if !cfg.trace {
		return p.outcome(v), nil
	}

	rec := newRecorder()
	tin, err := startServer(s, w.reuse, rec)
	if err != nil {
		return nil, err
	}
	tr := newServedRun(tin, rec)
	var before []obs.Metric
	stop := make(chan struct{})
	polled := make(chan []obs.Metric, 1)
	go func() { polled <- keepExact(tin.reg, stop) }()
	tp, err := measure(w.steps(tr), cfg.warmup(), cfg.pass(), func() { before = tin.reg.Snapshot() })
	close(stop)
	exact := <-polled
	after := tin.reg.Snapshot()
	tin.close()
	if err != nil {
		return nil, err
	}
	if err := tr.verify(w, tp); err != nil {
		return nil, err
	}
	if err := rec.write(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed)); err != nil {
		return nil, err
	}
	lv := map[string]float64{}
	tp.runtimeLayer(lv)
	tr.serveLayer(lv, tp, regDelta{before: before, after: after, exact: exact})
	lv["connect_p50_ms"] = v["connect_p50_ms"]
	return tracedOutcome(lv, p, tp), nil
}

// adhocTemplates are serve-adhoc's query families, each expanded over its
// literal range into distinct texts, with its share of the query stream.
// Together they hold far more distinct texts than the plan cache's 128
// entries.
func adhocTemplates() (texts [][]string, weights []int) {
	var selClicks, selOrders, perCategory, joinAgg []string
	for u := 1; u <= 150; u++ {
		selClicks = append(selClicks, fmt.Sprintf(
			"SELECT cid, count(*) AS n, max(ts) AS last_ts FROM clicks WHERE uid <= %d GROUP BY cid", u))
	}
	for c := 1; c <= 120; c++ {
		selOrders = append(selOrders, fmt.Sprintf(
			"SELECT o_orderstatus, count(*) AS n, max(o_totalprice) AS top_price FROM orders WHERE o_custkey = %d GROUP BY o_orderstatus", c))
	}
	for c := 0; c < 5; c++ {
		for p := 0; p < 1000; p += 100 {
			perCategory = append(perCategory, fmt.Sprintf(
				"SELECT uid, count(*) AS n, min(ts) AS first_ts FROM clicks WHERE cid = %d AND page > %d GROUP BY uid", c, p))
		}
	}
	for from := 8000; from < 10500; from += 50 {
		for _, width := range []int{100, 250, 500} {
			joinAgg = append(joinAgg, fmt.Sprintf(
				"SELECT o_orderstatus, count(*) AS n, sum(l_quantity) AS qty FROM orders, lineitem "+
					"WHERE o_orderkey = l_orderkey AND o_orderdate >= %d AND o_orderdate < %d GROUP BY o_orderstatus",
				from, from+width))
		}
	}
	var paper []string
	sqls := ysmart.WorkloadQueries()
	for _, name := range paperQueries {
		paper = append(paper, sqls[name])
	}
	return [][]string{selClicks, selOrders, perCategory, joinAgg, paper}, []int{25, 20, 20, 25, 10}
}

// response is what serve-adhoc keeps of one reply: which text it answered
// and a digest of its rows.
type response struct {
	family, text int
	digest       uint64
}

// runServeAdhoc is the serve-adhoc workload: two clients on persistent
// connections sending seeded, literal-varying templates plus a minority of
// the verbatim paper queries. Digests are checked against the oracle after
// the timed region.
func runServeAdhoc(cfg config) (*outcome, error) {
	s := deriveSeeds(cfg.seed)
	texts, weights := adhocTemplates()
	var total int
	for _, wt := range weights {
		total += wt
	}
	want := map[[2]int]uint64{} // oracle digest per (family, text), filled on demand
	return runServe(cfg, serveWorkload{
		name: "serve-adhoc",
		steps: func(r *servedRun) []step {
			steps := make([]step, serveClients)
			for i := range steps {
				i := i
				c := r.in.clients[i]
				track := fmt.Sprintf("client-%d", i)
				rng := rand.New(rand.NewSource(s.literals + int64(i)))
				steps[i] = func() (time.Duration, bool, error) {
					f, x := 0, rng.Intn(total)
					for x >= weights[f] {
						x -= weights[f]
						f++
					}
					t := rng.Intn(len(texts[f]))
					res, d, failed, err := query(r.rec, track, c, texts[f][t])
					if err != nil || failed {
						return d, false, err
					}
					r.received(i, res)
					r.logs[i] = append(r.logs[i], response{family: f, text: t, digest: digest(renderWire(res))})
					return d, true, nil
				}
			}
			return steps
		},
		verify: func(r *servedRun) (int64, error) {
			// Generated here, after the timed window, so the oracle's
			// tables are not live when live_heap_mb is read.
			tables, err := generate(s.tpch, s.clicksA)
			if err != nil {
				return 0, err
			}
			var bad int64
			for _, log := range r.logs {
				for _, resp := range log {
					key := [2]int{resp.family, resp.text}
					d, ok := want[key]
					if !ok {
						if d, err = oracleDigest(texts[resp.family][resp.text], tables); err != nil {
							return 0, err
						}
						want[key] = d
					}
					if d != resp.digest {
						bad++
					}
				}
			}
			return bad, nil
		},
	})
}

// runServeReuse is the serve-reuse workload: a reuse-enabled server and
// two clients replaying the paper queries. Every writeEvery queries the
// benchmark re-registers the clicks table, alternating two versions, and
// each client reconnects before its next query. Writes and Dials run
// under one lock, so the benchmark knows the data version of every session
// and checks each reply against that version's oracle.
func runServeReuse(cfg config) (*outcome, error) {
	s := deriveSeeds(cfg.seed)
	tablesA, err := generate(s.tpch, s.clicksA)
	if err != nil {
		return nil, err
	}
	tablesB, err := generate(s.tpch, s.clicksB)
	if err != nil {
		return nil, err
	}
	sqls := ysmart.WorkloadQueries()
	var oracle [2]map[string]uint64
	for v, tables := range []map[string][]ysmart.Row{tablesA, tablesB} {
		oracle[v] = map[string]uint64{}
		for _, name := range paperQueries {
			if oracle[v][name], err = oracleDigest(sqls[name], tables); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	return runServe(cfg, serveWorkload{
		name:  "serve-reuse",
		reuse: true,
		steps: func(r *servedRun) []step {
			// Guarded by r.mu: queries issued in the pass, and how many
			// writes happened (the clicks version is writes%2).
			issued, writes := 0, 0
			steps := make([]step, serveClients)
			for i := range steps {
				i := i
				c := r.in.clients[i]
				track := fmt.Sprintf("client-%d", i)
				seen, next := 0, i // writes this client's session has seen
				steps[i] = func() (time.Duration, bool, error) {
					r.mu.Lock()
					if issued/writeEvery > writes {
						writes++
						var sp openSpan
						if r.rec != nil {
							sp = r.rec.begin(track, "server.RegisterDataset", 0)
						}
						r.in.srv.RegisterDataset("clicks", r.in.clicks[writes%2])
						if r.rec != nil {
							sp.end()
						}
					}
					if seen != writes {
						c.Close()
						var d time.Duration
						var err error
						if c, d, err = dial(r.rec, track, r.in.addr); err != nil {
							r.mu.Unlock()
							return 0, false, err
						}
						r.in.clients[i] = c
						r.dials = append(r.dials, d)
						seen = writes
					}
					issued++
					r.mu.Unlock()
					name := paperQueries[next%len(paperQueries)]
					next++
					res, d, failed, err := query(r.rec, track, c, sqls[name])
					if err != nil || failed {
						return d, false, err
					}
					r.received(i, res)
					return d, digest(renderWire(res)) == oracle[seen%2][name], nil
				}
			}
			return steps
		},
	})
}
