package server

import (
	"container/list"
	"fmt"
	"sync"

	"ysmart/internal/correlation"
	"ysmart/internal/exec"
	"ysmart/internal/obs"
	"ysmart/internal/optanalysis"
	"ysmart/internal/plan"
	"ysmart/internal/sqlparser"
	"ysmart/internal/translator"
)

// PlanCache memoizes the parse -> plan -> correlation-analysis -> translate
// pipeline keyed by normalized SQL (translator.NormalizeSQL) and mode. It is
// safe for concurrent use by many sessions.
//
// A cached chain is not handed out shared: the engine's reducers fold
// cumulative per-job accounting (see cmf's commonReducer), so one
// *translator.Translation must never execute on two engines at once. The
// cache therefore leases translations — Get pops an idle translation from
// the entry's pool (or re-lowers one from the cached analysis when every
// copy is in flight), and Plan.Release returns it. The expensive and
// alias-prone front half (lexing, parsing, plan building, correlation
// analysis) always comes from the cache on a hit.
//
// Eviction is LRU over whole entries; counters land in the registry as
// ysmart_server_plancache_{hits,misses,evictions,retranslations}_total plus
// the ysmart_server_plancache_entries gauge.
type PlanCache struct {
	mode     translator.Mode
	cat      plan.Catalog
	cap      int
	reg      *obs.Registry
	optimize bool

	mu      sync.Mutex
	entries map[string]*list.Element // cache key -> lru element
	lru     *list.List               // front = most recently used
}

// cacheEntry is one cached query: the reusable analysis plus a pool of idle
// translations.
type cacheEntry struct {
	key      string
	queryTag string
	analysis *correlation.Analysis
	schema   *exec.Schema
	norm     string

	// free holds idle leased-back translations, bounded by maxPooled.
	free []*translator.Translation
}

// maxPooled bounds the idle translations kept per entry; beyond it a
// released translation is dropped (the analysis stays, so re-lowering is
// still cheap).
const maxPooled = 8

// NewPlanCache builds a cache holding at most capacity entries (capacity
// < 1 means 1) translating in the given mode against the catalog. The
// registry may be nil.
func NewPlanCache(capacity int, mode translator.Mode, cat plan.Catalog, reg *obs.Registry) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		mode:    mode,
		cat:     cat,
		cap:     capacity,
		reg:     reg,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// SetOptimize switches the cache to the MANIMAL pipeline: cache keys gain
// the optimizer dimension (translator.CacheKeyOpt, so optimized and plain
// plans of the same SQL never share an entry, a pooled translation, or a
// QueryTag-derived DFS path), and every lowered translation gets the
// prefilters its scan facts prove sound. Call it before the first Get; it
// is not safe to flip on a cache already serving sessions.
func (c *PlanCache) SetOptimize(on bool) { c.optimize = on }

// Plan is one leased executable plan. Exactly one query executes it at a
// time; Release must be called when the run finishes or is cancelled.
type Plan struct {
	// Translation is the leased job chain, exclusively owned until Release.
	Translation *translator.Translation
	// Schema is the query's output schema.
	Schema *exec.Schema
	// Normalized is the canonical SQL text the plan was cached under.
	Normalized string
	// Hit reports whether the front half came from the cache.
	Hit bool

	cache *PlanCache
	entry *cacheEntry
}

// Release returns the leased translation to the entry's idle pool. It is
// idempotent.
func (p *Plan) Release() {
	if p == nil || p.cache == nil {
		return
	}
	c, e, tr := p.cache, p.entry, p.Translation
	p.cache = nil
	c.mu.Lock()
	defer c.mu.Unlock()
	// The entry may have been evicted while the lease was out; its pool is
	// then garbage and the translation is simply dropped.
	if _, live := c.entries[e.key]; live && len(e.free) < maxPooled {
		e.free = append(e.free, tr)
	}
}

// Get resolves sql to a leased plan, consulting the cache first. Errors
// are client errors (bad SQL) — the cache itself never fails.
func (c *PlanCache) Get(sql string) (*Plan, error) {
	key, err := translator.CacheKeyOpt(sql, c.mode, c.optimize)
	if err != nil {
		return nil, fmt.Errorf("normalize: %w", err)
	}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		var tr *translator.Translation
		if n := len(e.free); n > 0 {
			tr = e.free[n-1]
			e.free = e.free[:n-1]
		}
		c.count("hits")
		c.mu.Unlock()
		if tr == nil {
			// Every pooled copy is executing right now: re-lower a fresh
			// chain from the cached analysis (parse/plan/analyze skipped).
			tr, err = c.lower(e)
			if err != nil {
				return nil, err
			}
			c.count("retranslations")
		}
		return &Plan{Translation: tr, Schema: e.schema, Normalized: e.norm, Hit: true, cache: c, entry: e}, nil
	}
	c.mu.Unlock()

	// Miss: run the full front half outside the lock (parsing concurrent
	// queries must not serialize), then insert.
	e, tr, err := c.build(sql, key)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// Another session built the same entry concurrently; keep the
		// winner's entry and lease our freshly built translation against it.
		c.lru.MoveToFront(el)
		e = el.Value.(*cacheEntry)
	} else {
		c.entries[key] = c.lru.PushFront(e)
		for c.lru.Len() > c.cap {
			back := c.lru.Back()
			victim := back.Value.(*cacheEntry)
			c.lru.Remove(back)
			delete(c.entries, victim.key)
			victim.free = nil
			c.count("evictions")
		}
		c.gauge()
	}
	c.count("misses")
	c.mu.Unlock()
	return &Plan{Translation: tr, Schema: e.schema, Normalized: e.norm, Hit: false, cache: c, entry: e}, nil
}

// build runs the full pipeline for a miss: parse, plan, analyze, lower.
func (c *PlanCache) build(sql, key string) (*cacheEntry, *translator.Translation, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	root, err := plan.Build(stmt, c.cat)
	if err != nil {
		return nil, nil, fmt.Errorf("plan: %w", err)
	}
	a, err := correlation.Analyze(root)
	if err != nil {
		return nil, nil, fmt.Errorf("analyze: %w", err)
	}
	norm, _ := translator.NormalizeSQL(sql)
	e := &cacheEntry{
		key:      key,
		queryTag: translator.QueryTag(key),
		analysis: a,
		schema:   root.Schema(),
		norm:     norm,
	}
	tr, err := c.lower(e)
	if err != nil {
		return nil, nil, err
	}
	return e, tr, nil
}

// lower produces an executable translation from a cached analysis. The
// query tag keys the chain's DFS paths, so every lease of the same entry
// writes the same deterministic paths.
func (c *PlanCache) lower(e *cacheEntry) (*translator.Translation, error) {
	tr, err := translator.TranslateAnalyzed(e.analysis, c.mode, translator.Options{QueryName: e.queryTag})
	if err != nil {
		return nil, fmt.Errorf("translate: %w", err)
	}
	if c.optimize {
		optanalysis.ApplyTranslation(tr)
	}
	return tr, nil
}

// Stats reports the cache's live entry count and lifetime counters.
func (c *PlanCache) Stats() (entries int, hits, misses, evictions float64) {
	c.mu.Lock()
	entries = c.lru.Len()
	c.mu.Unlock()
	if c.reg == nil {
		return entries, 0, 0, 0
	}
	return entries,
		c.reg.Value("ysmart_server_plancache_hits_total"),
		c.reg.Value("ysmart_server_plancache_misses_total"),
		c.reg.Value("ysmart_server_plancache_evictions_total")
}

// count bumps one lifetime cache counter.
func (c *PlanCache) count(which string) {
	if c.reg != nil {
		c.reg.Add("ysmart_server_plancache_"+which+"_total", 1)
	}
}

// gauge refreshes the live entry-count gauge. Callers hold c.mu.
func (c *PlanCache) gauge() {
	if c.reg != nil {
		c.reg.Set("ysmart_server_plancache_entries", float64(c.lru.Len()))
	}
}
