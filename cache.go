package repro

import (
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/types"
)

// planCacheCapacity bounds the number of cached rewrites. Eviction is
// FIFO: serving workloads repeat a small set of statement shapes, and a
// stale entry (older catalog epoch) can never be hit again, so ordering
// by insertion ages stale entries out naturally.
const planCacheCapacity = 256

// cacheKey identifies one rewrite+plan: the statement's shape — its
// text with the liftable literals as placeholders — the kinds of its
// binding, the forced strategy, the explicit rule restriction, and the
// catalog epoch at rewrite time. Any rule definition, data load, index
// build, or ANALYZE bumps the epoch, so entries planned against the old
// catalog miss.
type cacheKey struct {
	sql      string
	kinds    string
	strategy Strategy
	rules    string
	epoch    uint64
}

func newCacheKey(shape string, params []types.Value, o *queryOpts, epoch uint64) cacheKey {
	kinds := make([]byte, len(params))
	for i, v := range params {
		kinds[i] = byte(v.Kind())
	}
	return cacheKey{
		sql:      shape,
		kinds:    string(kinds),
		strategy: o.strategy,
		rules:    strings.Join(o.rules, "\x1f"),
		epoch:    epoch,
	}
}

// plansPerShape bounds the plans one shape keeps. A binding whose
// estimates fit none of them re-plans, and the new plan joins the
// others, the oldest dropping out beyond the bound — so traffic that
// alternates between bindings of different bands hits each band's plan
// instead of re-planning on every request.
const plansPerShape = 4

// planEntry is one cached shape: its rewrites and plans, each made under
// a different band of bindings. A concrete entry marks a shape whose
// placeholders the rewrite needs as values; its statements compile with
// their values folded in, under their own text. Entries are shared with
// running statements and never modified; a re-plan puts a new one.
type planEntry struct {
	plans    []*core.Result
	concrete bool
}

// plan returns the entry's plan that suits a binding: every plan-time
// estimate computed from its planning values stays within its band
// under params.
func (e *planEntry) plan(params []types.Value) (*core.Result, bool) {
	for _, p := range e.plans {
		if p.Bind == nil || p.Bind.Holds(params) {
			return p, true
		}
	}
	return nil, false
}

// with returns the entry with res added to its plans (e may be nil).
func (e *planEntry) with(res *core.Result) *planEntry {
	var plans []*core.Result
	if e != nil {
		plans = e.plans
		if len(plans) >= plansPerShape {
			plans = plans[1:]
		}
	}
	return &planEntry{plans: append(append([]*core.Result(nil), plans...), res)}
}

// planCache memoizes finished rewrites (chosen statement, cost, physical
// plan) per statement shape. Plans hold no per-execution state — an
// execution's binding lives in its exec.Ctx — so one cached plan may be
// executed by many queries concurrently, under different bindings. The
// cache has its own mutex: lookups happen under DB.mu's read side, where
// many queries race.
type planCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*planEntry
	order   []cacheKey // insertion order, for FIFO eviction
	hits    uint64
	misses  uint64
	replans uint64
}

func newPlanCache() *planCache {
	return &planCache{entries: map[cacheKey]*planEntry{}}
}

// lookup returns the cached entry without counting the lookup.
func (c *planCache) lookup(k cacheKey) (*planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	return e, ok
}

// count records one statement's lookup as a hit or a miss.
func (c *planCache) count(hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit {
		c.hits++
	} else {
		c.misses++
	}
}

// noteReplan counts a lookup that found its shape cached but no plan
// whose bands hold the binding; the re-made plan joins the shape's
// others.
func (c *planCache) noteReplan() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replans++
}

// put stores an entry, replacing one of the same key in place (a
// shape's re-plan) or evicting the oldest entry at capacity.
func (c *planCache) put(k cacheKey, e *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[k]; dup {
		c.entries[k] = e
		return
	}
	if len(c.order) >= planCacheCapacity {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[k] = e
	c.order = append(c.order, k)
}

// evict drops one entry, if present. The serving layer calls it when a
// query fails with ErrResourceExhausted: the cached plan is fine, but
// dropping it guarantees a retry under a raised limit re-resolves fresh
// instead of requiring a manual cache reset.
func (c *planCache) evict(k cacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; !ok {
		return
	}
	delete(c.entries, k)
	for i, o := range c.order {
		if o == k {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

func (c *planCache) counters() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func (c *planCache) stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits, Misses: c.misses, Replans: c.replans, Entries: len(c.entries)}
}

func (c *planCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[cacheKey]*planEntry{}
	c.order = nil
	c.hits, c.misses, c.replans = 0, 0, 0
}

// PlanCacheStats reports the cumulative behaviour of a DB's rewrite+plan
// cache.
type PlanCacheStats struct {
	// Hits and Misses count lookups since Open (or the last reset).
	Hits, Misses uint64
	// Replans counts lookups that found their shape cached but re-planned
	// it, because the binding moved a plan-time estimate out of the band
	// of each of the shape's plans; each is also a miss.
	Replans uint64
	// Entries is the number of statement shapes currently cached.
	Entries int
}

// PlanCacheStats returns the DB's current cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats { return db.cache.stats() }

// ResetPlanCache drops every cached plan and zeroes the counters.
func (db *DB) ResetPlanCache() { db.cache.reset() }
