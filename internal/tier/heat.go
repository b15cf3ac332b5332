// Package tier is the hot/cold placement policy layer: a decaying per-page
// access-frequency map (Heat) fed by the frametab touch-sampler hook, and a
// tick-driven promotion/demotion daemon (Daemon) that moves pages between a
// slow durable tier (CXL) and a fast inclusive tier (host DRAM) through a
// pool-provided Mover.
//
// The paper's TieredPool splits DRAM and CXL statically; "Memory Sharing
// with CXL" (AMD) argues the coherent tier boundary should instead be
// crossed dynamically by access frequency. This package supplies the policy
// half of that argument: heat tracking, promotion/demotion thresholds with
// hysteresis, and per-tenant QoS budgets deciding who gets DRAM under
// pressure. The mechanism half (what a promotion physically does) lives in
// the pool that implements Mover — see core.CXLPool.EnableTiering.
//
// Like every daemon in this repo there is no goroutine: time is virtual, so
// the engine calls Daemon.Tick from its commit path and the tick decides
// against the caller's clock whether a placement interval has elapsed.
package tier

import (
	"math"
	"sort"
	"sync"

	"polarcxlmem/internal/simclock"
)

// heatShards stripes the heat map; page-id hashing matches frametab's
// Fibonacci reduction so sequential ids spread.
const heatShards = 16

// PageHeat is one page's decayed access score and last-toucher tenant.
type PageHeat struct {
	ID     uint64
	Score  float64
	Tenant int
}

type heatEntry struct {
	score  float64 // decayed to `last`
	last   int64   // virtual time of the most recent touch
	tenant int     // tenant of the most recent touch (0 = unattributed)
}

type heatShard struct {
	mu      sync.Mutex
	entries map[uint64]*heatEntry
}

// Heat is a decaying per-page access-frequency map. Every touch adds one
// unit of heat; heat halves every HalfLifeNanos of virtual time, so a page's
// score approximates its recent access rate (touches per half-life window,
// geometrically weighted toward now).
//
// Tenant attribution rides on the touch: dataplane workers bind their
// executing clock to the request's tenant id (Bind), and Touch looks the
// tenant up by clock. A page's Tenant is its most recent toucher — the
// simple rule is deliberate; shared pages drift to whoever is hot on them,
// which is exactly who the QoS policy should charge.
type Heat struct {
	halfLife float64 // nanos, > 0
	shards   [heatShards]heatShard
	binds    sync.Map // *simclock.Clock -> int (tenant)
}

// NewHeat builds a heat map with the given half-life; halfLifeNanos <= 0
// selects DefaultHalfLifeNanos.
func NewHeat(halfLifeNanos int64) *Heat {
	if halfLifeNanos <= 0 {
		halfLifeNanos = DefaultHalfLifeNanos
	}
	h := &Heat{halfLife: float64(halfLifeNanos)}
	for i := range h.shards {
		h.shards[i].entries = make(map[uint64]*heatEntry)
	}
	return h
}

// Bind attributes all future touches made on clk to tenant (until rebound).
// Dataplane workers call this per request; a clock with no binding
// attributes to tenant 0.
func (h *Heat) Bind(clk *simclock.Clock, tenant int) {
	h.binds.Store(clk, tenant)
}

// Unbind removes clk's tenant attribution.
func (h *Heat) Unbind(clk *simclock.Clock) {
	h.binds.Delete(clk)
}

func (h *Heat) shardOf(id uint64) *heatShard {
	return &h.shards[(id*0x9E3779B97F4A7C15)>>32&(heatShards-1)]
}

// decayTo folds elapsed virtual time into e.score. Caller holds the shard
// mutex.
func (e *heatEntry) decayTo(now int64, halfLife float64) {
	if now <= e.last {
		return
	}
	e.score *= math.Exp2(-float64(now-e.last) / halfLife)
	e.last = now
}

// Touch records one access to page id at clk's current virtual time,
// attributed to the clock's bound tenant. This is the frametab
// SetTouchSampler target: it charges no simulated device operations.
func (h *Heat) Touch(clk *simclock.Clock, id uint64) {
	tenant := 0
	if v, ok := h.binds.Load(clk); ok {
		tenant = v.(int)
	}
	now := clk.Now()
	sh := h.shardOf(id)
	sh.mu.Lock()
	e := sh.entries[id]
	if e == nil {
		e = &heatEntry{}
		sh.entries[id] = e
	}
	e.decayTo(now, h.halfLife)
	e.score++
	e.tenant = tenant
	sh.mu.Unlock()
}

// Score reports page id's heat decayed to now; 0 for untracked pages.
func (h *Heat) Score(now int64, id uint64) float64 {
	sh := h.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[id]
	if e == nil {
		return 0
	}
	e.decayTo(now, h.halfLife)
	return e.score
}

// Tenant reports page id's most recent toucher tenant (0 if untracked).
func (h *Heat) Tenant(id uint64) int {
	sh := h.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.entries[id]; e != nil {
		return e.tenant
	}
	return 0
}

// Len reports how many pages are tracked.
func (h *Heat) Len() int {
	n := 0
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Snapshot decays every entry to now and returns the pages ordered hottest
// first (ties broken by ascending id, so the ordering — and with it the
// daemon's promotion order — is canonical; map iteration order must not leak
// into instrumented paths, see the frametab package comment). Entries whose
// score has decayed below evaporateBelow are dropped to bound the map.
func (h *Heat) Snapshot(now int64) []PageHeat {
	var out []PageHeat
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		for id, e := range sh.entries {
			e.decayTo(now, h.halfLife)
			if e.score < evaporateBelow {
				delete(sh.entries, id)
				continue
			}
			out = append(out, PageHeat{ID: id, Score: e.score, Tenant: e.tenant})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// evaporateBelow is the score under which an entry is garbage-collected at
// Snapshot time: ~7 half-lives after a single touch.
const evaporateBelow = 1.0 / 128
