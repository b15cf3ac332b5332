package tier

import (
	"sort"
	"sync"
	"sync/atomic"

	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

// DemoteReason says why a page left the fast tier. The values match the Aux
// encoding of the obs.EvTierDemote trace event.
type DemoteReason int

// Demotion reasons.
const (
	// DemoteCold: the daemon found the page's heat under DemoteBelow.
	DemoteCold DemoteReason = 0
	// DemoteWrite: a writer latched the page; the mirror is invalidated
	// before the first modification so it can never serve stale bytes.
	DemoteWrite DemoteReason = 1
	// DemoteEvict: the durable CXL copy is being evicted; an inclusive
	// mirror must not outlive its home.
	DemoteEvict DemoteReason = 2
	// DemotePressure: evicted from the fast tier to make room (capacity or
	// a QoS budget).
	DemotePressure DemoteReason = 3
)

// Mover is the mechanism half of tiering: the pool-side surface that
// physically promotes and demotes pages. core.CXLPool implements it with an
// inclusive DRAM mirror (the CXL copy stays the durable home, so promotion
// never weakens crash recovery).
type Mover interface {
	// Promote copies page id into the fast tier. ok=false without error
	// means the page was skipped — not resident, mid-load, write-latched,
	// or already promoted; the daemon just moves on. An error is a real
	// device fault (under fault injection, a simulated host crash) and
	// aborts the tick.
	Promote(clk *simclock.Clock, id uint64) (ok bool, err error)
	// Demote drops page id's fast-tier mirror; false means it was not
	// promoted.
	Demote(clk *simclock.Clock, id uint64, reason DemoteReason) bool
	// Promoted returns the fast-tier resident page ids in ascending order
	// (canonical order; see the frametab determinism contract).
	Promoted() []uint64
	// FastResident reports how many pages the fast tier currently holds.
	FastResident() int
}

// Stats is a snapshot of daemon counters.
type Stats struct {
	Runs       int64 // placement runs that actually executed
	Promotions int64
	Demotions  int64
	Skips      int64 // promotion candidates skipped (pinned, absent, over budget)
}

// Daemon is the background promotion/demotion scheduler. Like the flusher
// it has no goroutine: the engine calls Tick from its commit path, and
// overlapping ticks do not stack (TryLock).
type Daemon struct {
	cfg   Config
	heat  *Heat
	mover Mover

	mu      sync.Mutex // held across one placement run; TryLock in Tick
	qos     QoS        // guarded by mu
	nextDue int64      // guarded by mu

	runs       atomic.Int64
	promotions atomic.Int64
	demotions  atomic.Int64
	skips      atomic.Int64

	// Registry handles, fixed at construction; nil (a no-op) without one.
	promotionsC  *obs.Counter // tier.<name>.promotions
	demotionsC   *obs.Counter // tier.<name>.demotions
	skipsC       *obs.Counter // tier.<name>.skips
	fastResident *obs.Gauge   // tier.<name>.fast_resident
}

// NewDaemon builds a placement daemon driving mover by heat. Zero cfg fields
// (except FastPages) select the defaults; the initial QoS is permissive.
// reg (nil for none) receives the daemon's metrics under tier.<name>.
// (promotions / demotions / skips / fast_resident). The per-move tier.*
// trace events are emitted by the Mover (they carry the pool actor), not
// here.
func NewDaemon(heat *Heat, mover Mover, cfg Config, reg *obs.Registry, name string) *Daemon {
	p := "tier." + name + "."
	return &Daemon{
		cfg:          cfg.withDefaults(),
		heat:         heat,
		mover:        mover,
		promotionsC:  reg.Counter(p + "promotions"),
		demotionsC:   reg.Counter(p + "demotions"),
		skipsC:       reg.Counter(p + "skips"),
		fastResident: reg.Gauge(p + "fast_resident"),
	}
}

// Heat returns the daemon's heat map (the facade wires it to dataplane
// tenant binding).
func (d *Daemon) Heat() *Heat { return d.heat }

// SetQoS swaps the tenant budget policy. Live: the next tick enforces the
// new budgets, demoting over-budget tenants' coldest pages first.
func (d *Daemon) SetQoS(q QoS) {
	d.mu.Lock()
	d.qos = q.clone()
	d.mu.Unlock()
}

// QoS reports the current budget policy.
func (d *Daemon) QoS() QoS {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.qos.clone()
}

// Stats snapshots the daemon counters.
func (d *Daemon) Stats() Stats {
	return Stats{
		Runs:       d.runs.Load(),
		Promotions: d.promotions.Load(),
		Demotions:  d.demotions.Load(),
		Skips:      d.skips.Load(),
	}
}

// Tick runs one placement cycle if the interval has elapsed on clk and no
// other caller is mid-run. The run is bounded by MaxMovesPerTick; promotion
// I/O (the CXL->DRAM copy) is charged to clk — the daemon borrows the
// ticking worker's timeline, modeling stolen background cycles without a
// scheduler. An error from the Mover (a simulated host crash under fault
// injection) is surfaced to the committer, like every other daemon.
func (d *Daemon) Tick(clk *simclock.Clock) error {
	if !d.mu.TryLock() {
		return nil // a concurrent tick is already placing
	}
	defer d.mu.Unlock()
	now := clk.Now()
	if now < d.nextDue {
		return nil
	}
	d.nextDue = now + d.cfg.IntervalNanos
	d.runs.Add(1)

	moves := 0
	promoted := make(map[uint64]bool)
	var promotedHeat []PageHeat // promoted pages, decayed scores
	for _, id := range d.mover.Promoted() {
		promoted[id] = true
		promotedHeat = append(promotedHeat, PageHeat{
			ID:     id,
			Score:  d.heat.Score(now, id),
			Tenant: d.heat.Tenant(id),
		})
	}

	// Per-tenant fast-tier occupancy, for budget enforcement.
	occupancy := make(map[int]int)
	for _, p := range promotedHeat {
		occupancy[p.Tenant]++
	}

	// Demote pass 1: cold pages leave the fast tier. Coldest first so the
	// pages most likely to be re-promoted survive a bounded run.
	sort.Slice(promotedHeat, func(i, j int) bool {
		if promotedHeat[i].Score != promotedHeat[j].Score {
			return promotedHeat[i].Score < promotedHeat[j].Score
		}
		return promotedHeat[i].ID < promotedHeat[j].ID
	})
	live := promotedHeat[:0]
	for _, p := range promotedHeat {
		if p.Score < d.cfg.DemoteBelow && moves < d.cfg.MaxMovesPerTick {
			if d.demote(clk, p.ID, DemoteCold) {
				moves++
				occupancy[p.Tenant]--
				delete(promoted, p.ID)
				continue
			}
		}
		live = append(live, p)
	}
	promotedHeat = live

	// Demote pass 2: enforce QoS budgets — for each over-budget tenant,
	// demote its coldest pages until it fits. Tenants are visited in
	// ascending id order (canonical).
	tenants := make([]int, 0, len(occupancy))
	for t := range occupancy {
		tenants = append(tenants, t)
	}
	sort.Ints(tenants)
	for _, t := range tenants {
		budget := d.qos.budgetFor(t)
		if budget < 0 {
			continue
		}
		for _, p := range promotedHeat { // already coldest-first
			if occupancy[t] <= budget || moves >= d.cfg.MaxMovesPerTick {
				break
			}
			if p.Tenant != t || !promoted[p.ID] {
				continue
			}
			if d.demote(clk, p.ID, DemotePressure) {
				moves++
				occupancy[t]--
				delete(promoted, p.ID)
			}
		}
	}

	// Promote pass: hottest candidates first. When the fast tier is full,
	// a candidate strictly hotter than the coldest surviving resident
	// displaces it (pressure demotion); otherwise the pass ends — every
	// later candidate is colder still.
	candidates := d.heat.Snapshot(now) // hottest first, canonical order
	for _, c := range candidates {
		if moves >= d.cfg.MaxMovesPerTick {
			break
		}
		if c.Score < d.cfg.PromoteAbove {
			break // sorted: nothing hotter follows
		}
		if promoted[c.ID] {
			continue
		}
		budget := d.qos.budgetFor(c.Tenant)
		if budget >= 0 && occupancy[c.Tenant] >= budget {
			d.skip()
			continue
		}
		if d.mover.FastResident() >= d.cfg.FastPages {
			// Displace the coldest resident, if strictly colder.
			victim, ok := coldestIn(promotedHeat, promoted)
			if !ok || victim.Score >= c.Score {
				break
			}
			if !d.demote(clk, victim.ID, DemotePressure) {
				break
			}
			moves++
			occupancy[victim.Tenant]--
			delete(promoted, victim.ID)
			if moves >= d.cfg.MaxMovesPerTick {
				break
			}
		}
		ok, err := d.mover.Promote(clk, c.ID)
		if err != nil {
			return err
		}
		if !ok {
			d.skip()
			continue
		}
		moves++
		d.promotions.Add(1)
		occupancy[c.Tenant]++
		promoted[c.ID] = true
		d.promotionsC.Inc()
	}
	d.fastResident.Set(int64(d.mover.FastResident()))
	return nil
}

// demote drops one mirror through the mover, counting it.
func (d *Daemon) demote(clk *simclock.Clock, id uint64, reason DemoteReason) bool {
	if !d.mover.Demote(clk, id, reason) {
		return false
	}
	d.demotions.Add(1)
	d.demotionsC.Inc()
	return true
}

func (d *Daemon) skip() {
	d.skips.Add(1)
	d.skipsC.Inc()
}

// coldestIn returns the coldest entry of promotedHeat still in the promoted
// set (promotedHeat is sorted coldest-first).
func coldestIn(promotedHeat []PageHeat, promoted map[uint64]bool) (PageHeat, bool) {
	for _, p := range promotedHeat {
		if promoted[p.ID] {
			return p, true
		}
	}
	return PageHeat{}, false
}
