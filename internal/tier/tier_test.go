package tier

import (
	"errors"
	"sort"
	"testing"

	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

const hl = 1000 // test half-life: 1000 virtual nanos

func almost(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestHeatDecayHalfLife(t *testing.T) {
	h := NewHeat(hl)
	clk := simclock.New()
	h.Touch(clk, 42)
	if s := h.Score(clk.Now(), 42); !almost(s, 1) {
		t.Fatalf("score after one touch = %v, want 1", s)
	}
	clk.Advance(hl)
	if s := h.Score(clk.Now(), 42); !almost(s, 0.5) {
		t.Fatalf("score after one half-life = %v, want 0.5", s)
	}
	clk.Advance(hl)
	if s := h.Score(clk.Now(), 42); !almost(s, 0.25) {
		t.Fatalf("score after two half-lives = %v, want 0.25", s)
	}
	// Touches accumulate on top of the decayed score.
	h.Touch(clk, 42)
	h.Touch(clk, 42)
	if s := h.Score(clk.Now(), 42); !almost(s, 2.25) {
		t.Fatalf("score after two more touches = %v, want 2.25", s)
	}
	if s := h.Score(clk.Now(), 99); s != 0 {
		t.Fatalf("untracked page score = %v, want 0", s)
	}
}

func TestHeatTenantAttribution(t *testing.T) {
	h := NewHeat(hl)
	a, b := simclock.New(), simclock.New()
	h.Bind(a, 7)
	h.Touch(a, 1)
	if got := h.Tenant(1); got != 7 {
		t.Fatalf("tenant = %d, want 7", got)
	}
	// Unbound clock attributes to tenant 0; last toucher wins.
	h.Touch(b, 1)
	if got := h.Tenant(1); got != 0 {
		t.Fatalf("tenant after unbound touch = %d, want 0", got)
	}
	h.Bind(b, 3)
	h.Touch(b, 1)
	if got := h.Tenant(1); got != 3 {
		t.Fatalf("tenant after rebound touch = %d, want 3", got)
	}
	h.Unbind(b)
	h.Touch(b, 1)
	if got := h.Tenant(1); got != 0 {
		t.Fatalf("tenant after Unbind = %d, want 0", got)
	}
}

func TestHeatSnapshotOrderAndEvaporation(t *testing.T) {
	h := NewHeat(hl)
	clk := simclock.New()
	for i := 0; i < 3; i++ {
		h.Touch(clk, 10)
	}
	h.Touch(clk, 20)
	h.Touch(clk, 5) // ties with 20 at score 1: ascending id breaks it
	snap := h.Snapshot(clk.Now())
	want := []uint64{10, 5, 20}
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	for i, id := range want {
		if snap[i].ID != id {
			t.Fatalf("snapshot[%d].ID = %d, want %d (got %+v)", i, snap[i].ID, id, snap)
		}
	}
	// ~7 half-lives after a single touch the entry evaporates at snapshot.
	clk.Advance(16 * hl)
	if got := h.Snapshot(clk.Now()); len(got) != 0 {
		t.Fatalf("snapshot after decay = %+v, want empty", got)
	}
	if n := h.Len(); n != 0 {
		t.Fatalf("Len after evaporation = %d, want 0", n)
	}
}

func TestQoSBudgetResolution(t *testing.T) {
	q := QoS{DefaultFastPages: 4, TenantFastPages: map[int]int{1: 8, 2: 0}}
	if got := q.budgetFor(1); got != 8 {
		t.Fatalf("explicit budget = %d, want 8", got)
	}
	if got := q.budgetFor(2); got != 0 {
		t.Fatalf("explicit zero budget = %d, want 0 (banned)", got)
	}
	if got := q.budgetFor(3); got != 4 {
		t.Fatalf("default budget = %d, want 4", got)
	}
	if got := (QoS{}).budgetFor(3); got != -1 {
		t.Fatalf("permissive budget = %d, want -1 (unlimited)", got)
	}
}

// fakeMover records moves; promotion can be vetoed per page (a pinned or
// write-latched page in the real pool) or fail outright (device fault).
type fakeMover struct {
	fast       map[uint64]bool
	deny       map[uint64]bool
	err        error
	promotions []uint64
	demotions  map[uint64]DemoteReason
}

func newFakeMover() *fakeMover {
	return &fakeMover{fast: make(map[uint64]bool), deny: make(map[uint64]bool), demotions: make(map[uint64]DemoteReason)}
}

func (m *fakeMover) Promote(clk *simclock.Clock, id uint64) (bool, error) {
	if m.err != nil {
		return false, m.err
	}
	if m.deny[id] {
		return false, nil
	}
	m.fast[id] = true
	m.promotions = append(m.promotions, id)
	return true, nil
}

func (m *fakeMover) Demote(clk *simclock.Clock, id uint64, reason DemoteReason) bool {
	if !m.fast[id] {
		return false
	}
	delete(m.fast, id)
	m.demotions[id] = reason
	return true
}

func (m *fakeMover) Promoted() []uint64 {
	out := make([]uint64, 0, len(m.fast))
	for id := range m.fast {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *fakeMover) FastResident() int { return len(m.fast) }

func tickCfg(fastPages int) Config {
	return Config{FastPages: fastPages, HalfLifeNanos: hl, IntervalNanos: 100}
}

func touchN(h *Heat, clk *simclock.Clock, id uint64, n int) {
	for i := 0; i < n; i++ {
		h.Touch(clk, id)
	}
}

func TestDaemonPromotesHottestFirst(t *testing.T) {
	h := NewHeat(hl)
	m := newFakeMover()
	d := NewDaemon(h, m, tickCfg(2), nil, "")
	clk := simclock.New()
	touchN(h, clk, 1, 3)
	touchN(h, clk, 2, 5)
	touchN(h, clk, 3, 4)
	touchN(h, clk, 4, 1) // under PromoteAbove: never promoted
	clk.Advance(100)
	if err := d.Tick(clk); err != nil {
		t.Fatal(err)
	}
	// FastPages=2: the two hottest (2 then 3) get in; 1 is left out this
	// round (not hotter than any resident), 4 is under the threshold.
	if want := []uint64{2, 3}; len(m.promotions) != 2 || m.promotions[0] != want[0] || m.promotions[1] != want[1] {
		t.Fatalf("promotions = %v, want %v", m.promotions, want)
	}
	st := d.Stats()
	if st.Runs != 1 || st.Promotions != 2 {
		t.Fatalf("stats = %+v, want 1 run / 2 promotions", st)
	}
	// Same virtual instant: interval gating makes a second tick a no-op.
	if err := d.Tick(clk); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Runs != 1 {
		t.Fatalf("runs after same-instant tick = %d, want 1", st.Runs)
	}
}

func TestDaemonColdDemotionAndHysteresis(t *testing.T) {
	h := NewHeat(hl)
	m := newFakeMover()
	d := NewDaemon(h, m, tickCfg(4), nil, "")
	clk := simclock.New()
	touchN(h, clk, 1, 4)
	clk.Advance(100)
	if err := d.Tick(clk); err != nil {
		t.Fatal(err)
	}
	if !m.fast[1] {
		t.Fatal("page 1 not promoted")
	}
	// Two half-lives on: score ~0.93 — inside the hysteresis band
	// (DemoteBelow 0.25 .. PromoteAbove 2.0), so it must stay resident.
	clk.Advance(2 * hl)
	if err := d.Tick(clk); err != nil {
		t.Fatal(err)
	}
	if !m.fast[1] {
		t.Fatal("page 1 demoted inside the hysteresis band")
	}
	// Four more half-lives: score ~0.058 < DemoteBelow — demoted as cold.
	clk.Advance(4 * hl)
	if err := d.Tick(clk); err != nil {
		t.Fatal(err)
	}
	if m.fast[1] {
		t.Fatal("cold page 1 still in the fast tier")
	}
	if r := m.demotions[1]; r != DemoteCold {
		t.Fatalf("demote reason = %v, want DemoteCold", r)
	}
}

func TestDaemonDisplacesColderResident(t *testing.T) {
	h := NewHeat(hl)
	m := newFakeMover()
	d := NewDaemon(h, m, tickCfg(1), nil, "")
	clk := simclock.New()
	touchN(h, clk, 1, 3)
	clk.Advance(100)
	if err := d.Tick(clk); err != nil {
		t.Fatal(err)
	}
	if !m.fast[1] {
		t.Fatal("page 1 not promoted")
	}
	// Page 2 becomes strictly hotter than the (decayed) resident.
	clk.Advance(100)
	touchN(h, clk, 2, 6)
	if err := d.Tick(clk); err != nil {
		t.Fatal(err)
	}
	if m.fast[1] || !m.fast[2] {
		t.Fatalf("fast set = %v, want {2} (1 displaced)", m.Promoted())
	}
	if r := m.demotions[1]; r != DemotePressure {
		t.Fatalf("displacement reason = %v, want DemotePressure", r)
	}
}

func TestDaemonQoSBudgets(t *testing.T) {
	h := NewHeat(hl)
	m := newFakeMover()
	d := NewDaemon(h, m, tickCfg(8), nil, "")
	clk := simclock.New()
	noisy, victim := simclock.New(), simclock.New()
	noisy.AdvanceTo(clk.Now())
	victim.AdvanceTo(clk.Now())
	h.Bind(noisy, 1)
	h.Bind(victim, 2)
	for id := uint64(10); id < 14; id++ {
		touchN(h, noisy, id, 5)
	}
	touchN(h, victim, 20, 4)
	clk.Advance(100)
	if err := d.Tick(clk); err != nil {
		t.Fatal(err)
	}
	if got := m.FastResident(); got != 5 {
		t.Fatalf("permissive QoS residents = %d, want 5", got)
	}

	// Cap tenant 1 at 2 pages: its two coldest mirrors are demoted with
	// DemotePressure at the next tick; tenant 2 is untouched.
	d.SetQoS(QoS{TenantFastPages: map[int]int{1: 2}})
	clk.Advance(100)
	if err := d.Tick(clk); err != nil {
		t.Fatal(err)
	}
	n1 := 0
	for _, id := range m.Promoted() {
		if h.Tenant(id) == 1 {
			n1++
		}
	}
	if n1 != 2 {
		t.Fatalf("tenant 1 residents after cap = %d, want 2", n1)
	}
	if !m.fast[20] {
		t.Fatal("tenant 2's page demoted by tenant 1's cap")
	}
	for id, r := range m.demotions {
		if r != DemotePressure {
			t.Fatalf("page %d demote reason = %v, want DemotePressure", id, r)
		}
	}

	// An explicit zero budget bans the tenant: new hot pages are skipped.
	d.SetQoS(QoS{TenantFastPages: map[int]int{3: 0}})
	banned := simclock.New()
	banned.AdvanceTo(clk.Now())
	h.Bind(banned, 3)
	touchN(h, banned, 30, 8)
	clk.Advance(100)
	skipsBefore := d.Stats().Skips
	if err := d.Tick(clk); err != nil {
		t.Fatal(err)
	}
	if m.fast[30] {
		t.Fatal("banned tenant's page was promoted")
	}
	if d.Stats().Skips <= skipsBefore {
		t.Fatal("banned promotion not counted as a skip")
	}
}

func TestDaemonMoveBudgetPerTick(t *testing.T) {
	h := NewHeat(hl)
	m := newFakeMover()
	cfg := tickCfg(64)
	cfg.MaxMovesPerTick = 3
	d := NewDaemon(h, m, cfg, nil, "")
	clk := simclock.New()
	for id := uint64(1); id <= 10; id++ {
		touchN(h, clk, id, 3)
	}
	clk.Advance(100)
	if err := d.Tick(clk); err != nil {
		t.Fatal(err)
	}
	if got := m.FastResident(); got != 3 {
		t.Fatalf("moves in one tick = %d, want MaxMovesPerTick=3", got)
	}
}

func TestDaemonPromoteErrorAborts(t *testing.T) {
	h := NewHeat(hl)
	m := newFakeMover()
	boom := errors.New("boom")
	m.err = boom
	d := NewDaemon(h, m, tickCfg(4), nil, "")
	clk := simclock.New()
	touchN(h, clk, 1, 5)
	clk.Advance(100)
	if err := d.Tick(clk); !errors.Is(err, boom) {
		t.Fatalf("tick err = %v, want boom", err)
	}
}

func TestDaemonObserverCounters(t *testing.T) {
	h := NewHeat(hl)
	m := newFakeMover()
	reg := obs.New(obs.Options{})
	d := NewDaemon(h, m, tickCfg(1), reg, "db0")
	clk := simclock.New()
	touchN(h, clk, 1, 3)
	touchN(h, clk, 2, 4)
	clk.Advance(100)
	if err := d.Tick(clk); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["tier.db0.promotions"]; got != 1 {
		t.Fatalf("promotions counter = %d, want 1", got)
	}
	if got := snap.Gauges["tier.db0.fast_resident"]; got != 1 {
		t.Fatalf("fast_resident gauge = %d, want 1", got)
	}
}
