package polarcxlmem

import (
	"fmt"

	"polarcxlmem/internal/buffer"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/tier"
)

// Policy is the consolidated per-instance policy surface: hot/cold tiering,
// multi-tenant QoS, and elastic capacity land here as one coherent option
// group instead of accreting onto InstanceConfig field by field. Each field
// is independent and optional; the zero value (or a nil *Policy) is the
// classic static instance — all pages in CXL, capacity fixed at Start.
type Policy struct {
	// Tiering, when non-nil, attaches an inclusive host-DRAM fast tier to
	// the instance's CXL buffer pool (drives internal/tier + core): page
	// accesses feed a decaying heat map, and a placement daemon ticked from
	// the commit path promotes the hottest pages into DRAM mirrors (reads
	// served at DRAM cost, no CXL traffic) and demotes cold ones. The CXL
	// copy remains the durable home, so PolarRecv and crash semantics are
	// unchanged. Zero Config fields (except FastPages, required) default.
	Tiering *tier.Config
	// QoS, when non-nil, sets the initial per-tenant fast-tier budgets the
	// placement daemon enforces (drives internal/tier; tenant ids flow in
	// from dataplane requests). Replace at runtime with Cluster.SetQoS.
	// Meaningful only with Tiering.
	QoS *tier.QoS
	// Quota, when non-nil, makes the instance's CXL allotment elastic
	// (drives core's block quota + the facade ledger): the CXL region is
	// physically carved at MaxPages up front — CXL 3.0 dynamic-capacity
	// style, the carve is the reservation — and InstanceConfig.PoolPages
	// becomes the initial LOGICAL allotment, adjustable at runtime within
	// [MinPages, MaxPages] via Cluster.Resize.
	Quota *QuotaPolicy
}

// QuotaPolicy bounds an elastic instance's CXL allotment in 16 KB pages.
type QuotaPolicy struct {
	// MinPages is the smallest allotment Resize accepts (default 1).
	MinPages int64
	// MaxPages is the carve size and the largest allotment Resize accepts.
	// Required: it is the physical reservation on the memory box.
	MaxPages int64
}

// validate checks a quota policy against the instance's initial PoolPages.
func (q QuotaPolicy) validate(name string, poolPages int64) error {
	if q.MaxPages <= 0 {
		return fmt.Errorf("polarcxlmem: instance %q Quota.MaxPages must be > 0", name)
	}
	min := q.MinPages
	if min <= 0 {
		min = 1
	}
	if min > q.MaxPages {
		return fmt.Errorf("polarcxlmem: instance %q Quota.MinPages %d exceeds MaxPages %d", name, q.MinPages, q.MaxPages)
	}
	if poolPages < min || poolPages > q.MaxPages {
		return fmt.Errorf("polarcxlmem: instance %q PoolPages %d outside quota [%d, %d]", name, poolPages, min, q.MaxPages)
	}
	return nil
}

// CapacityError is the typed form of a capacity rejection: which tier ran
// out ("cxl", "remote", "dram"), what was asked for, and what remains. It
// wraps ErrNoCapacity, so existing errors.Is(err, ErrNoCapacity) dispatch
// keeps working; use errors.As to read the numbers. The type is shared with
// the internal buffer tiers (an RDMA remote-pool overflow surfaces the same
// way as a facade placement failure).
type CapacityError = buffer.CapacityError

// regionSize is the buffer-pool region's size, sized for the physical CXL
// carve: MaxPages for an elastic instance, PoolPages for a static one.
func (m *member) regionSize() int64 {
	if pol := m.cfg.Policy; pol != nil && pol.Quota != nil {
		return core.RegionSizeFor(pol.Quota.MaxPages)
	}
	return core.RegionSizeFor(m.cfg.PoolPages)
}

// applyPolicy wires an incarnation's tiering/QoS/quota per cfg.Policy, so a
// restarted instance keeps (and re-enforces) the policy with its latest
// runtime adjustments: Resize keeps the allotment in cfg.PoolPages and
// SetQoS the budgets in cfg.Policy.QoS.
func (c *Cluster) applyPolicy(inst *Instance, cfg InstanceConfig) error {
	pol := cfg.Policy
	if pol == nil {
		return nil
	}
	if pol.Quota != nil {
		// Re-imposing the quota on a recovered pool may have to evict
		// overflow immediately (the allotment may have shrunk since the
		// crash); that is the normal LRU eviction path.
		if err := inst.pool.SetBlockQuota(inst.clk, cfg.PoolPages); err != nil {
			return fmt.Errorf("polarcxlmem: instance %q quota %d pages: %w", inst.name, cfg.PoolPages, err)
		}
	}
	if pol.Tiering != nil {
		heat := tier.NewHeat(pol.Tiering.HalfLifeNanos)
		inst.pool.EnableTiering(heat, cxl.BufferDRAMProfile())
		d := tier.NewDaemon(heat, inst.pool, *pol.Tiering, c.reg, inst.name)
		if pol.QoS != nil {
			d.SetQoS(*pol.QoS)
		}
		inst.eng.EnableTiering(d)
		inst.tierd = d
	}
	return nil
}

// Resize adjusts a live elastic instance's CXL allotment to pages — the
// cluster-level elasticity knob: grow a hot instance into its reservation,
// shrink an idle one so the operator can oversubscribe the rack. Shrinking
// below current residency evicts LRU overflow immediately (dirty pages flush
// to storage first) and fails if the overflow is pinned. Requires the
// instance to have been started with Policy.Quota; pages must lie within
// [MinPages, MaxPages] — beyond MaxPages is a *CapacityError (the carve is
// the hard reservation; re-Start the instance to renegotiate it). The new
// allotment survives Recover and Failover.
func (c *Cluster) Resize(name string, pages int64) error {
	m, ok := c.members[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownInstance, name)
	}
	if err := m.inst.alive(); err != nil {
		return err
	}
	cfg := m.cfg
	if cfg.Policy == nil || cfg.Policy.Quota == nil {
		return fmt.Errorf("polarcxlmem: instance %q has no Policy.Quota; its allotment is fixed at Start", name)
	}
	q := *cfg.Policy.Quota
	min := q.MinPages
	if min <= 0 {
		min = 1
	}
	if pages < min {
		return fmt.Errorf("polarcxlmem: instance %q resize to %d pages is below Quota.MinPages %d", name, pages, min)
	}
	if pages > q.MaxPages {
		return &CapacityError{Tier: "cxl", Requested: pages, Free: q.MaxPages, Unit: "pages"}
	}
	if err := m.inst.pool.SetBlockQuota(m.inst.clk, pages); err != nil {
		return fmt.Errorf("polarcxlmem: instance %q resize to %d pages: %w", name, pages, err)
	}
	m.cfg.PoolPages = pages
	return nil
}

// SetQoS replaces a live instance's per-tenant fast-tier budgets. Takes
// effect at the next placement tick (over-budget tenants' coldest pages are
// demoted first) and survives Recover/Failover. Requires Policy.Tiering.
func (c *Cluster) SetQoS(name string, q tier.QoS) error {
	m, ok := c.members[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownInstance, name)
	}
	if err := m.inst.alive(); err != nil {
		return err
	}
	if m.inst.tierd == nil {
		return fmt.Errorf("polarcxlmem: instance %q has no Policy.Tiering; QoS has nothing to govern", name)
	}
	m.inst.tierd.SetQoS(q)
	m.cfg.Policy.QoS = &q
	return nil
}

// AllotmentOf reports an instance's current CXL allotment in pages (its
// live quota for elastic instances, PoolPages otherwise).
func (c *Cluster) AllotmentOf(name string) (int64, bool) {
	m, ok := c.members[name]
	if !ok {
		return 0, false
	}
	return m.cfg.PoolPages, true
}
