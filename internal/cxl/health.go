package cxl

// Fabric component health: every trunk and leaf crossbar carries a small
// virtual-time state machine,
//
//	Healthy -> Degraded -> Failed -> Probation -> Healthy
//	   |__________________^   ^         |
//	   |______________________|         |
//	   ^________________________________|
//
// driven by injected faults (fault.ErrDegrade / ErrLinkFlap / ErrLinkDown at
// the route-resolution ops) or, for trunks, by the Topology chaos APIs.
// Transitions are purely virtual-time: a flapped component self-repairs
// RepairNanos after the failure, then runs a ProbationNanos observation
// window before being trusted as Healthy again; a component downed
// persistently (ErrLinkDown, FailTrunk) stays Failed until an explicit
// RestoreTrunk (a leaf crossbar has no restore API). Degraded
// components stay reachable but serve at 1/DegradeFactor of their bandwidth
// (extra fixed occupancy on the queueing resource), and every degraded
// traversal increments the per-tier cxl.fabric.degraded.* counters.
//
// Memory boxes are simpler: power is binary (dead boxes lose their contents,
// leases, and manager endpoint), so they carry a flag, not this machine.

import (
	"errors"
	"fmt"
	"sync"
)

// HealthState is one fabric component's availability state.
type HealthState int

// Health states, in escalation order.
const (
	Healthy   HealthState = iota // full bandwidth, trusted
	Degraded                     // reachable at reduced bandwidth
	Failed                       // unreachable; routes through it error
	Probation                    // repaired, under observation at full bandwidth
)

// String implements fmt.Stringer.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	case Probation:
		return "probation"
	}
	return fmt.Sprintf("health(%d)", int(s))
}

// HealthPolicy parameterizes the component state machine. The zero value
// takes calibrated defaults.
type HealthPolicy struct {
	// RepairNanos is the outage length of a transient failure (link flap):
	// the component self-repairs into Probation this long after the flap.
	// 0 = DefaultRepairNanos.
	RepairNanos int64
	// ProbationNanos is the observation window after a repair before the
	// component is trusted Healthy again. 0 = DefaultProbationNanos.
	ProbationNanos int64
	// DegradeFactor divides a Degraded component's effective bandwidth
	// (each traversal occupies the resource for DegradeFactor times its
	// service time). 0 = DefaultDegradeFactor.
	DegradeFactor int64
}

// Calibrated health defaults: a flap outage of 2 ms of virtual time (two
// retry deadlines of the control plane), a 1 ms probation window, and
// degraded links serving at one quarter rate (one lane group of an x16
// trunk downshifted).
const (
	DefaultRepairNanos    = 2_000_000
	DefaultProbationNanos = 1_000_000
	DefaultDegradeFactor  = 4
)

func (p HealthPolicy) withDefaults() HealthPolicy {
	if p.RepairNanos <= 0 {
		p.RepairNanos = DefaultRepairNanos
	}
	if p.ProbationNanos <= 0 {
		p.ProbationNanos = DefaultProbationNanos
	}
	if p.DegradeFactor <= 0 {
		p.DegradeFactor = DefaultDegradeFactor
	}
	return p
}

// ErrFabricUnreachable is the sentinel every failed-route error wraps:
// errors.Is(err, ErrFabricUnreachable) identifies "the fabric between this
// host and its memory is down" regardless of which component died.
var ErrFabricUnreachable = errors.New("cxl: fabric route unreachable")

// UnreachableError reports which component made a route unreachable and the
// health state it was in. It unwraps to ErrFabricUnreachable.
type UnreachableError struct {
	Component string // resource name, e.g. "cxl-uplink/leaf1"
	State     HealthState
}

// Error implements error.
func (e *UnreachableError) Error() string {
	return fmt.Sprintf("cxl: route unreachable: %s is %s", e.Component, e.State)
}

// Unwrap makes errors.Is(err, ErrFabricUnreachable) hold.
func (e *UnreachableError) Unwrap() error { return ErrFabricUnreachable }

// health is one component's state machine instance. All methods take the
// observer's virtual now; time only moves the machine forward when someone
// looks (routes resolve, chaos APIs fire), which is exactly the
// deterministic discipline the rest of the simulator uses.
type health struct {
	name string
	pol  HealthPolicy

	mu     sync.Mutex
	state  HealthState
	until  int64 // Failed: repair instant; Probation: trust instant
	sticky bool  // Failed with no self-repair (needs Restore)
}

func newHealth(name string, pol HealthPolicy) *health {
	return &health{name: name, pol: pol.withDefaults()}
}

// observe advances the machine to now and reports the current state.
func (h *health) observe(now int64) HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.observeLocked(now)
}

func (h *health) observeLocked(now int64) HealthState {
	if h.state == Failed && !h.sticky && now >= h.until {
		// Self-repair: probation runs from the repair instant, not from
		// whenever somebody next looked.
		h.state = Probation
		h.until += h.pol.ProbationNanos
	}
	if h.state == Probation && now >= h.until {
		h.state = Healthy
	}
	return h.state
}

// fail transitions to Failed. A non-sticky failure (flap) self-repairs
// RepairNanos later; a sticky one holds until restore.
func (h *health) fail(now int64, sticky bool) {
	h.mu.Lock()
	h.state = Failed
	h.sticky = sticky
	h.until = now + h.pol.RepairNanos
	h.mu.Unlock()
}

// degrade transitions a reachable component to Degraded. A Failed component
// stays Failed (degradation of a dead link is meaningless).
func (h *health) degrade(now int64) {
	h.mu.Lock()
	if h.observeLocked(now) != Failed {
		h.state = Degraded
	}
	h.mu.Unlock()
}

// restore repairs the component into Probation (explicit operator action;
// also the only way out of a sticky failure or a degradation).
func (h *health) restore(now int64) {
	h.mu.Lock()
	h.state = Probation
	h.sticky = false
	h.until = now + h.pol.ProbationNanos
	h.mu.Unlock()
}

// repair reports the self-repair instant and stickiness of the current
// failure (only meaningful in Failed).
func (h *health) repair() (until int64, sticky bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.until, h.sticky
}
