package bench

import (
	"fmt"

	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
)

func init() {
	register(Experiment{ID: "fabric", Title: "Multi-switch fabric: host scaling and intra- vs cross-switch placement", Run: runFabric})
}

// The fabric experiment measures the leaf/spine topology itself: N hosts
// spread over the leaves drive calibrated 16 KB bulk transfers against their
// home memory boxes, every transfer charging its full route (host link →
// leaf crossbar → [trunk → spine → trunk] → box crossbar).
//
// Two sweeps:
//
//   - Host scaling at 8/32/128 hosts, all intra-switch. Per-host demand is
//     link-bound (~64 GB/s); the leaf crossbar (2 TB/s, XC50256) carries
//     hosts/leaf × link. With two leaves the 128-host point oversubscribes
//     each crossbar 2:1, so aggregate throughput flattens at fabric capacity
//     and per-host throughput halves — the congestion knee.
//   - Placement ablation at 32 hosts: a growing fraction of hosts allocate
//     on the *other* leaf's box. Cross traffic pays two trunk traversals
//     (2 x 284 ns) and queues on the 64 GB/s trunks, which are oversubscribed
//     by even a handful of crossing hosts — cross-switch placement collapses
//     while intra-switch neighbours keep their throughput.
//
// Execution is deterministic: every (host, stream) pair owns a virtual
// clock, and transfers are issued single-threaded in lowest-virtual-clock-
// first order (ties broken by stream index). Resources queue in call order,
// so issuing in virtual-time order is what makes their FIFO model faithful —
// and the discrete-event schedule replays identically on every machine.

const (
	fabricLeaves    = 2 // the paper's Figure 5 rack: two switch domains
	fabricStreams   = 8 // concurrent DMA streams per host (~link-rate demand)
	fabricXferBytes = 16384
	fabricAblationN = 32 // host count for the placement ablation
)

// FabricPoint is one host-scaling measurement for BENCH_fabric.json.
type FabricPoint struct {
	Hosts         int     `json:"hosts"`
	Streams       int     `json:"streams_per_host"`
	AggGBps       float64 `json:"agg_gbps"`
	PerHostGBps   float64 `json:"per_host_gbps"`
	LeafUtil      float64 `json:"leaf_util"`
	VirtualMillis float64 `json:"virtual_millis"`
}

// FabricAblation is one cross-fraction measurement for BENCH_fabric.json.
type FabricAblation struct {
	Hosts         int     `json:"hosts"`
	CrossPct      int     `json:"cross_pct"`
	AggGBps       float64 `json:"agg_gbps"`
	IntraHostGBps float64 `json:"intra_host_gbps"`
	CrossHostGBps float64 `json:"cross_host_gbps"`
	SlowdownX     float64 `json:"cross_slowdown_x,omitempty"`
	UplinkUtil    float64 `json:"uplink_util"`
	SpineUtil     float64 `json:"spine_util"`
}

// FabricDegraded is one degraded-trunk phase measurement for
// BENCH_fabric.json: the same all-cross workload run with the trunks
// healthy, degraded to 1/DegradeFactor bandwidth, and restored through
// probation.
type FabricDegraded struct {
	Phase         string  `json:"phase"`
	AggGBps       float64 `json:"agg_gbps"`
	CrossHostGBps float64 `json:"cross_host_gbps"`
	SlowdownX     float64 `json:"slowdown_vs_healthy_x,omitempty"`
	UplinkUtil    float64 `json:"uplink_util"`
	DegradedXfers int64   `json:"degraded_traversals"`
}

// fabricJSON is the BENCH_fabric.json document.
type fabricJSON struct {
	Experiment      string            `json:"experiment"`
	Leaves          int               `json:"leaves"`
	LeafBWGBps      float64           `json:"leaf_bw_gbps"`
	SpineBWGBps     float64           `json:"spine_bw_gbps"`
	TrunkBWGBps     float64           `json:"interswitch_bw_gbps"`
	TrunkNanos      int64             `json:"interswitch_nanos"`
	TransferBytes   int64             `json:"transfer_bytes"`
	RoundsPerStream int               `json:"rounds_per_stream"`
	HostScaling     []FabricPoint     `json:"host_scaling"`
	PlacementSweep  []FabricAblation  `json:"placement_ablation"`
	DegradedTrunk   []*FabricDegraded `json:"degraded_trunk"`
}

// fabricRig is one measurement topology: hosts round-robined over the
// leaves, each homed intra-leaf except the leading crossPct% per leaf, which
// allocate on the next leaf's box.
type fabricRig struct {
	topo  *cxl.Topology
	hosts []*cxl.HostPort
	cross []bool
}

func buildFabricRig(reg *obs.Registry, hosts, crossPct int) (*fabricRig, error) {
	topo := cxl.NewTopology(cxl.TopologyConfig{
		Leaves:    fabricLeaves,
		PoolBytes: 512 << 20,
	}, reg)
	clk := simclock.New()
	r := &fabricRig{topo: topo}
	perLeaf := (hosts + fabricLeaves - 1) / fabricLeaves
	for i := 0; i < hosts; i++ {
		leaf := i % fabricLeaves
		idxOnLeaf := i / fabricLeaves
		cross := crossPct > 0 && idxOnLeaf*100 < perLeaf*crossPct
		home := leaf
		if cross {
			home = (leaf + 1) % fabricLeaves
		}
		name := fmt.Sprintf("h%03d", i)
		h, err := topo.AttachHost(name, leaf)
		if err != nil {
			return nil, err
		}
		if _, err := h.AllocateOn(clk, home, name, 1<<20); err != nil {
			return nil, err
		}
		r.hosts = append(r.hosts, h)
		r.cross = append(r.cross, cross)
	}
	return r, nil
}

// run drives rounds of one 16 KB read + one 16 KB write per stream and
// reports throughput splits. Transfers are issued lowest-clock-first so the
// call-order FIFO resources see arrivals in virtual-time order.
func (r *fabricRig) run(rounds int) (agg, intra, crossTput float64, spanMillis float64) {
	type stream struct {
		clk  *simclock.Clock
		host int
		ops  int
	}
	var streams []*stream
	for hi := range r.hosts {
		for s := 0; s < fabricStreams; s++ {
			streams = append(streams, &stream{clk: simclock.New(), host: hi})
		}
	}
	opsPerStream := rounds * 2
	for remaining := len(streams); remaining > 0; {
		var next *stream
		for _, s := range streams {
			if s.ops < opsPerStream && (next == nil || s.clk.Now() < next.clk.Now()) {
				next = s
			}
		}
		var xerr error
		if next.ops%2 == 0 {
			xerr = r.hosts[next.host].TransferRead(next.clk, fabricXferBytes)
		} else {
			xerr = r.hosts[next.host].TransferWrite(next.clk, fabricXferBytes)
		}
		if xerr != nil {
			// The rig never downs fabric components, so a transfer cannot
			// fail; reaching here is a harness bug.
			panic(xerr)
		}
		next.ops++
		if next.ops == opsPerStream {
			remaining--
		}
	}
	bytesPerStream := int64(rounds) * 2 * fabricXferBytes
	hostSpan := make([]int64, len(r.hosts))
	var span int64
	for _, s := range streams {
		if now := s.clk.Now(); now > hostSpan[s.host] {
			hostSpan[s.host] = now
		}
		if s.clk.Now() > span {
			span = s.clk.Now()
		}
	}
	totalBytes := bytesPerStream * int64(len(streams))
	agg = float64(totalBytes) / (float64(span) / float64(simclock.Second))
	var intraSum, crossSum float64
	var nIntra, nCross int
	for hi := range r.hosts {
		tput := float64(bytesPerStream*fabricStreams) / (float64(hostSpan[hi]) / float64(simclock.Second))
		if r.cross[hi] {
			crossSum += tput
			nCross++
		} else {
			intraSum += tput
			nIntra++
		}
	}
	if nIntra > 0 {
		intra = intraSum / float64(nIntra)
	}
	if nCross > 0 {
		crossTput = crossSum / float64(nCross)
	}
	return agg, intra, crossTput, float64(span) / 1e6
}

// maxLeafUtil reports the busiest leaf crossbar's utilization over span.
func (r *fabricRig) maxLeafUtil(spanMillis float64) float64 {
	span := int64(spanMillis * 1e6)
	var u float64
	for i := 0; i < r.topo.Leaves(); i++ {
		if lu := r.topo.Leaf(i).Fabric().Stats().Utilization(span); lu > u {
			u = lu
		}
	}
	return u
}

// maxUplinkUtil reports the busiest trunk's utilization over span.
func (r *fabricRig) maxUplinkUtil(spanMillis float64) float64 {
	span := int64(spanMillis * 1e6)
	var u float64
	for i := 0; i < r.topo.Leaves(); i++ {
		if up := r.topo.Leaf(i).Uplink(); up != nil {
			if lu := up.Resource().Stats().Utilization(span); lu > u {
				u = lu
			}
		}
	}
	return u
}

func runFabric(cfg Config) ([]*Table, error) {
	rounds := cfg.ops(20, 120)

	scalingT := &Table{
		ID:      "fabric",
		Title:   "Throughput vs host count (2 leaves, intra-switch placement)",
		Headers: []string{"hosts", "streams/host", "agg GB/s", "per-host GB/s", "leaf util", "virt ms"},
	}
	var scaling []FabricPoint
	for _, hosts := range []int{8, 32, 128} {
		rig, err := buildFabricRig(cfg.Registry, hosts, 0)
		if err != nil {
			return nil, err
		}
		agg, _, _, spanMs := rig.run(rounds)
		p := FabricPoint{
			Hosts:         hosts,
			Streams:       fabricStreams,
			AggGBps:       agg / 1e9,
			PerHostGBps:   agg / 1e9 / float64(hosts),
			LeafUtil:      rig.maxLeafUtil(spanMs),
			VirtualMillis: spanMs,
		}
		scaling = append(scaling, p)
		scalingT.AddRow(fmt.Sprint(hosts), fmt.Sprint(fabricStreams),
			f1(p.AggGBps), f1(p.PerHostGBps), pct(p.LeafUtil), f2(p.VirtualMillis))
	}
	scalingT.Notes = append(scalingT.Notes,
		"per-host throughput is link-bound until hosts/leaf x 64 GB/s reaches the 2 TB/s leaf crossbar; the 128-host point oversubscribes it 2:1 — the congestion knee")

	ablT := &Table{
		ID:      "fabric",
		Title:   fmt.Sprintf("Placement ablation at %d hosts: intra- vs cross-switch", fabricAblationN),
		Headers: []string{"cross %", "agg GB/s", "intra-host GB/s", "cross-host GB/s", "slowdown", "uplink util", "spine util"},
	}
	var ablation []FabricAblation
	for _, crossPct := range []int{0, 25, 50, 100} {
		rig, err := buildFabricRig(cfg.Registry, fabricAblationN, crossPct)
		if err != nil {
			return nil, err
		}
		agg, intra, cross, spanMs := rig.run(rounds)
		span := int64(spanMs * 1e6)
		a := FabricAblation{
			Hosts:         fabricAblationN,
			CrossPct:      crossPct,
			AggGBps:       agg / 1e9,
			IntraHostGBps: intra / 1e9,
			CrossHostGBps: cross / 1e9,
			UplinkUtil:    rig.maxUplinkUtil(spanMs),
		}
		if sp := rig.topo.Spine(); sp != nil {
			a.SpineUtil = sp.Stats().Utilization(span)
		}
		if cross > 0 && intra > 0 {
			a.SlowdownX = intra / cross
		}
		ablation = append(ablation, a)
		slow := "-"
		if a.SlowdownX > 0 {
			slow = f1(a.SlowdownX) + "x"
		}
		crossCell := "-"
		if crossPct > 0 {
			crossCell = f1(a.CrossHostGBps)
		}
		intraCell := "-"
		if crossPct < 100 {
			intraCell = f1(a.IntraHostGBps)
		}
		ablT.AddRow(fmt.Sprintf("%d%%", crossPct), f1(a.AggGBps), intraCell, crossCell,
			slow, pct(a.UplinkUtil), pct(a.SpineUtil))
	}
	ablT.Notes = append(ablT.Notes,
		"cross-switch transfers pay 2 x 284 ns trunk latency and queue on the 64 GB/s trunks; a few crossing hosts saturate them while intra-switch neighbours keep link-rate throughput")

	degT := &Table{
		ID:      "fabric",
		Title:   "Degraded trunk: all-cross throughput healthy vs degraded vs post-probation",
		Headers: []string{"phase", "agg GB/s", "cross-host GB/s", "slowdown", "uplink util", "degraded xfers"},
	}
	degraded, err := runDegradedTrunk(cfg.Registry, rounds, degT)
	if err != nil {
		return nil, err
	}

	doc := fabricJSON{
		Experiment:      "fabric-topology",
		Leaves:          fabricLeaves,
		LeafBWGBps:      cxl.FabricBandwidth / 1e9,
		SpineBWGBps:     cxl.SpineBandwidth / 1e9,
		TrunkBWGBps:     cxl.InterSwitchBandwidth / 1e9,
		TrunkNanos:      cxl.InterSwitchNanos,
		TransferBytes:   fabricXferBytes,
		RoundsPerStream: rounds,
		HostScaling:     scaling,
		PlacementSweep:  ablation,
		DegradedTrunk:   degraded,
	}
	written, err := cfg.writeJSON("BENCH_fabric.json", doc)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	degT.Notes = append(degT.Notes, written...)
	return []*Table{scalingT, ablT, degT}, nil
}

// runDegradedTrunk measures the health machine's Degraded state end to end:
// the same 8-host all-cross workload with the trunks healthy, degraded
// (every traversal occupies DegradeFactor x its service time and counts on
// cxl.fabric.degraded.trunk), and restored through probation — proving
// degradation is a bandwidth brown-out, not an outage, and that restore
// recovers the healthy throughput exactly.
func runDegradedTrunk(reg *obs.Registry, rounds int, tbl *Table) ([]*FabricDegraded, error) {
	const degradedHosts = 8
	// The degraded-traversal counter needs a registry even when the bench
	// runs without -metrics: fall back to a local one.
	if reg == nil {
		reg = obs.New(obs.Options{})
	}
	degradedCount := func() int64 {
		return reg.Snapshot().Counters["cxl.fabric.degraded.trunk"]
	}
	var out []*FabricDegraded
	var healthyAgg float64
	for _, phase := range []string{"healthy", "degraded", "post-probation"} {
		rig, err := buildFabricRig(reg, degradedHosts, 100)
		if err != nil {
			return nil, err
		}
		switch phase {
		case "degraded":
			for i := 0; i < rig.topo.Leaves(); i++ {
				rig.topo.DegradeTrunk(0, i)
			}
		case "post-probation":
			for i := 0; i < rig.topo.Leaves(); i++ {
				rig.topo.DegradeTrunk(0, i)
				rig.topo.RestoreTrunk(0, i)
			}
		}
		before := degradedCount()
		agg, _, cross, spanMs := rig.run(rounds)
		p := &FabricDegraded{
			Phase:         phase,
			AggGBps:       agg / 1e9,
			CrossHostGBps: cross / 1e9,
			UplinkUtil:    rig.maxUplinkUtil(spanMs),
			DegradedXfers: degradedCount() - before,
		}
		if phase == "healthy" {
			healthyAgg = agg
		} else if agg > 0 {
			p.SlowdownX = healthyAgg / agg
		}
		out = append(out, p)
		slow := "-"
		if p.SlowdownX > 0 {
			slow = f1(p.SlowdownX) + "x"
		}
		tbl.AddRow(phase, f1(p.AggGBps), f1(p.CrossHostGBps), slow,
			pct(p.UplinkUtil), fmt.Sprint(p.DegradedXfers))
	}
	tbl.Notes = append(tbl.Notes,
		"a degraded trunk serves at 1/4 bandwidth (DefaultDegradeFactor) but stays reachable; RestoreTrunk runs probation at full bandwidth, so post-probation throughput matches healthy")
	return out, nil
}
