package bench

import (
	"fmt"
	"sort"

	polar "polarcxlmem"
	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/dataplane"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/tier"
	"polarcxlmem/internal/txn"
)

func init() {
	register(Experiment{ID: "tiering", Title: "Elastic hot/cold tiering: migrating hot set, tenant QoS, live resize", Run: runTiering})
}

// The tiering experiment measures the facade's Policy surface end to end:
// the same instance config the library's users write (Policy.Tiering,
// Policy.Quota), the same dataplane tenant tagging, and the same runtime
// knobs (Cluster.SetQoS, Cluster.Resize). Three phases:
//
//  1. Migrating hot set: a point-read workload whose hot window jumps twice
//     mid-run, measured against an identical static (untised) instance.
//     The daemon must chase the window into host DRAM; the static run pays
//     the switch on every read.
//  2. Noisy neighbor: a victim tenant with a small steady hot set shares
//     one fast tier with a tenant hammering a working set three times the
//     victim's at 8x the rate, routed through the batched dataplane so heat
//     attribution runs off the router's TenantTag hook. Halfway through,
//     SetQoS caps the noisy tenant live; the victim's p99 must come back
//     within qosBound x its solo baseline.
//  3. Live resize: an elastic instance is shrunk to a fraction of its
//     working set and grown back under a uniform read load, measuring what
//     an allotment actually costs and that growth restores it.
//
// The obs invariant checkers (including the tier checker: no lost,
// duplicated, or orphaned mirrors) stay armed across every rig.

const (
	trRows       = 8192
	trRowBytes   = 100     // ~70 rows per half-packed 16 KiB leaf: the dataset spans ~117 pages
	trCacheBytes = 8 << 10 // 128 CPU-cache lines: a multi-leaf hot set cannot hide in the L1/L2 model
	trPoolPages  = 256     // fits the ~117-leaf dataset with headroom
	trClusterCap = 2048

	// qosBound is the documented noisy-neighbor guarantee: with a QoS cap on
	// the aggressor, the victim's p99 stays within this factor of its solo
	// (no-neighbor) p99.
	qosBound = 2.0
)

// tierRig is one facade-built instance with an armed checker registry and a
// preloaded table, driven through the public Policy surface.
type tierRig struct {
	cluster *polar.Cluster
	inst    *polar.Instance
	tr      *btree.Tree
	reg     *obs.Registry
}

func newTierRig(name string, pol *polar.Policy, poolPages int64) (*tierRig, error) {
	reg := obs.New(obs.Options{})
	for _, c := range obs.DefaultCheckers() {
		reg.AddChecker(c)
	}
	cluster, err := polar.NewCluster(polar.ClusterConfig{PoolPages: trClusterCap}, polar.WithObserver(reg))
	if err != nil {
		return nil, err
	}
	inst, err := cluster.Start(polar.InstanceConfig{
		Name:       name,
		PoolPages:  poolPages,
		CacheBytes: trCacheBytes,
		Policy:     pol,
	})
	if err != nil {
		return nil, err
	}
	clk, eng := inst.Clock(), inst.Engine()
	tr, err := eng.CreateTable(clk, "t")
	if err != nil {
		return nil, err
	}
	val := make([]byte, trRowBytes)
	tx := eng.Begin(clk)
	for k := int64(1); k <= trRows; k++ {
		if err := tx.Insert(tr, k, val); err != nil {
			return nil, fmt.Errorf("tiering preload key %d: %w", k, err)
		}
		if k%512 == 0 {
			if err := tx.Commit(); err != nil {
				return nil, err
			}
			tx = eng.Begin(clk)
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	if err := eng.Checkpoint(clk); err != nil {
		return nil, err
	}
	return &tierRig{cluster: cluster, inst: inst, tr: tr, reg: reg}, nil
}

// violations closes out the rig's checkers.
func (r *tierRig) violations() int { return len(r.reg.Finish()) }

// latQuantile reads quantile q from a sample set (sorted in place).
func latQuantile(lats []int64, q float64) int64 {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(q * float64(len(lats)-1))
	return lats[idx]
}

func latMean(lats []int64) float64 {
	if len(lats) == 0 {
		return 0
	}
	var sum int64
	for _, v := range lats {
		sum += v
	}
	return float64(sum) / float64(len(lats))
}

// --- phase 1: migrating hot set -------------------------------------------

// TierLatSummary is one variant's read-latency distribution.
type TierLatSummary struct {
	Samples   int     `json:"samples"`
	MeanNanos float64 `json:"mean_nanos"`
	P50Nanos  int64   `json:"p50_nanos"`
	P99Nanos  int64   `json:"p99_nanos"`
}

func summarize(lats []int64) TierLatSummary {
	return TierLatSummary{
		Samples:   len(lats),
		MeanNanos: latMean(lats),
		P50Nanos:  latQuantile(lats, 0.50),
		P99Nanos:  latQuantile(lats, 0.99),
	}
}

// TierMigrationResult is the migrating-hot-set phase of BENCH_tiering.json.
type TierMigrationResult struct {
	Ops        int            `json:"ops"`
	Migrations int            `json:"migrations"`
	Static     TierLatSummary `json:"static"`
	Tiered     TierLatSummary `json:"tiered"`
	P99Speedup float64        `json:"p99_speedup"`
	P50Speedup float64        `json:"p50_speedup"`
	Promotions int64          `json:"promotions"`
	Demotions  int64          `json:"demotions"`
	// MirrorReadsPerOp is fast-tier page accesses per read op (a point read
	// issues ~40 page accesses as it descends and binary-searches).
	MirrorReadsPerOp float64 `json:"mirror_reads_per_op"`
	Violations       int     `json:"violations"`
}

// migrationConfig is phase 1's placement policy: tick on every commit, a
// 200 us half-life so a migrated-away window cools within a few batches of
// virtual time, and a promotion bar low enough that a window earns DRAM
// within its first few batches of touches.
func migrationConfig() *tier.Config {
	return &tier.Config{
		FastPages:     40, // two 15-leaf windows mid-migration + the upper levels
		IntervalNanos: 1,
		HalfLifeNanos: 200 * simclock.Microsecond,
		PromoteAbove:  1.2,
	}
}

// driveMigration runs the migrating-hot-set read loop on rig and returns
// per-read latencies. The hot window (10 leaves) jumps to a disjoint key
// range at 1/3 and 2/3 of the run; every read lands inside the live window.
func driveMigration(rig *tierRig, ops int) ([]int64, error) {
	const (
		width = 1024 // keys per hot window: ~15 half-packed leaves
		batch = 8    // reads per (read-only) transaction; commit ticks the daemon
	)
	starts := []int64{1, 3073, 6145}
	clk, eng := rig.inst.Clock(), rig.inst.Engine()
	lats := make([]int64, 0, ops)
	third := ops / len(starts)
	tx := eng.Begin(clk)
	for i := 0; i < ops; i++ {
		phase := i / third
		if phase >= len(starts) {
			phase = len(starts) - 1
		}
		key := starts[phase] + int64(i*37)%width // 37 is coprime with 1024: sweeps every leaf
		t0 := clk.Now()
		if _, err := tx.Get(rig.tr, key); err != nil {
			return nil, fmt.Errorf("tiering migration read key %d: %w", key, err)
		}
		lats = append(lats, clk.Now()-t0)
		if (i+1)%batch == 0 {
			if err := tx.Commit(); err != nil {
				return nil, err
			}
			tx = eng.Begin(clk)
		}
	}
	return lats, tx.Commit()
}

func runTierMigration(cfg Config) (TierMigrationResult, error) {
	ops := cfg.ops(3_000, 30_000)
	res := TierMigrationResult{Ops: ops, Migrations: 2}

	static, err := newTierRig("static", nil, trPoolPages)
	if err != nil {
		return res, err
	}
	sLats, err := driveMigration(static, ops)
	if err != nil {
		return res, err
	}
	res.Static = summarize(sLats)
	res.Violations += static.violations()

	tiered, err := newTierRig("tiered", &polar.Policy{Tiering: migrationConfig()}, trPoolPages)
	if err != nil {
		return res, err
	}
	tLats, err := driveMigration(tiered, ops)
	if err != nil {
		return res, err
	}
	res.Tiered = summarize(tLats)
	st := tiered.inst.Tiering().Stats()
	res.Promotions, res.Demotions = st.Promotions, st.Demotions
	if ops > 0 {
		res.MirrorReadsPerOp = float64(tiered.inst.Pool().FastHits()) / float64(ops)
	}
	res.Violations += tiered.violations()
	if res.Tiered.P99Nanos > 0 {
		res.P99Speedup = float64(res.Static.P99Nanos) / float64(res.Tiered.P99Nanos)
	}
	if res.Tiered.P50Nanos > 0 {
		res.P50Speedup = float64(res.Static.P50Nanos) / float64(res.Tiered.P50Nanos)
	}
	return res, nil
}

// --- phase 2: noisy neighbor + live SetQoS --------------------------------

// TierQoSResult is the noisy-neighbor phase of BENCH_tiering.json.
type TierQoSResult struct {
	Rounds        int            `json:"rounds"`
	NoisyPerRound int            `json:"noisy_per_round"`
	NoisyFastCap  int            `json:"noisy_fast_cap"`
	Solo          TierLatSummary `json:"victim_solo"`
	NoQoS         TierLatSummary `json:"victim_no_qos"`
	QoS           TierLatSummary `json:"victim_with_qos"`
	QoSBound      float64        `json:"qos_bound_vs_solo"`
	WithinBound   bool           `json:"within_bound"`
	Violations    int            `json:"violations"`
}

const (
	qosVictimTenant = 1
	qosNoisyTenant  = 2
	qosVictimWidth  = 512         // ~7 leaves: the victim's whole hot set
	qosNoisyWidth   = 1536        // ~22 leaves: 3x the victim's, above the fast tier alone
	qosNoisyStart   = int64(4097) // disjoint from the victim's keys 1..512
	qosNoisyOps     = 8           // noisy ops per victim op
	qosNoisyCap     = 4           // fast pages the QoS grants the aggressor
	qosFastPages    = 20          // victim + upper levels + the cap fit; both tenants do not
)

// qosConfig is phase 2's placement policy: a long half-life relative to the
// ~100 us rounds so per-leaf heat reflects sustained rates (noisy's per-leaf
// rate is ~2.7x the victim's — without QoS the victim loses every slot).
func qosConfig() *tier.Config {
	return &tier.Config{
		FastPages:     qosFastPages,
		IntervalNanos: 1,
		HalfLifeNanos: 5 * simclock.Millisecond,
	}
}

// driveQoS routes rounds of 1 victim + noisyPerRound noisy point reads
// through a Step-mode dataplane router (TenantTag -> heat attribution, the
// production wiring). Victim latencies are recorded into the slice selected
// per round by rec; a nil selection discards (warm-up windows). midway, if
// non-nil, runs once when half the rounds have executed.
func driveQoS(rig *tierRig, rounds, noisyPerRound int, rec func(round int) *[]int64, midway func() error) error {
	router := dataplane.New(rig.inst.Engine(), dataplane.Config{
		Workers:    1, // serialize: victim latencies are not queue-position noise
		QueueDepth: 64,
		BatchSize:  1 + noisyPerRound,
		TenantTag:  rig.inst.Tiering().Heat().Bind,
		Registry:   rig.reg,
		Actor:      "dp-" + rig.inst.Name(),
	})
	arr := simclock.New()
	var opErr error
	done := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}
	for r := 0; r < rounds; r++ {
		if midway != nil && r == rounds/2 {
			if err := midway(); err != nil {
				return err
			}
		}
		arr.Advance(10 * simclock.Microsecond)
		sink := rec(r)
		vKey := 1 + int64(r*37)%qosVictimWidth // 37 is coprime with 512
		vReq := dataplane.Request{
			Session: 1,
			Tenant:  qosVictimTenant,
			Arrival: arr.Now(),
			Op: func(tx *txn.Txn) error {
				t0 := tx.Clock().Now()
				_, err := tx.Get(rig.tr, vKey)
				if err == nil && sink != nil {
					*sink = append(*sink, tx.Clock().Now()-t0)
				}
				return err
			},
			Done: done,
		}
		if err := router.Submit(vReq); err != nil {
			return fmt.Errorf("tiering qos victim submit: %w", err)
		}
		for j := 0; j < noisyPerRound; j++ {
			nKey := qosNoisyStart + int64((r*noisyPerRound+j)*53)%qosNoisyWidth // 53 is coprime with 1536
			if err := router.Submit(dataplane.Request{
				Session: 2,
				Tenant:  qosNoisyTenant,
				Arrival: arr.Now(),
				Op: func(tx *txn.Txn) error {
					_, err := tx.Get(rig.tr, nKey)
					return err
				},
				Done: done,
			}); err != nil {
				return fmt.Errorf("tiering qos noisy submit: %w", err)
			}
		}
		router.Step()
	}
	router.Drain()
	return opErr
}

func runTierQoS(cfg Config) (TierQoSResult, error) {
	rounds := cfg.ops(600, 3_000)
	warm := rounds / 5
	res := TierQoSResult{
		Rounds:        rounds,
		NoisyPerRound: qosNoisyOps,
		NoisyFastCap:  qosNoisyCap,
		QoSBound:      qosBound,
	}

	// Solo baseline: the victim alone on an identical tiered rig.
	solo, err := newTierRig("solo", &polar.Policy{Tiering: qosConfig()}, trPoolPages)
	if err != nil {
		return res, err
	}
	var soloLats []int64
	err = driveQoS(solo, rounds, 0, func(r int) *[]int64 {
		if r < warm {
			return nil
		}
		return &soloLats
	}, nil)
	if err != nil {
		return res, err
	}
	res.Solo = summarize(soloLats)
	res.Violations += solo.violations()

	// Shared run: no QoS for the first half, live SetQoS at the midpoint.
	shared, err := newTierRig("shared", &polar.Policy{Tiering: qosConfig()}, trPoolPages)
	if err != nil {
		return res, err
	}
	var noQoSLats, qosLats []int64
	half := rounds / 2
	err = driveQoS(shared, rounds, qosNoisyOps, func(r int) *[]int64 {
		switch {
		case r < warm:
			return nil // cold-start warm-up
		case r < half:
			return &noQoSLats
		case r < half+warm:
			return nil // post-SetQoS re-placement warm-up
		default:
			return &qosLats
		}
	}, func() error {
		return shared.cluster.SetQoS("shared", tier.QoS{
			TenantFastPages: map[int]int{qosNoisyTenant: qosNoisyCap},
		})
	})
	if err != nil {
		return res, err
	}
	res.NoQoS = summarize(noQoSLats)
	res.QoS = summarize(qosLats)
	res.Violations += shared.violations()
	res.WithinBound = res.QoS.P99Nanos > 0 && res.Solo.P99Nanos > 0 &&
		float64(res.QoS.P99Nanos) <= qosBound*float64(res.Solo.P99Nanos)
	return res, nil
}

// --- phase 3: live resize --------------------------------------------------

// TierResizeWindow is one allotment window of the resize phase.
type TierResizeWindow struct {
	Allotment int64          `json:"allotment_pages"`
	Resident  int            `json:"resident_pages"`
	Lat       TierLatSummary `json:"read_latency"`
}

// TierResizeResult is the live-resize phase of BENCH_tiering.json.
type TierResizeResult struct {
	ReadsPerWindow int                `json:"reads_per_window"`
	Windows        []TierResizeWindow `json:"windows"`
	Violations     int                `json:"violations"`
}

func runTierResize(cfg Config) (TierResizeResult, error) {
	const (
		resizeMax   = int64(256)
		resizeSmall = int64(48)
		resizeMin   = int64(16)
	)
	reads := cfg.ops(600, 3_000)
	res := TierResizeResult{ReadsPerWindow: reads}
	rig, err := newTierRig("elastic", &polar.Policy{
		Quota: &polar.QuotaPolicy{MinPages: resizeMin, MaxPages: resizeMax},
	}, resizeMax)
	if err != nil {
		return res, err
	}
	clk, eng := rig.inst.Clock(), rig.inst.Engine()
	window := func(allotment int64) error {
		lats := make([]int64, 0, reads)
		tx := eng.Begin(clk)
		for i := 0; i < reads; i++ {
			key := 1 + int64(i*97)%trRows // uniform sweep: the whole dataset is the working set
			t0 := clk.Now()
			if _, err := tx.Get(rig.tr, key); err != nil {
				return fmt.Errorf("tiering resize read key %d: %w", key, err)
			}
			lats = append(lats, clk.Now()-t0)
			if (i+1)%16 == 0 {
				if err := tx.Commit(); err != nil {
					return err
				}
				tx = eng.Begin(clk)
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
		res.Windows = append(res.Windows, TierResizeWindow{
			Allotment: allotment,
			Resident:  rig.inst.Pool().Resident(),
			Lat:       summarize(lats),
		})
		return nil
	}
	if err := window(resizeMax); err != nil {
		return res, err
	}
	if err := rig.cluster.Resize("elastic", resizeSmall); err != nil {
		return res, err
	}
	if err := window(resizeSmall); err != nil {
		return res, err
	}
	if err := rig.cluster.Resize("elastic", resizeMax); err != nil {
		return res, err
	}
	if err := window(resizeMax); err != nil {
		return res, err
	}
	res.Violations = rig.violations()
	return res, nil
}

// --- experiment ------------------------------------------------------------

// tieringJSON is the BENCH_tiering.json document.
type tieringJSON struct {
	Experiment string              `json:"experiment"`
	Migration  TierMigrationResult `json:"migration"`
	QoS        TierQoSResult       `json:"qos"`
	Resize     TierResizeResult    `json:"resize"`
	Violations int                 `json:"violations"`
}

func runTiering(cfg Config) ([]*Table, error) {
	mig, err := runTierMigration(cfg)
	if err != nil {
		return nil, err
	}
	qos, err := runTierQoS(cfg)
	if err != nil {
		return nil, err
	}
	rsz, err := runTierResize(cfg)
	if err != nil {
		return nil, err
	}
	doc := tieringJSON{
		Experiment: "tiering",
		Migration:  mig,
		QoS:        qos,
		Resize:     rsz,
		Violations: mig.Violations + qos.Violations + rsz.Violations,
	}
	written, err := cfg.writeJSON("BENCH_tiering.json", doc)
	if err != nil {
		return nil, fmt.Errorf("tiering: %w", err)
	}

	tm := &Table{ID: "tiering", Title: "Migrating hot set: static vs tiered point-read latency",
		Headers: []string{"variant", "ops", "mean (ns)", "p50 (ns)", "p99 (ns)"}}
	tm.AddRow("static", fmt.Sprintf("%d", mig.Ops), fmt.Sprintf("%.0f", mig.Static.MeanNanos),
		fmt.Sprintf("%d", mig.Static.P50Nanos), fmt.Sprintf("%d", mig.Static.P99Nanos))
	tm.AddRow("tiered", fmt.Sprintf("%d", mig.Ops), fmt.Sprintf("%.0f", mig.Tiered.MeanNanos),
		fmt.Sprintf("%d", mig.Tiered.P50Nanos), fmt.Sprintf("%d", mig.Tiered.P99Nanos))
	tm.Notes = append(tm.Notes,
		fmt.Sprintf("hot window jumps twice mid-run; tiered p99 %.1fx better, p50 %.1fx (%.1f mirror accesses per ~40-access read)",
			mig.P99Speedup, mig.P50Speedup, mig.MirrorReadsPerOp),
		fmt.Sprintf("%d promotions, %d demotions; %d checker violations", mig.Promotions, mig.Demotions, mig.Violations))

	tq := &Table{ID: "tiering", Title: "Noisy neighbor: victim p99 with live SetQoS at the midpoint",
		Headers: []string{"window", "samples", "mean (ns)", "p50 (ns)", "p99 (ns)"}}
	tq.AddRow("solo", fmt.Sprintf("%d", qos.Solo.Samples), fmt.Sprintf("%.0f", qos.Solo.MeanNanos),
		fmt.Sprintf("%d", qos.Solo.P50Nanos), fmt.Sprintf("%d", qos.Solo.P99Nanos))
	tq.AddRow("no QoS", fmt.Sprintf("%d", qos.NoQoS.Samples), fmt.Sprintf("%.0f", qos.NoQoS.MeanNanos),
		fmt.Sprintf("%d", qos.NoQoS.P50Nanos), fmt.Sprintf("%d", qos.NoQoS.P99Nanos))
	tq.AddRow("QoS", fmt.Sprintf("%d", qos.QoS.Samples), fmt.Sprintf("%.0f", qos.QoS.MeanNanos),
		fmt.Sprintf("%d", qos.QoS.P50Nanos), fmt.Sprintf("%d", qos.QoS.P99Nanos))
	tq.Notes = append(tq.Notes,
		fmt.Sprintf("noisy tenant: %dx the victim's rate over 3x its working set; SetQoS caps it at %d fast pages",
			qos.NoisyPerRound, qos.NoisyFastCap),
		fmt.Sprintf("bound: victim p99 under QoS within %.1fx of solo — holds: %v", qos.QoSBound, qos.WithinBound))

	trz := &Table{ID: "tiering", Title: "Live resize of an elastic allotment under a uniform read load",
		Headers: []string{"allotment", "resident", "mean (ns)", "p50 (ns)", "p99 (ns)"}}
	for _, w := range rsz.Windows {
		trz.AddRow(fmt.Sprintf("%d", w.Allotment), fmt.Sprintf("%d", w.Resident),
			fmt.Sprintf("%.0f", w.Lat.MeanNanos), fmt.Sprintf("%d", w.Lat.P50Nanos), fmt.Sprintf("%d", w.Lat.P99Nanos))
	}
	trz.Notes = append(trz.Notes,
		"shrink evicts the LRU tail (clean after checkpoint: no write-back); reads refault from storage at 150 us",
		fmt.Sprintf("total checker violations across all rigs: %d", doc.Violations))
	trz.Notes = append(trz.Notes, written...)
	return []*Table{tm, tq, trz}, nil
}
