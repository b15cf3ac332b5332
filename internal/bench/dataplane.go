package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"polarcxlmem/internal/btree"
	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/dataplane"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
	"polarcxlmem/internal/workload"
)

func init() {
	register(Experiment{ID: "dataplane", Title: "Front-end dataplane: million-session routing + batch-size ablation", Run: runDataplane})
}

// The dataplane experiment measures the ingress tier every other bench
// bypasses: millions of open client sessions funnel point selects through
// the batched request router (Zipf-skewed tenants, token-bucket admission,
// bounded queues) instead of driving the engine directly. Phase 1 holds a
// million-session table open and routes a request stream through 16 worker
// shards in the deterministic Step mode, with the obs invariant checkers
// armed on the dp.* event stream. Phase 2 is the batch-size ablation at the
// same worker count: identical traffic at batch sizes 1..32, reporting the
// per-request overhead (dispatch CPU + begin/commit + log force, i.e. batch
// virtual span minus the time inside request ops) that batching amortizes.

const (
	dpRows       = 4096  // hot table rows; the working set stays resident
	dpTenants    = 64    // cloud tenants behind the front door
	dpPumpNanos  = 1_500 // virtual ns between successive front-door arrivals
	dpSeed       = 42
	dpQueueDepth = 256
)

// dpRig is a fresh single-switch instance with one preloaded table.
type dpRig struct {
	eng *txn.Engine
	tr  *btree.Tree
}

func newDPRig() (*dpRig, error) {
	blocks := int64(estimatePages(1, dpRows)*2 + 64)
	clk := simclock.New()
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: core.RegionSizeFor(blocks) + 4096})
	topo.SetObserver(observer())
	host, err := topo.AttachHost("host0", 0)
	if err != nil {
		return nil, err
	}
	region, err := host.Allocate(clk, "db0", core.RegionSizeFor(blocks))
	if err != nil {
		return nil, err
	}
	cache := host.NewCache("db0", 2<<20)
	store := storage.New(storage.Config{})
	pool, err := core.Format(host, region, cache, store)
	if err != nil {
		return nil, err
	}
	pool.SetObserver(observer())
	eng, err := txn.Bootstrap(clk, pool, wal.Attach(wal.NewStore(0, 0)), store)
	if err != nil {
		return nil, err
	}
	tr, err := eng.CreateTable(clk, "t")
	if err != nil {
		return nil, err
	}
	tx := eng.Begin(clk)
	for id := int64(1); id <= dpRows; id++ {
		if err := tx.Insert(tr, id, []byte("dataplane-row-payload--")); err != nil {
			return nil, fmt.Errorf("dataplane preload key %d: %w", id, err)
		}
		if id%1000 == 0 {
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
	return &dpRig{eng: eng, tr: tr}, nil
}

// dpPointSelect builds one routed point-select op: statement CPU charged to
// the executing worker's clock, then the read.
func (r *dpRig) dpPointSelect(key int64) func(*txn.Txn) error {
	return func(tx *txn.Txn) error {
		tx.Clock().Advance(workload.PointSelectCPU)
		_, err := tx.Get(r.tr, key)
		return err
	}
}

// dpDrive pumps reqTotal requests from pumps deterministic session streams
// through the router in Step mode: queue-full backpressure executes a batch
// and retries, tenant rate rejections drop the request. Arrivals come off a
// single virtual clock advancing dpPumpNanos per request, and backpressure
// stalls it: a submitter that found its shard's queue full was blocked
// until that shard drained, and since the overloaded front door gates every
// client, the arrival clock itself moves to the shard's post-drain instant.
// Without this, arrival stamps lag the service front by the whole run and
// every measured queue wait saturates the histogram. Returns (rate-dropped
// total, of which tenant 0).
func dpDrive(router *dataplane.Router, rig *dpRig, sess *workload.Sessions, pumps, reqTotal int) (int64, int64, error) {
	streams := make([]*workload.Stream, pumps)
	for p := range streams {
		streams[p] = sess.Stream(p, pumps)
	}
	arr := simclock.New()
	var rateDropped, hotDropped int64
	for i := 0; i < reqTotal; i++ {
		st := streams[i%pumps]
		sid := st.Next()
		arr.Advance(dpPumpNanos)
		key := 1 + int64(st.RNG().Intn(dpRows))
		sess.Issue(sid)
		req := dataplane.Request{
			Session: sid,
			Tenant:  sess.Tenant(sid),
			Arrival: arr.Now(),
			Op:      rig.dpPointSelect(key),
			Done:    sess.Done,
		}
		for {
			err := router.Submit(req)
			if err == nil {
				break
			}
			if errors.Is(err, dataplane.ErrRateLimited) {
				rateDropped++ // retrying before the bucket refills cannot help
				if req.Tenant == 0 {
					hotDropped++
				}
				break
			}
			if !errors.Is(err, dataplane.ErrOverloaded) {
				return rateDropped, hotDropped, fmt.Errorf("dataplane drive: %w", err)
			}
			// Queue full: backpressure. Execute a batch, then retry from the
			// moment the submitter's shard had drained.
			if !router.Step() {
				return rateDropped, hotDropped, fmt.Errorf("dataplane drive: queue full with nothing to execute")
			}
			if t := router.ShardVNanos(req.Session); t > req.Arrival {
				req.Arrival = t
				arr.AdvanceTo(t)
			}
		}
	}
	router.Drain()
	return rateDropped, hotDropped, nil
}

// DPSessionsResult is the million-session phase of BENCH_dataplane.json.
type DPSessionsResult struct {
	OpenSessions    int     `json:"open_sessions"`
	TouchedSessions int64   `json:"touched_sessions"`
	Tenants         int     `json:"tenants"`
	HotTenantShare  float64 `json:"hot_tenant_share"`
	Requests        int64   `json:"requests"`
	Completed       int64   `json:"completed"`
	RateDropped     int64   `json:"rate_dropped"`
	RateDroppedHot  int64   `json:"rate_dropped_hot"`
	Batches         int64   `json:"batches"`
	MeanBatch       float64 `json:"mean_batch"`
	VirtualMillis   float64 `json:"virtual_millis"`
	RequestsPerSec  float64 `json:"requests_per_sec"`
	P50WaitMicros   float64 `json:"p50_wait_micros"`
	P95WaitMicros   float64 `json:"p95_wait_micros"`
	Violations      int     `json:"violations"`
}

// runDPSessions routes traffic from a (quick: 200k, full: 1.25M)-session
// table through the router with tenant admission armed.
func runDPSessions(cfg Config) (DPSessionsResult, error) {
	rig, err := newDPRig()
	if err != nil {
		return DPSessionsResult{}, err
	}
	sess := workload.NewSessions(workload.SessionConfig{
		Sessions: cfg.ops(200_000, 1_250_000),
		Tenants:  dpTenants,
		Seed:     dpSeed,
	})
	reg := obs.New(obs.Options{})
	checkers := obs.DefaultCheckers()
	for _, c := range checkers {
		reg.AddChecker(c)
	}
	router := dataplane.New(rig.eng, dataplane.Config{
		Workers:    16,
		QueueDepth: dpQueueDepth,
		BatchSize:  16,
		// With backpressure modelled in virtual time, admitted throughput is
		// service-bound, so per-tenant budgets scale with the virtual span.
		// The rate is pitched between the Zipf-hot tenant 0's offered share
		// (~29% of traffic) and the second-hottest tenant's (~12%): the
		// bucket throttles the head of the skew and leaves the tail (nearly)
		// untouched — tenant QoS under a shared front door. The full run
		// admits more throughput per virtual second than the short one, so
		// the rate scales with mode to stay between the two shares.
		TenantRate:  float64(cfg.ops(15_000, 40_000)),
		TenantBurst: 128,
		Registry:    reg,
	})
	// Full mode routes 1.5M requests so over a million DISTINCT sessions
	// issue traffic, not just sit in the table.
	pumps := 16
	reqTotal := cfg.ops(24_000, 1_500_000)
	dropped, hotDropped, err := dpDrive(router, rig, sess, pumps, reqTotal)
	if err != nil {
		return DPSessionsResult{}, err
	}
	st := router.Stats()
	res := DPSessionsResult{
		OpenSessions:    sess.Open(),
		TouchedSessions: sess.Touched(),
		Tenants:         dpTenants,
		HotTenantShare:  sess.TenantShare(0),
		Requests:        st.Requests,
		Completed:       sess.Completed(),
		RateDropped:     dropped,
		RateDroppedHot:  hotDropped,
		Batches:         st.Batches,
		VirtualMillis:   float64(st.MaxVNanos) / float64(simclock.Millisecond),
		Violations:      len(reg.Finish()),
	}
	if st.Batches > 0 {
		res.MeanBatch = float64(st.Requests) / float64(st.Batches)
	}
	if st.MaxVNanos > 0 {
		res.RequestsPerSec = float64(st.Requests) / (float64(st.MaxVNanos) / float64(simclock.Second))
	}
	h := reg.Histogram("dataplane.queue_wait_ns")
	res.P50WaitMicros = float64(h.Quantile(0.50)) / 1e3
	res.P95WaitMicros = float64(h.Quantile(0.95)) / 1e3
	if sess.Failed() > 0 {
		return res, fmt.Errorf("dataplane: %d routed requests failed", sess.Failed())
	}
	if res.Completed != res.Requests {
		return res, fmt.Errorf("dataplane: completed %d != executed %d", res.Completed, res.Requests)
	}
	return res, nil
}

// DPAblationPoint is one batch-size cell of the ablation.
type DPAblationPoint struct {
	BatchSize      int     `json:"batch_size"`
	Requests       int64   `json:"requests"`
	Batches        int64   `json:"batches"`
	OverheadPerReq float64 `json:"overhead_per_req_nanos"`
	VirtualMillis  float64 `json:"virtual_millis"`
	RequestsPerSec float64 `json:"requests_per_sec"`
}

// runDPAblation reruns identical traffic at each batch size, 16 workers.
func runDPAblation(cfg Config, batch int) (DPAblationPoint, error) {
	rig, err := newDPRig()
	if err != nil {
		return DPAblationPoint{}, err
	}
	sess := workload.NewSessions(workload.SessionConfig{
		Sessions: 65_536,
		Tenants:  dpTenants,
		Seed:     dpSeed,
	})
	router := dataplane.New(rig.eng, dataplane.Config{
		Workers:    16,
		QueueDepth: dpQueueDepth,
		BatchSize:  batch,
	})
	reqTotal := cfg.ops(4_000, 16_000)
	if _, _, err := dpDrive(router, rig, sess, 16, reqTotal); err != nil {
		return DPAblationPoint{}, err
	}
	st := router.Stats()
	pt := DPAblationPoint{
		BatchSize:     batch,
		Requests:      st.Requests,
		Batches:       st.Batches,
		VirtualMillis: float64(st.MaxVNanos) / float64(simclock.Millisecond),
	}
	if st.Requests > 0 {
		pt.OverheadPerReq = float64(st.OverheadNanos) / float64(st.Requests)
	}
	if st.MaxVNanos > 0 {
		pt.RequestsPerSec = float64(st.Requests) / (float64(st.MaxVNanos) / float64(simclock.Second))
	}
	return pt, nil
}

// dataplaneJSON is the BENCH_dataplane.json document.
type dataplaneJSON struct {
	Experiment string `json:"experiment"`
	Workers    int    `json:"workers"`
	// OverheadRatio1v16 is per-request overhead at batch 1 over batch 16:
	// how much per-request cost batching removes (acceptance floor 2x).
	OverheadRatio1v16 float64           `json:"overhead_ratio_1_vs_16"`
	Sessions          DPSessionsResult  `json:"sessions"`
	Ablation          []DPAblationPoint `json:"ablation"`
}

func runDataplane(cfg Config) ([]*Table, error) {
	sessions, err := runDPSessions(cfg)
	if err != nil {
		return nil, err
	}
	var ablation []DPAblationPoint
	for _, b := range []int{1, 2, 4, 8, 16, 32} {
		pt, err := runDPAblation(cfg, b)
		if err != nil {
			return nil, err
		}
		ablation = append(ablation, pt)
	}
	doc := dataplaneJSON{Experiment: "dataplane", Workers: 16, Sessions: sessions, Ablation: ablation}
	var over1, over16 float64
	for _, pt := range ablation {
		switch pt.BatchSize {
		case 1:
			over1 = pt.OverheadPerReq
		case 16:
			over16 = pt.OverheadPerReq
		}
	}
	if over16 > 0 {
		doc.OverheadRatio1v16 = over1 / over16
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile("BENCH_dataplane.json", append(blob, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("dataplane: writing BENCH_dataplane.json: %w", err)
	}

	ts := &Table{ID: "dataplane", Title: "Million-session routing through the batched front door",
		Headers: []string{"open sessions", "touched", "requests", "rate-dropped", "mean batch", "span (ms)", "req/s", "p50 wait (us)", "p95 wait (us)", "violations"}}
	ts.AddRow(fmt.Sprintf("%d", sessions.OpenSessions), fmt.Sprintf("%d", sessions.TouchedSessions),
		fmt.Sprintf("%d", sessions.Requests), fmt.Sprintf("%d", sessions.RateDropped),
		f2(sessions.MeanBatch), f2(sessions.VirtualMillis), fmt.Sprintf("%.0f", sessions.RequestsPerSec),
		f1(sessions.P50WaitMicros), f1(sessions.P95WaitMicros), fmt.Sprintf("%d", sessions.Violations))
	ts.Notes = append(ts.Notes,
		fmt.Sprintf("tenant 0 (Zipf-hot, %.0f%% of sessions) absorbed %d of the %d token-bucket drops",
			sessions.HotTenantShare*100, sessions.RateDroppedHot, sessions.RateDropped),
		"queue waits measured with backpressure modelled in virtual time (blocked submitters stall their clocks)",
		"obs invariant checkers (incl. dp-queue accounting) armed for the whole run")

	ta := &Table{ID: "dataplane", Title: "Batch-size ablation at 16 workers (identical traffic)",
		Headers: []string{"batch", "requests", "batches", "overhead/req (us)", "span (ms)", "req/s"}}
	for _, pt := range ablation {
		ta.AddRow(fmt.Sprintf("%d", pt.BatchSize), fmt.Sprintf("%d", pt.Requests), fmt.Sprintf("%d", pt.Batches),
			f2(pt.OverheadPerReq/1e3), f2(pt.VirtualMillis), fmt.Sprintf("%.0f", pt.RequestsPerSec))
	}
	ta.Notes = append(ta.Notes,
		fmt.Sprintf("batch 16 cuts per-request overhead %.1fx vs per-request dispatch (acceptance floor 2x)", doc.OverheadRatio1v16),
		"overhead = batch virtual span minus time inside request ops: dispatch CPU + begin/commit + log force",
		"the curve bottoms out near batch 8-16: amortizing the ~25us log force wins early, then the shared",
		"WAL device floor (16 workers' commits serialize on one log; skew grows with the batch CPU span) dominates",
		"full results written to BENCH_dataplane.json")
	return []*Table{ts, ta}, nil
}
