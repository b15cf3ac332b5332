package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"polarcxlmem/internal/core"
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
	"polarcxlmem/internal/txn"
	"polarcxlmem/internal/wal"
)

func init() {
	register(Experiment{ID: "commit", Title: "Commit scaling: per-txn flush vs group commit (1..64 committers)", Run: runCommit})
}

// The commit-scaling experiment (§2.2's log-path argument, measured): N
// concurrent committers run single-update transactions against one
// PolarCXLMem instance, once with the classic one-fsync-per-commit path and
// once through the group committer. Per-transaction flushing serializes
// every committer on the log device's fsync queue — the IOPS wall — so
// throughput flatlines near 1/fsync regardless of N; group commit amortizes
// one fsync over a whole batch and scales with the batch factor. Throughput
// is virtual-time: committed transactions divided by the span from workload
// start to the last committer's final clock.

const (
	commitKeysPerWorker = 24
	commitValBytes      = 32 // fixed-size values: updates never split pages
)

// CommitPoint is one (committers, mode) measurement, JSON-encodable for
// BENCH_commit.json.
type CommitPoint struct {
	Committers    int     `json:"committers"`
	Mode          string  `json:"mode"` // "per-txn" | "group"
	Commits       int64   `json:"commits"`
	VirtualMillis float64 `json:"virtual_millis"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	Batches       int64   `json:"batches,omitempty"`
	MeanBatch     float64 `json:"mean_batch,omitempty"`
	P50WaitNanos  int64   `json:"p50_wait_nanos,omitempty"`
	P95WaitNanos  int64   `json:"p95_wait_nanos,omitempty"`
}

// commitJSON is the BENCH_commit.json document.
type commitJSON struct {
	Experiment    string        `json:"experiment"`
	TxnsPerWorker int           `json:"txns_per_worker"`
	KeysPerWorker int           `json:"keys_per_worker"`
	FsyncNanos    int64         `json:"fsync_nanos"`
	MaxWaitNanos  int64         `json:"max_wait_nanos"`
	SpeedupAt16   float64       `json:"speedup_at_16,omitempty"`
	Points        []CommitPoint `json:"points"`
}

// runCommitPoint measures one (committers, mode) cell on a fresh rig. The
// instance is sized so the whole working set stays resident — the point is
// the log path, not eviction traffic — and each worker owns a disjoint key
// range, so the only shared contention is the WAL device and the CXL
// fabric, exactly the resources under study.
func runCommitPoint(cfg Config, committers int, group bool) (CommitPoint, error) {
	txns := cfg.ops(150, 400)
	rows := int64(committers * commitKeysPerWorker)
	blocks := int64(estimatePages(1, rows)*2 + 64)

	clk := simclock.New()
	topo := cxl.NewTopology(cxl.TopologyConfig{PoolBytes: core.RegionSizeFor(blocks) + 4096})
	topo.SetObserver(observer())
	host, err := topo.AttachHost("host0", 0)
	if err != nil {
		return CommitPoint{}, err
	}
	region, err := host.Allocate(clk, "db0", core.RegionSizeFor(blocks))
	if err != nil {
		return CommitPoint{}, err
	}
	cache := host.NewCache("db0", 2<<20)
	store := storage.New(storage.Config{})
	pool, err := core.Format(host, region, cache, store)
	if err != nil {
		return CommitPoint{}, err
	}
	pool.SetObserver(observer())
	ws := wal.NewStore(0, 0)
	eng, err := txn.Bootstrap(clk, pool, wal.Attach(ws), store)
	if err != nil {
		return CommitPoint{}, err
	}
	tr, err := eng.CreateTable(clk, "t")
	if err != nil {
		return CommitPoint{}, err
	}

	// Preload every worker's key range single-threaded, then checkpoint so
	// the measured window starts with a clean dirty set and a short redo
	// tail.
	preload := eng.Begin(clk)
	seedRng := rand.New(rand.NewSource(int64(committers)*2 + 1))
	val := func() []byte {
		v := make([]byte, commitValBytes)
		seedRng.Read(v)
		return v
	}
	for k := int64(0); k < rows; k++ {
		if err := preload.Insert(tr, k, val()); err != nil {
			return CommitPoint{}, fmt.Errorf("commit preload key %d: %w", k, err)
		}
	}
	if err := preload.Commit(); err != nil {
		return CommitPoint{}, err
	}
	if err := eng.Checkpoint(clk); err != nil {
		return CommitPoint{}, err
	}

	pt := CommitPoint{Committers: committers, Mode: "per-txn"}
	var gc *wal.GroupCommitter
	waitReg := obs.New(obs.Options{})
	if group {
		pt.Mode = "group"
		gc = eng.EnableGroupCommit(wal.GroupPolicy{})
		gc.SetObserver(waitReg)
	}

	// Committers run as workers of one virtual-time scheduler, lowest clock
	// first, so which commits share a batch — and every number below — is
	// a function of the inputs, not of the OS scheduler.
	sched := simclock.NewSched()
	start := clk.Now()
	finals := make([]int64, committers)
	errs := make([]error, committers)
	for w := 0; w < committers; w++ {
		sched.Go(simclock.NewAt(start), func(sw *simclock.Worker) {
			wclk := sw.Clock()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 17))
			base := int64(w * commitKeysPerWorker)
			v := make([]byte, commitValBytes)
			for i := 0; i < txns; i++ {
				tx := eng.Begin(wclk)
				k := base + rng.Int63n(commitKeysPerWorker)
				rng.Read(v)
				if err := tx.Update(tr, k, v); err != nil {
					errs[w] = fmt.Errorf("worker %d txn %d: %w", w, i, err)
					return
				}
				if err := tx.Commit(); err != nil {
					errs[w] = fmt.Errorf("worker %d commit %d: %w", w, i, err)
					return
				}
				sw.Yield()
			}
			finals[w] = wclk.Now()
		})
	}
	if err := sched.Run(); err != nil {
		return CommitPoint{}, err
	}
	for _, err := range errs {
		if err != nil {
			return CommitPoint{}, err
		}
	}

	span := int64(0)
	for _, fin := range finals {
		if fin-start > span {
			span = fin - start
		}
	}
	pt.Commits = int64(committers * txns)
	pt.VirtualMillis = float64(span) / float64(simclock.Millisecond)
	if span > 0 {
		pt.CommitsPerSec = float64(pt.Commits) / (float64(span) / float64(simclock.Second))
	}
	if gc != nil {
		pt.Batches = gc.Batches()
		if pt.Batches > 0 {
			pt.MeanBatch = float64(gc.Commits()) / float64(pt.Batches)
		}
		h := waitReg.Histogram("wal.commit_wait_ns")
		pt.P50WaitNanos = h.Quantile(0.50)
		pt.P95WaitNanos = h.Quantile(0.95)
	}
	return pt, nil
}

// commitSweep runs the full committer sweep for both modes.
func commitSweep(cfg Config) ([]CommitPoint, error) {
	counts := []int{1, 2, 4, 8, 16, 32, 64}
	if cfg.Quick {
		counts = []int{1, 2, 4, 8, 16}
	}
	var points []CommitPoint
	for _, c := range counts {
		for _, group := range []bool{false, true} {
			pt, err := runCommitPoint(cfg, c, group)
			if err != nil {
				return nil, err
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// speedupAt returns group/per-txn throughput at a committer count (0 when
// the sweep lacks the pair).
func speedupAt(points []CommitPoint, committers int) float64 {
	var per, grp float64
	for _, p := range points {
		if p.Committers != committers {
			continue
		}
		if p.Mode == "group" {
			grp = p.CommitsPerSec
		} else {
			per = p.CommitsPerSec
		}
	}
	if per == 0 {
		return 0
	}
	return grp / per
}

func runCommit(cfg Config) ([]*Table, error) {
	points, err := commitSweep(cfg)
	if err != nil {
		return nil, err
	}

	doc := commitJSON{
		Experiment:    "commit-scaling",
		TxnsPerWorker: cfg.ops(150, 400),
		KeysPerWorker: commitKeysPerWorker,
		FsyncNanos:    wal.DefaultFsyncNanos,
		MaxWaitNanos:  wal.DefaultMaxWaitNanos,
		SpeedupAt16:   speedupAt(points, 16),
		Points:        points,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile("BENCH_commit.json", append(blob, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("commit: writing BENCH_commit.json: %w", err)
	}

	t := &Table{ID: "commit", Title: "Commit throughput vs concurrent committers (virtual time)",
		Headers: []string{"committers", "mode", "commits", "span (ms)", "commits/s", "batches", "mean batch", "p50 wait (us)", "p95 wait (us)"}}
	for _, p := range points {
		batches, mean, p50, p95 := "-", "-", "-", "-"
		if p.Mode == "group" {
			batches = fmt.Sprintf("%d", p.Batches)
			mean = f2(p.MeanBatch)
			p50 = f1(float64(p.P50WaitNanos) / 1e3)
			p95 = f1(float64(p.P95WaitNanos) / 1e3)
		}
		t.AddRow(fmt.Sprintf("%d", p.Committers), p.Mode, fmt.Sprintf("%d", p.Commits),
			f2(p.VirtualMillis), fmt.Sprintf("%.0f", p.CommitsPerSec), batches, mean, p50, p95)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("per-txn flush is capped near 1/fsync = %.0f commits/s by the log device's fsync queue", float64(simclock.Second)/float64(wal.DefaultFsyncNanos)),
		fmt.Sprintf("group commit at 16 committers: %.1fx per-txn throughput (acceptance floor 2x)", doc.SpeedupAt16),
		"full sweep written to BENCH_commit.json")
	return []*Table{t}, nil
}
