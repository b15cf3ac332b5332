package polarcxlmem

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/recovery"
)

// crashAndRecover loads a table on a fresh instance, crashes it with an
// uncommitted update in flight, and runs PolarRecv through the facade.
func crashAndRecover(t *testing.T, c *Cluster) *recovery.Result {
	t.Helper()
	inst, err := c.Start(InstanceConfig{Name: "db0", PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := inst.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := inst.Begin()
	for k := int64(0); k < 100; k++ {
		if err := tx.Insert(tbl, k, []byte(fmt.Sprintf("v-%04d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	torn := inst.Begin()
	if err := torn.Update(tbl, 7, []byte("TORN")); err != nil {
		t.Fatal(err)
	}
	inst.Crash()
	_, res, err := c.Recover("db0")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// recoveryMetrics returns reg's recovery.* counters and gauges.
func recoveryMetrics(reg *obs.Registry) map[string]int64 {
	snap := reg.Snapshot()
	out := make(map[string]int64)
	for _, m := range []map[string]int64{snap.Counters, snap.Gauges} {
		for k, v := range m {
			if strings.HasPrefix(k, "recovery.") {
				out[k] = v
			}
		}
	}
	return out
}

// wantMetrics is what one published recovery pass adds to an empty registry.
func wantMetrics(res *recovery.Result) map[string]int64 {
	return map[string]int64{
		"recovery.redo.applied":  int64(res.RedoApplied),
		"recovery.redo.skipped":  int64(res.RedoRecords - res.RedoApplied),
		"recovery.pages.rebuilt": int64(res.PagesRebuilt),
		"recovery.pages.trusted": int64(res.PagesTrusted),
		"recovery.warm_pages":    int64(res.WarmPages),
	}
}

// TestRecoveryMetricsStayInTheirCluster: recovery.* metrics land in the
// registry of the cluster that recovered and nowhere else. A cluster built
// without an observer must not publish into an earlier cluster's registry,
// and of two observed clusters each sees only its own recovery.
func TestRecoveryMetricsStayInTheirCluster(t *testing.T) {
	regA := obs.New(obs.Options{})
	a, err := NewCluster(ClusterConfig{PoolPages: 128}, WithObserver(regA))
	if err != nil {
		t.Fatal(err)
	}
	resA := crashAndRecover(t, a)
	if resA.PagesTrusted == 0 {
		t.Fatalf("PolarRecv trusted no pages: %+v", resA)
	}
	if got, want := recoveryMetrics(regA), wantMetrics(resA); !reflect.DeepEqual(got, want) {
		t.Fatalf("cluster A after its own recovery: %v, want %v", got, want)
	}

	unobserved, err := NewCluster(ClusterConfig{PoolPages: 128})
	if err != nil {
		t.Fatal(err)
	}
	crashAndRecover(t, unobserved)
	if got, want := recoveryMetrics(regA), wantMetrics(resA); !reflect.DeepEqual(got, want) {
		t.Fatalf("an unobserved cluster's recovery moved cluster A's registry: %v, want %v", got, want)
	}

	regB := obs.New(obs.Options{})
	b, err := NewCluster(ClusterConfig{PoolPages: 128}, WithObserver(regB))
	if err != nil {
		t.Fatal(err)
	}
	resB := crashAndRecover(t, b)
	if got, want := recoveryMetrics(regB), wantMetrics(resB); !reflect.DeepEqual(got, want) {
		t.Fatalf("cluster B after its own recovery: %v, want %v", got, want)
	}
	if got, want := recoveryMetrics(regA), wantMetrics(resA); !reflect.DeepEqual(got, want) {
		t.Fatalf("cluster B's recovery moved cluster A's registry: %v, want %v", got, want)
	}
}
