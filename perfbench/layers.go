package main

import "strings"

// layerUnits lists every per-layer metric and its unit. Every traced run
// prints all of them; a layer a workload does not exercise reads 0 there.
var layerUnits = map[string]string{
	"dataplane.mean_batch":            "req/batch",
	"dataplane.overhead_vus":          "us",
	"dataplane.wait_vus_p50":          "us",
	"dataplane.wait_vus_p999":         "us",
	"dataplane.step_self_wall_us":     "us",
	"txn.get_vus":                     "us",
	"txn.update_vus":                  "us",
	"txn.insert_vus":                  "us",
	"txn.scan_vus":                    "us",
	"txn.get_wall_us":                 "us",
	"txn.update_wall_us":              "us",
	"txn.insert_wall_us":              "us",
	"txn.scan_wall_us":                "us",
	"btree.pages_per_req":             "1/req",
	"frametab.hit_ratio":              "ratio",
	"frametab.misses_per_req":         "1/req",
	"frametab.evictions_per_req":      "1/req",
	"frametab.storage_writes_per_req": "1/req",
	"simcpu.miss_ratio":               "ratio",
	"simcpu.bytes_fetched_per_req":    "B/req",
	"simcpu.writebacks_per_req":       "1/req",
	"simcpu.flush_lines_per_req":      "1/req",
	"cxl.mem_reads_per_req":           "1/req",
	"cxl.mem_writes_per_req":          "1/req",
	"cxl.bytes_per_req":               "B/req",
	"cxl.link_wait_vus":               "us",
	"cxl.fabric_wait_vus":             "us",
	"wal.forces_per_req":              "1/req",
	"wal.bytes_per_req":               "B/req",
	"wal.busy_vus":                    "us",
	"flush.pages_per_req":             "1/req",
	"flush.runs_per_kreq":             "1/kreq",
	"checkpoint.published":            "count",
	"checkpoint.deferred":             "count",
	"checkpoint.drain_pages_mean":     "pages",
	"storage.reads_per_req":           "1/req",
	"storage.writes_per_req":          "1/req",
	"storage.busy_vus":                "us",
	"storage.queue_vus":               "us",
	"recovery.pages_trusted":          "pages",
	"recovery.pages_rebuilt":          "pages",
	"recovery.redo_records":           "records",
	"recovery.redo_applied":           "records",
	"recovery.log_scan_kb":            "KB",
	"recovery.undone_txns":            "txns",
	"sharing.get_page_rpcs_per_txn":   "1/txn",
	"sharing.invalidations_per_txn":   "1/txn",
	"sharing.removals_per_txn":        "1/txn",
	"sharing.lock_wait_vus":           "us",
	"sharing.rpcs_per_txn":            "1/txn",
	"go.gc_cycles_per_kreq":           "1/kreq",
	"go.gc_cpu_frac":                  "ratio",
	"obs.trace_overhead":              "ratio",
}

// baseLayers starts a traced run's per-layer metrics: every metric at 0,
// then the ones any workload measures the same way — per-operation spans,
// the CXL memory device and fabric, and the sharing protocol.
func baseLayers(c counts, agg map[string]*spanAgg, reqs float64) map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for k, u := range layerUnits {
		m[k] = metric{0, u}
	}
	set := func(k string, v float64) { m[k] = metric{v, layerUnits[k]} }
	for _, op := range []string{"get", "update", "insert", "scan"} {
		if a := agg["txn."+op]; a != nil {
			set("txn."+op+"_vus", float64(a.virt)/float64(a.n)/1000)
			set("txn."+op+"_wall_us", float64(a.wall)/float64(a.n)/1000)
		}
	}
	var reads, writes, bytes float64
	for k, v := range c {
		if !strings.HasPrefix(k, "mem.") {
			continue
		}
		switch {
		case strings.HasSuffix(k, ".reads"):
			reads += v
		case strings.HasSuffix(k, ".writes"):
			writes += v
		case strings.HasSuffix(k, "_bytes"):
			bytes += v
		}
	}
	set("cxl.mem_reads_per_req", reads/reqs)
	set("cxl.mem_writes_per_req", writes/reqs)
	set("cxl.bytes_per_req", bytes/reqs)
	set("cxl.link_wait_vus", c.per("cxl.link.host.wait_ns.sum", reqs)/1000)
	set("cxl.fabric_wait_vus", c.per("cxl.fabric.leaf.wait_ns.sum", reqs)/1000)
	set("sharing.get_page_rpcs_per_txn", c.per("node.get_page_rpcs", reqs))
	set("sharing.invalidations_per_txn", c.per("node.invalidations", reqs))
	set("sharing.removals_per_txn", c.per("node.removals", reqs))
	set("sharing.lock_wait_vus", c.per("sharing.lock.wait_ns.sum", reqs)/1000)
	set("sharing.rpcs_per_txn", c.per("sharing.rpcs", reqs))
	return m
}
