package sharing

// Fusion lock reclamation: evicting a crashed primary from the cluster.
//
// A primary that dies holding fusion page locks leaves three kinds of
// debris: stranded lock grants, flag-word registrations (its invalid /
// removal slots), and — for write-held pages — a possibly-torn CXL frame
// (the dead writer's CPU cache may have leaked partial line write-backs
// before the crash, and its final clflush never ran). EvictNode walks the
// DBP once, page-id order, and for every page the dead node touched:
//
//  1. decides write-held from the UNION of the in-memory grant and the
//     CXL-durable lock word (the word survives even a fusion restart, and a
//     re-run of an interrupted eviction must still see the evidence);
//  2. rebuilds write-held frames PolarRecv-style — storage base + committed
//     durable redo via internal/recovery — so no torn or uncommitted bytes
//     are ever served; a page with no durable history at all (born inside
//     the dead node's in-flight unit) is dropped like a recycle;
//  3. fans invalid flags to every surviving node where the page is active
//     (their caches may hold the dead writer's leaked lines);
//  4. clears the durable lock word, then force-releases the grant — in that
//     order, so a crash mid-eviction leaves evidence, never a freed lock
//     over a suspect frame;
//  5. deregisters the dead node: zeroes its invalid/removal flag slots and
//     removes it from the page's active set.
//
// Survivors keep serving un-conflicted pages the whole time — eviction
// takes no global pause, only the per-page locks the dead node already
// held. Every step is idempotent, so an eviction interrupted by a fusion
// host crash can simply run again after restart (the satellite crash-point
// sweep drives exactly that).

import (
	"errors"
	"fmt"
	"sort"

	"polarcxlmem/internal/obs"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/recovery"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/storage"
)

// EvictNode reclaims every lock, flag slot, and suspect frame the (dead)
// node holds. Idempotent; safe to re-run after a partial crash.
func (f *Fusion) EvictNode(clk *simclock.Clock, node string) error {
	if node == fusionNode {
		return fmt.Errorf("sharing: cannot evict the fusion server itself")
	}
	f.leases.markDead(node)
	f.evictMu.Lock()
	defer f.evictMu.Unlock()
	o := f.obsState()
	if o != nil {
		o.evictions.Inc()
	}

	f.mu.Lock()
	ids := make([]uint64, 0, len(f.pages))
	for id := range f.pages {
		ids = append(ids, id)
	}
	ws := f.ws
	lt := f.lockTab
	f.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var rs *recovery.RedoSet
	for _, id := range ids {
		f.mu.Lock()
		ps := f.pages[id]
		f.mu.Unlock()
		if ps == nil {
			continue // recycled since the snapshot
		}
		writeHeld := ps.lk.writerIs(node)
		if !writeHeld && lt != nil {
			w, err := f.dev.Load64(clk, f.lockWordOff(lt, ps.off))
			if err != nil {
				return err
			}
			f.mu.Lock()
			holder := f.nodeByI[w]
			f.mu.Unlock()
			writeHeld = w != 0 && holder == node
		}
		if writeHeld {
			if rs == nil && ws != nil {
				var serr error
				if rs, serr = recovery.ScanRedo(clk, ws); serr != nil {
					return serr
				}
			}
			if err := f.reclaimWriteHeld(clk, ps, node, rs); err != nil {
				return err
			}
			if lt != nil {
				if err := f.dev.Store64(clk, f.lockWordOff(lt, ps.off), 0); err != nil {
					return err
				}
			}
		}
		if hit := ps.lk.forceRelease(node); hit || writeHeld {
			// A reclaim absolves the dead holder: its grants are gone and
			// any invalidation it owed can never be acked.
			o.emit(clk.Now(), obs.EvLockReclaim, node, id, 0)
		}
		// Deregister: zero the dead node's flag slots, drop it from the
		// active set. A survivor slot-scan must never see its stale flags.
		f.mu.Lock()
		fa, wasActive := ps.active[node]
		f.mu.Unlock()
		if wasActive {
			if err := f.dev.Store64(clk, fa.invalid, 0); err != nil {
				return err
			}
			if err := f.dev.Store64(clk, fa.removal, 0); err != nil {
				return err
			}
			f.mu.Lock()
			delete(ps.active, node)
			f.mu.Unlock()
		}
	}
	return nil
}

// reclaimWriteHeld rebuilds (or drops) one page the dead node held
// write-locked and invalidates every survivor's cached copy.
func (f *Fusion) reclaimWriteHeld(clk *simclock.Clock, ps *pageState, node string, rs *recovery.RedoSet) error {
	var (
		img   []byte
		known bool
		dirty bool
	)
	if rs != nil {
		var err error
		img, known, dirty, err = rs.RebuildPage(clk, f.store, ps.id)
		if err != nil {
			return err
		}
	} else {
		// No WAL attached: the last checkpointed storage image is the best
		// durable truth available.
		img = make([]byte, page.Size)
		err := f.store.ReadPage(clk, ps.id, img)
		if err == nil {
			known = true
		} else if !errors.Is(err, storage.ErrNotFound) {
			return err
		}
	}
	if !known {
		// Born inside the dead node's in-flight unit: no durable history,
		// nothing to serve. Drop it exactly like a recycle.
		f.mu.Lock()
		for _, n := range f.sortedNodes(ps.active) {
			if n == node {
				continue
			}
			if err := f.dev.Store64(clk, ps.active[n].removal, 1); err != nil {
				f.mu.Unlock()
				return err
			}
		}
		delete(f.pages, ps.id)
		f.free = append(f.free, ps.off)
		f.mu.Unlock()
		return nil
	}
	if err := f.region.WriteRaw(ps.off, img); err != nil {
		return err
	}
	if err := f.host.TransferWrite(clk, page.Size); err != nil {
		return err
	}
	o := f.obsState()
	f.mu.Lock()
	ps.dirty = dirty
	for _, other := range f.sortedNodes(ps.active) {
		if other == node {
			continue
		}
		if err := f.dev.Store64(clk, ps.active[other].invalid, 1); err != nil {
			f.mu.Unlock()
			return err
		}
		if o != nil {
			o.invalidations.Inc()
		}
		o.emit(clk.Now(), obs.EvInvalidSet, other, ps.id, 0)
	}
	f.mu.Unlock()
	return nil
}

// FsckReport lists the cluster-consistency violations Fsck found.
type FsckReport struct {
	Problems []string
}

// OK reports a clean fsck.
func (r FsckReport) OK() bool { return len(r.Problems) == 0 }

func (r *FsckReport) addf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck audits the fusion server's metadata against the cluster's liveness
// and the CXL-durable lock words: frame geometry, free-list disjointness,
// no dead node registered anywhere, no dead node holding a lock, and every
// non-zero lock word naming the page's live in-memory writer. It reads the
// lock table raw (a test/debug oracle, not a costed operation).
func (f *Fusion) Fsck() FsckReport {
	var rep FsckReport
	f.mu.Lock()
	defer f.mu.Unlock()
	seen := make(map[int64]uint64)
	for id, ps := range f.pages {
		if ps.off < 0 || ps.off%page.Size != 0 || ps.off+page.Size > f.region.Size() {
			rep.addf("page %d: frame offset %d out of range or unaligned", id, ps.off)
		}
		if prev, dup := seen[ps.off]; dup {
			rep.addf("pages %d and %d share frame offset %d", prev, id, ps.off)
		}
		seen[ps.off] = id
		writer, readers := ps.lk.snapshot()
		if writer != "" && writer != fusionNode && f.leases.isDead(writer) {
			rep.addf("page %d: write lock held by dead node %s", id, writer)
		}
		for _, rd := range readers {
			if rd != fusionNode && f.leases.isDead(rd) {
				rep.addf("page %d: read lock held by dead node %s", id, rd)
			}
		}
		for n := range ps.active {
			if f.leases.isDead(n) {
				rep.addf("page %d: dead node %s still registered", id, n)
			}
		}
		if f.lockTab != nil {
			w, err := f.dev.Load64Raw(f.lockWordOff(f.lockTab, ps.off))
			if err != nil {
				rep.addf("page %d: lock word unreadable: %v", id, err)
				continue
			}
			if w != 0 {
				holder := f.nodeByI[w]
				if holder == "" {
					rep.addf("page %d: lock word names unknown node id %d", id, w)
				} else if holder != writer {
					rep.addf("page %d: lock word names %s but in-memory writer is %q", id, holder, writer)
				} else if f.leases.isDead(holder) {
					rep.addf("page %d: lock word names dead node %s", id, holder)
				}
			}
		}
	}
	for _, off := range f.free {
		if off < 0 || off%page.Size != 0 || off+page.Size > f.region.Size() {
			rep.addf("free list: offset %d out of range or unaligned", off)
		}
		if id, used := seen[off]; used {
			rep.addf("free list: offset %d still mapped to page %d", off, id)
		}
	}
	return rep
}
