package simcpu

import (
	"sync"

	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simmem"
)

// Domain models CXL 3.0 hardware cache coherency across hosts: a snoop
// directory in the switch tracks which host caches which line; a store
// back-invalidates peer copies, and a load miss is served from a peer's
// dirty copy (which the hardware writes back first). The paper's software
// protocol (§3.3) exists precisely because CXL 2.0 switches lack this; the
// cxl3 projection experiment uses Domain to ask how much of the software
// protocol's cost the next hardware generation removes.
//
// Costs: each back-invalidation and each dirty-peer fetch charges snoopNs
// to the clock of the operation that triggered it (the coherency traffic
// rides the same switch the data does).
type Domain struct {
	snoopNs int64

	// mu serializes the coherent path: Attach and every Read and Write of
	// a member cache. Those take it before the member's own lock, so a
	// member that holds its lock while taking its peers' (a fill asking
	// for the latest copy, a store invalidating peer copies) never waits
	// on a peer doing the same.
	mu     sync.Mutex
	caches []*Cache
}

// NewDomain builds a coherency domain; snoopNs is the per-peer
// back-invalidation / snoop-fetch latency (0 selects the switch-hop
// default).
func NewDomain(snoopNs int64) *Domain {
	if snoopNs == 0 {
		snoopNs = 250 // one switch hop: flit there, ack back
	}
	return &Domain{snoopNs: snoopNs}
}

// Attach joins c to the domain. A cache belongs to at most one domain;
// attach before use.
func (d *Domain) Attach(c *Cache) {
	d.mu.Lock()
	d.caches = append(d.caches, c)
	c.domain = d
	d.mu.Unlock()
}

// invalidatePeers drops the line at addr of dev from every peer cache
// (back-invalidation on a store). Dirty peer copies cannot exist when the
// database-level page lock is held correctly, but hardware is defensive: a
// dirty peer copy is written back first so no update is lost. Called with
// d.mu and owner's lock held.
func (d *Domain) invalidatePeers(clk *simclock.Clock, owner *Cache, dev *simmem.Device, addr int64) error {
	for _, peer := range d.caches {
		if peer == owner {
			continue
		}
		peer.mu.Lock()
		i := peer.lookup(dev, addr)
		if i == nilIdx {
			peer.mu.Unlock()
			continue
		}
		if peer.dirty(i) {
			if err := peer.writeBack(clk, i); err != nil {
				peer.mu.Unlock()
				return err
			}
		}
		peer.remove(i)
		peer.mu.Unlock()
		clk.Advance(d.snoopNs)
	}
	return nil
}

// supplyLatest makes the device current for the line at addr of dev before
// a fill: if a peer holds the line dirty, the hardware writes it back
// (cache-to-cache with memory update) and charges one snoop. Called with
// d.mu and owner's lock held.
func (d *Domain) supplyLatest(clk *simclock.Clock, owner *Cache, dev *simmem.Device, addr int64) error {
	for _, peer := range d.caches {
		if peer == owner {
			continue
		}
		peer.mu.Lock()
		i := peer.lookup(dev, addr)
		if i != nilIdx && peer.dirty(i) {
			err := peer.writeBack(clk, i)
			peer.mu.Unlock()
			if err != nil {
				return err
			}
			clk.Advance(d.snoopNs)
			return nil
		}
		peer.mu.Unlock()
	}
	return nil
}
