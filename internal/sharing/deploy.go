package sharing

import (
	"polarcxlmem/internal/cxl"
	"polarcxlmem/internal/page"
	"polarcxlmem/internal/simclock"
	"polarcxlmem/internal/simcpu"
	"polarcxlmem/internal/simmem"
	"polarcxlmem/internal/storage"
)

// Deployment is the multi-primary CXL layout (§3.3): one buffer-fusion
// server whose distributed buffer pool (DBP) and every primary's
// invalid/removal flag words live in CXL memory on the fusion host's box.
type Deployment struct {
	Host   *cxl.HostPort // the fusion server's attachment (leaf 0)
	Fusion *Fusion
	topo   *cxl.Topology
}

// NewDeployment attaches the fusion server as host on leaf 0 of topo,
// allocates a dbpPages-frame DBP ("dbp") on that leaf's box, and builds the
// Fusion over it, backed by store for page load and recycle write-back.
func NewDeployment(clk *simclock.Clock, topo *cxl.Topology, host string, dbpPages int, store *storage.Store) (*Deployment, error) {
	h, err := topo.AttachHost(host, 0)
	if err != nil {
		return nil, err
	}
	dbp, err := h.Allocate(clk, "dbp", int64(dbpPages)*page.Size)
	if err != nil {
		return nil, err
	}
	m := &cxlDBP{host: h, region: dbp, dev: dbp.Device().WholeRegion()}
	return &Deployment{Host: h, Fusion: newFusion(m, dbp.Size(), store, h.Observer()), topo: topo}, nil
}

// Primary is one primary's attachment to a Deployment. Callers wrap it as a
// Node or a SharedPool over the deployment's Fusion; attaching Cache to a
// simcpu.Domain first selects the hardware-coherent regime.
type Primary struct {
	Name  string
	Host  *cxl.HostPort
	Flags *simmem.Region // flag words, on the fusion host's box
	Cache *simcpu.Cache  // the primary's CPU-cache (LLC) slice
}

// AttachPrimary attaches host name on leaf, allocates its flagBytes flag
// region ("<name>-flags") on the fusion host's box — which becomes the
// primary's home box, so a primary on another leaf pays the trunk+spine
// route for every page fill and flag access — and builds a cacheBytes CPU
// cache wired to that route.
func (d *Deployment) AttachPrimary(clk *simclock.Clock, name string, leaf int, flagBytes, cacheBytes int64) (*Primary, error) {
	h, err := d.topo.AttachHost(name, leaf)
	if err != nil {
		return nil, err
	}
	flags, err := h.AllocateOn(clk, d.Host.HomeLeaf().Index(), name+"-flags", flagBytes)
	if err != nil {
		return nil, err
	}
	return &Primary{Name: name, Host: h, Flags: flags, Cache: h.NewCache(name, cacheBytes)}, nil
}
