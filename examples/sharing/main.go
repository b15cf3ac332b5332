// Sharing: a multi-primary deployment where several database nodes operate
// on the SAME pages in CXL memory. The demo shows the software coherency
// protocol doing its job — and what happens without it: with invalid-flag
// checking disabled, a node reads the stale lines its CPU cache kept.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"polarcxlmem"
)

func main() {
	sc, err := polarcxlmem.NewSharingCluster(polarcxlmem.SharingConfig{Nodes: 4, DBPPages: 64})
	if err != nil {
		log.Fatal(err)
	}
	pid, err := sc.SeedPage()
	if err != nil {
		log.Fatal(err)
	}
	clk := sc.Clock()

	// Four nodes jointly increment a counter that lives at offset 64 of a
	// shared page. Every increment: page write lock -> update in place in
	// CXL through the node's CPU cache -> clflush dirty lines -> release
	// (the fusion server flips the other nodes' invalid flags).
	const rounds = 25
	for r := 0; r < rounds; r++ {
		for i := 0; i < sc.Nodes(); i++ {
			err := sc.Node(i).ReadModifyWrite(clk, pid, 64, make([]byte, 8), func(b []byte) {
				binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
			})
			if err != nil {
				log.Fatal(err)
			}
		}
	}
	buf := make([]byte, 8)
	if err := sc.Node(0).Read(clk, pid, 64, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coherent counter after %d x %d increments: %d (expected %d)\n",
		rounds, sc.Nodes(), binary.LittleEndian.Uint64(buf), rounds*sc.Nodes())

	for i := 0; i < sc.Nodes(); i++ {
		st := sc.Node(i).Stats()
		fmt.Printf("  node-%d: %d writes, honoured %d invalidations\n", i, st.Writes, st.Invalidations)
	}

	// Negative control: disable the invalid-flag check on node 3 and show
	// the stale read the raw hardware would produce (CXL 2.0 has no
	// inter-host cache coherency).
	pid2, err := sc.SeedPage()
	if err != nil {
		log.Fatal(err)
	}
	if err := sc.Node(3).Read(clk, pid2, 64, buf); err != nil { // node 3 caches the line
		log.Fatal(err)
	}
	before := binary.LittleEndian.Uint64(buf)
	sc.Node(3).DisableCoherency = true
	if err := sc.Node(0).Write(clk, pid2, 64, []byte{99, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		log.Fatal(err)
	}
	sc.Node(3).Read(clk, pid2, 64, buf)
	fmt.Printf("\nnode-3 cached %d; with coherency DISABLED it still sees %d after node-0 wrote 99 (stale cache line)\n",
		before, binary.LittleEndian.Uint64(buf))
	sc.Node(3).DisableCoherency = false
	sc.Node(3).Read(clk, pid2, 64, buf)
	fmt.Printf("with coherency ENABLED, node-3 sees %d\n", binary.LittleEndian.Uint64(buf))
}
