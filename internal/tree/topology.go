// Package tree generalises the hardened two-node MC/SC pair into the
// deployment shape the paper's discussion (section 8) points at: a
// rooted hierarchy of stationary support stations with mobile computers
// attached at the leaves. Every parent↔child edge of the tree runs the
// unchanged two-node protocol from internal/replica — a relay station is
// an SC toward its children and an MC toward its parent — so the depth-1
// tree IS the existing pair, wire for wire, and every deeper tree is a
// composition of independently-verified edges. Per-key replica placement
// along the root-to-leaf path is driven by the same SW/T1m/T2m policies
// the pair uses (placement.go); mobile handoff moves an MC between
// stations with the warm-resync and epoch-fencing machinery of the pair
// (tree.go).
package tree

import "fmt"

// Topology describes a rooted tree of n stations. Station 0 is the root
// (it owns the authoritative store); every other station i has parent
// Parent[i]. Mobile computers attach at any station, typically leaves.
type Topology struct {
	// Parent[i] is the parent station of station i; Parent[0] must be -1.
	Parent []int
}

// Chain returns a root-to-leaf chain of n stations: 0 ← 1 ← … ← n-1.
// A chain of depth d has d+1 stations.
func Chain(n int) Topology {
	p := make([]int, n)
	for i := range p {
		p[i] = i - 1
	}
	return Topology{Parent: p}
}

// Binary returns a complete binary tree of n stations in heap order:
// station i's parent is (i-1)/2.
func Binary(n int) Topology {
	p := make([]int, n)
	for i := range p {
		p[i] = (i - 1) / 2
	}
	if n > 0 {
		p[0] = -1
	}
	return Topology{Parent: p}
}

// N returns the number of stations.
func (t Topology) N() int { return len(t.Parent) }

// Validate checks that the description is a rooted tree: station 0 is
// the unique root, every parent index precedes its child (stations are
// listed in topological order), and there are no cycles by construction.
func (t Topology) Validate() error {
	if len(t.Parent) == 0 {
		return fmt.Errorf("tree: empty topology")
	}
	if t.Parent[0] != -1 {
		return fmt.Errorf("tree: station 0 must be the root (Parent[0] = %d, want -1)", t.Parent[0])
	}
	for i := 1; i < len(t.Parent); i++ {
		if t.Parent[i] < 0 || t.Parent[i] >= i {
			return fmt.Errorf("tree: station %d has parent %d; parents must be earlier stations", i, t.Parent[i])
		}
	}
	return nil
}

// Leaves returns the stations with no children, in order.
func (t Topology) Leaves() []int {
	hasChild := make([]bool, len(t.Parent))
	for i := 1; i < len(t.Parent); i++ {
		hasChild[t.Parent[i]] = true
	}
	var out []int
	for i, h := range hasChild {
		if !h {
			out = append(out, i)
		}
	}
	return out
}

// Depth returns the number of edges from station i to the root.
func (t Topology) Depth(i int) int {
	d := 0
	for t.Parent[i] != -1 {
		i = t.Parent[i]
		d++
	}
	return d
}

// Path returns the stations from i up to the root, inclusive on both
// ends: [i, parent(i), …, 0].
func (t Topology) Path(i int) []int {
	var out []int
	for {
		out = append(out, i)
		if t.Parent[i] == -1 {
			return out
		}
		i = t.Parent[i]
	}
}

// CommonAncestor returns the deepest station that lies on both a's and
// b's root paths — the station through which state migrates on a
// handoff from a to b.
func (t Topology) CommonAncestor(a, b int) int {
	da, db := t.Depth(a), t.Depth(b)
	for da > db {
		a = t.Parent[a]
		da--
	}
	for db > da {
		b = t.Parent[b]
		db--
	}
	for a != b {
		a = t.Parent[a]
		b = t.Parent[b]
	}
	return a
}
