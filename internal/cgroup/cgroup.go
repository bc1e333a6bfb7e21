// Package cgroup implements the weight-based resource-control hierarchy used
// by the simulated IO controllers, mirroring cgroup v2 semantics: each node
// has a configured weight, resources are distributed among siblings in
// proportion to their weights, and the compounded share along the path from
// the root is the node's hierarchical weight (hweight).
//
// Two weights exist per node, mirroring the kernel's blk-iocost:
//
//   - Weight: the configured weight, set by the administrator.
//   - Inuse: the weight currently in effect, lowered below Weight while the
//     node is donating budget (see the core package) and restored when the
//     donation is rescinded.
//
// Correspondingly each node has two hweights: HweightActive (from configured
// weights, the node's entitlement) and HweightInuse (from inuse weights, what
// the issue path actually uses). Only nodes marked active — those that issued
// IO recently, plus their ancestors — participate in sibling weight sums;
// inactive siblings implicitly donate their entire share.
//
// Hweights are cached and invalidated by a hierarchy-wide generation number
// that is bumped whenever any weight, inuse weight, or active set changes, so
// the per-IO hot path recomputes only when something actually changed.
package cgroup

import (
	"fmt"
	"strings"
)

// DefaultWeight is the cgroup v2 default weight.
const DefaultWeight = 100

// Hierarchy is a tree of cgroups with a single root.
type Hierarchy struct {
	root   *Node
	gen    uint64
	nextID int
}

// NewHierarchy returns a hierarchy containing only the root node.
func NewHierarchy() *Hierarchy {
	h := &Hierarchy{gen: 1}
	h.root = &Node{
		hier:   h,
		name:   "/",
		weight: DefaultWeight,
		inuse:  DefaultWeight,
	}
	h.nextID = 1
	return h
}

// Root returns the root node. The root is always active and its hweight is
// always 1.
func (h *Hierarchy) Root() *Node { return h.root }

// Generation returns the current weight-tree generation number. It changes
// whenever weights, inuse weights, or the active set change.
func (h *Hierarchy) Generation() uint64 { return h.gen }

func (h *Hierarchy) bump() { h.gen++ }

// Walk visits every node in pre-order.
func (h *Hierarchy) Walk(fn func(*Node)) { h.root.walk(fn) }

// Node is one cgroup.
type Node struct {
	hier     *Hierarchy
	name     string
	id       int
	parent   *Node
	children []*Node

	weight float64 // configured
	inuse  float64 // donation-adjusted, 0 < inuse <= weight

	active       bool
	activeKids   int // number of active children
	sumActWeight float64
	sumActInuse  float64

	// hweight cache
	hwGen    uint64
	hwActive float64
	hwInuse  float64
}

// NewChild creates a child cgroup with the given name and weight and returns
// it. Weight must be positive.
func (n *Node) NewChild(name string, weight float64) *Node {
	if weight <= 0 {
		panic(fmt.Sprintf("cgroup: non-positive weight %v for %q", weight, name))
	}
	c := &Node{
		hier:   n.hier,
		name:   name,
		id:     n.hier.nextID,
		parent: n,
		weight: weight,
		inuse:  weight,
	}
	n.hier.nextID++
	n.children = append(n.children, c)
	n.hier.bump()
	return c
}

// Name returns the node's own name.
func (n *Node) Name() string { return n.name }

// ID returns the node's dense hierarchy-unique index, assigned in creation
// order (the root is 0). IDs are never reused, so per-cgroup fast-path
// state can live in slices indexed by ID instead of maps keyed by pointer
// — the block layer's iostat table, IOCost's per-cgroup state and the
// device seq trackers all do. IDs are only unique within one hierarchy.
func (n *Node) ID() int { return n.id }

// Parent returns the parent node, nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the node's children. The returned slice must not be
// modified.
func (n *Node) Children() []*Node { return n.children }

// IsRoot reports whether n is the hierarchy root.
func (n *Node) IsRoot() bool { return n.parent == nil }

// Path returns the slash-separated path from the root.
func (n *Node) Path() string {
	if n.parent == nil {
		return "/"
	}
	var parts []string
	for c := n; c.parent != nil; c = c.parent {
		parts = append(parts, c.name)
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	return b.String()
}

func (n *Node) walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.children {
		c.walk(fn)
	}
}

// Weight returns the configured weight.
func (n *Node) Weight() float64 { return n.weight }

// Inuse returns the currently effective (donation-adjusted) weight.
func (n *Node) Inuse() float64 { return n.inuse }

// SetWeight changes the configured weight. The inuse weight is reset to the
// new configured weight (any ongoing donation is rescinded).
func (n *Node) SetWeight(w float64) {
	if w <= 0 {
		panic(fmt.Sprintf("cgroup: non-positive weight %v for %q", w, n.name))
	}
	if n.parent != nil && n.active {
		n.parent.sumActWeight += w - n.weight
		n.parent.sumActInuse += w - n.inuse
	}
	n.weight = w
	n.inuse = w
	n.hier.bump()
}

// SetInuse lowers or restores the effective weight for budget donation.
// inuse is clamped to (0, Weight].
func (n *Node) SetInuse(inuse float64) {
	if inuse > n.weight {
		inuse = n.weight
	}
	const floor = 1e-6
	if inuse < floor {
		inuse = floor
	}
	if inuse == n.inuse {
		return
	}
	if n.parent != nil && n.active {
		n.parent.sumActInuse += inuse - n.inuse
	}
	n.inuse = inuse
	n.hier.bump()
}

// ResetInuse rescinds any donation, restoring Inuse to Weight. This is the
// cheap local "rescind" operation donors perform on the issue path.
func (n *Node) ResetInuse() { n.SetInuse(n.weight) }

// Active reports whether the node participates in hweight computation.
func (n *Node) Active() bool { return n.active || n.parent == nil }

// Activate marks the node (and its ancestors) active. A node becomes active
// when it issues IO.
func (n *Node) Activate() {
	changed := false
	for c := n; c != nil && c.parent != nil && !c.active; c = c.parent {
		c.active = true
		c.parent.activeKids++
		c.parent.sumActWeight += c.weight
		c.parent.sumActInuse += c.inuse
		changed = true
	}
	if changed {
		n.hier.bump()
	}
}

// Deactivate marks the node inactive; ancestors whose last active child it
// was are deactivated too. Deactivating a node with active children panics.
func (n *Node) Deactivate() {
	if n.parent == nil || !n.active {
		return
	}
	if n.activeKids > 0 {
		panic("cgroup: deactivating node with active children")
	}
	for c := n; c != nil && c.parent != nil && c.active && c.activeKids == 0; c = c.parent {
		c.active = false
		c.parent.activeKids--
		c.parent.sumActWeight -= c.weight
		c.parent.sumActInuse -= c.inuse
	}
	n.hier.bump()
}

// Remove deletes n from the hierarchy, as rmdir on a cgroup directory
// does. The node must be inactive with no children; removing the root or a
// violating node panics.
func (n *Node) Remove() {
	if n.parent == nil {
		panic("cgroup: cannot remove the root")
	}
	if n.active || n.activeKids > 0 {
		panic(fmt.Sprintf("cgroup: removing active cgroup %q", n.Path()))
	}
	if len(n.children) > 0 {
		panic(fmt.Sprintf("cgroup: removing cgroup %q with children", n.Path()))
	}
	kids := n.parent.children
	for i, c := range kids {
		if c == n {
			n.parent.children = append(kids[:i], kids[i+1:]...)
			break
		}
	}
	n.parent = nil
	n.hier.bump()
}

// ActiveChildren returns the number of active children.
func (n *Node) ActiveChildren() int { return n.activeKids }

// ActiveChildWeightSum returns the sum of configured weights of active
// children.
func (n *Node) ActiveChildWeightSum() float64 { return n.sumActWeight }

// ActiveChildInuseSum returns the sum of inuse weights of active children.
func (n *Node) ActiveChildInuseSum() float64 { return n.sumActInuse }

func (n *Node) refreshHweight() {
	if n.hwGen == n.hier.gen {
		return
	}
	if n.parent == nil {
		n.hwActive, n.hwInuse, n.hwGen = 1, 1, n.hier.gen
		return
	}
	n.parent.refreshHweight()
	pa, pi := n.parent.hwActive, n.parent.hwInuse
	if n.parent.sumActWeight > 0 {
		n.hwActive = pa * n.weight / n.parent.sumActWeight
	} else {
		n.hwActive = pa
	}
	if n.parent.sumActInuse > 0 {
		n.hwInuse = pi * n.inuse / n.parent.sumActInuse
	} else {
		n.hwInuse = pi
	}
	n.hwGen = n.hier.gen
}

// HweightActive returns the hierarchical share of the device the node is
// entitled to by its configured weight, considering only active siblings.
// The result is in (0, 1].
func (n *Node) HweightActive() float64 {
	n.refreshHweight()
	return n.hwActive
}

// HweightInuse returns the hierarchical share currently in effect after
// budget donation. The result is in (0, 1].
func (n *Node) HweightInuse() float64 {
	n.refreshHweight()
	return n.hwInuse
}
