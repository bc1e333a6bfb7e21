package core

import (
	"github.com/iocost-sim/iocost/internal/cgroup"
)

// Budget donation (§3.6): each planning period, cgroups that used less than
// their entitled hweight donate the surplus to the rest of the tree by
// lowering their inuse weights. The weight-transfer algorithm updates
// weights only along paths from donating leaves to the root; every other
// node's new hweight then falls out of the lazily recomputed hweight math on
// the issue path.
//
// Notation, per the paper: w = weight, s = summed weight of a node and its
// active siblings, h = hweight, d = total hweight of donating leaves in the
// node's subtree; subscript p = parent; prime = after donation.
//
// Two invariants drive the derivation:
//
//	(h - d) / (h_p - d_p) = (h' - d') / (h'_p - d'_p)   (Eq. 4)
//	s * (h_p - d_p)/h_p   = s' * (h'_p - d'_p)/h'_p     (Eq. 5)
//
// giving, top-down along donor paths:
//
//	h' = (h - d)/(h_p - d_p) * (h'_p - d'_p) + d'
//	s' = s * ((h_p - d_p)/h_p) * (h'_p/(h'_p - d'_p))
//	w' = s' * h'/h'_p

// donationMinSurplus is the fraction of hweight a cgroup must be leaving
// unused before it is worth donating.
const donationMinSurplus = 0.10

// donationHeadroom is how much above measured usage a donor retains so it
// does not immediately run dry.
const donationHeadroom = 1.25

// donorInfo accumulates d and d' for a subtree.
type donorInfo struct {
	d      float64 // summed hweight of donating leaves below (and at) node
	dAfter float64 // summed post-donation hweight of those leaves
}

// donate runs one donation pass and returns the number of donating cgroups.
func (c *Controller) donate() int {
	// Reset last pass's adjustments; donors re-establish theirs below.
	// Rescinding first makes HweightActive/ActiveChildWeightSum the
	// pre-donation quantities the equations expect.
	for _, n := range c.donated {
		n.ResetInuse()
	}
	c.donated = c.donated[:0]

	periodV := c.periodVns()
	if periodV <= 0 {
		return 0
	}

	// Identify donors among cgroups that issued IO and compute their
	// post-donation hweight targets. The scratch map and root list are
	// the controller's, cleared rather than rebuilt each period.
	clear(c.donorNodes)
	if c.donorNodes == nil {
		c.donorNodes = make(map[*cgroup.Node]donorInfo)
	}
	c.donorRoots = c.donorRoots[:0]
	donors := 0
	for _, st := range c.order {
		cg := st.cg
		if cg.IsRoot() || !cg.Active() {
			continue
		}
		// Interior nodes of the active tree never donate on their own
		// behalf: their usage counter only covers IO charged directly to
		// them, so an inner node whose children are busy looks idle and
		// would donate the entitlement its whole subtree depends on,
		// starving the children (their hweight is the product of ratios
		// along the path). Surplus inside the subtree is donated by the
		// leaves; the transfer equations then adjust this node's inuse
		// along the donor paths.
		if cg.ActiveChildren() > 0 {
			continue
		}
		// A cgroup that is currently throttled or indebted needs all
		// of its entitlement.
		if !st.waiters.Empty() || st.debt > 0 || st.hadWait {
			continue
		}
		hwa := cg.HweightActive()
		usage := st.usage / periodV
		if usage > hwa {
			usage = hwa
		}
		target := usage * donationHeadroom
		if target >= hwa*(1-donationMinSurplus) {
			continue
		}
		if min := hwa * 0.01; target < min {
			target = min
		}
		donors++
		for n := cg; n != nil; n = n.Parent() {
			in, seen := c.donorNodes[n]
			if !seen && n.IsRoot() {
				// Roots are recorded in c.order's donor order, so a
				// controller serving several hierarchies transfers on
				// each of them, always in the same order.
				c.donorRoots = append(c.donorRoots, n)
			}
			in.d += hwa
			in.dAfter += target
			c.donorNodes[n] = in
		}
	}

	// Walk donor paths top-down applying the weight-transfer equations.
	for _, root := range c.donorRoots {
		c.transfer(root, 1, 1)
	}
	return donors
}

// transfer applies the three donation equations to every child of p that
// has donating descendants, then recurses. hAfter arguments are the
// parent's pre/post-donation hweights.
func (c *Controller) transfer(p *cgroup.Node, ph, phAfter float64) {
	pin := c.donorNodes[p]
	phMinusD := ph - pin.d
	phAfterMinusD := phAfter - pin.dAfter
	const eps = 1e-12

	for _, child := range p.Children() {
		in, ok := c.donorNodes[child]
		if !ok || !child.Active() {
			continue
		}
		h := child.HweightActive()

		var hAfter float64
		if phMinusD < eps {
			// The parent's entire subtree donates: the child's
			// post-donation share is exactly its donors' target sum.
			hAfter = in.dAfter
		} else {
			hAfter = (h-in.d)/phMinusD*phAfterMinusD + in.dAfter
		}

		s := p.ActiveChildWeightSum()
		var sAfter float64
		if phAfterMinusD < eps || phMinusD < eps {
			sAfter = s
		} else {
			sAfter = s * (phMinusD / ph) * (phAfter / phAfterMinusD)
		}

		wAfter := sAfter * hAfter / phAfter
		child.SetInuse(wAfter)
		c.donated = append(c.donated, child)

		c.transfer(child, h, hAfter)
	}
}
