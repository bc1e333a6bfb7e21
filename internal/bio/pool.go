package bio

// Pool is a bio free list, the simulator's bio_set: the submit path gets a
// recycled Bio instead of allocating one, and the block layer returns the
// bio to its pool once the final completion has been delivered (after
// OnDone, the moral equivalent of bio_endio dropping the last reference).
// With every workload drawing from its queue's pool, the steady-state
// submit → throttle → dispatch → complete path allocates nothing.
//
// Recycling is generation-tagged: every Put bumps the bio's generation, so
// a stale pointer held across a recycle is detectable — the invariant
// sanitizer (internal/check, -tags sanitizer) records the generation at
// submit and fails the run if it changes before completion.
//
// Pools are not goroutine-safe; like the engine they belong to exactly one
// simulated machine. The pool grows on demand (Get never fails) and never
// shrinks — the working set is bounded by the peak number of in-flight
// bios, which the tag set and workload depths already bound. The pool
// remembers every bio it handed out, so Reclaim can take them all back
// when the machine is retired and the pool reused for the next one.
type Pool struct {
	free []*Bio
	// all holds every bio the pool has handed out, in allocation order,
	// less detached ones once they outnumber the rest (see Detach);
	// detached counts those still in it.
	all      []*Bio
	detached int

	// Lifetime counters for tests and diagnostics.
	gets uint64
	puts uint64
	news uint64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed bio owned by this pool. The caller fills in the
// request fields and submits it; the block layer releases it back to the
// pool after the final completion's OnDone returns. Callers that retain a
// bio past OnDone must Detach it first.
func (p *Pool) Get() *Bio {
	p.gets++
	n := len(p.free)
	if n == 0 {
		b := &Bio{pool: p}
		p.all = append(p.all, b)
		p.news++
		return b
	}
	b := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	b.inPool = false
	return b
}

// Reclaim returns every bio the pool handed out and still owns to the free
// list, as if each live one had been Put: fields cleared, generation
// bumped. Detached bios stay out — their holders own them. Reclaim is
// legal only once nothing will touch the pool's live bios again: when the
// machine they flowed through is retired, its engine reset so no pending
// event still holds one. A bio Put after Reclaim is a double Put and
// panics.
func (p *Pool) Reclaim() {
	p.dropDetached()
	if cap(p.free) < len(p.all) {
		// Sized like all, so the free list regrows only when all does.
		p.free = append(make([]*Bio, 0, cap(p.all)), p.free...)
	}
	for _, b := range p.all {
		if !b.inPool {
			p.recycle(b)
		}
	}
}

// dropDetached removes detached bios from all, keeping the order of the
// rest.
func (p *Pool) dropDetached() {
	kept := p.all[:0]
	for _, b := range p.all {
		if b.pool == p {
			kept = append(kept, b)
		}
	}
	clear(p.all[len(kept):])
	p.all, p.detached = kept, 0
}

// Put recycles b: every request field is cleared (a recycled bio must not
// leak stale Status, Retries or timestamps into its next life), the
// generation is bumped, and the bio becomes eligible for the next Get.
// Double-put panics — returning a bio twice means two owners think they
// freed it, which is exactly the corruption the pool exists to surface.
func (p *Pool) Put(b *Bio) {
	if b.pool != p {
		panic("bio: Put of a bio not owned by this pool")
	}
	if b.inPool {
		panic("bio: double Put (bio already in pool)")
	}
	if sanitize && b.listed {
		panic("bio: Put of a bio still on a list")
	}
	p.recycle(b)
	p.puts++
}

// recycle clears b, bumps its generation and puts it on the free list.
func (p *Pool) recycle(b *Bio) {
	*b = Bio{pool: p, gen: b.gen + 1, inPool: true}
	p.free = append(p.free, b)
}

// Free returns how many recycled bios are ready for Get.
func (p *Pool) Free() int { return len(p.free) }

// Allocated returns how many bios the pool has ever allocated (its growth
// high-water mark).
func (p *Pool) Allocated() uint64 { return p.news }

// Gets returns the lifetime Get count; Gets - Allocated is the number of
// allocations pooling avoided.
func (p *Pool) Gets() uint64 { return p.gets }

// Recycled returns the lifetime Put count.
func (p *Pool) Recycled() uint64 { return p.puts }

// Gen returns b's recycle generation: it starts at 0 and increments on
// every Put. A generation observed to change while the bio is thought to
// be in flight is a use-after-free.
func (b *Bio) Gen() uint32 { return b.gen }

// Pooled reports whether b came from a pool (and will be auto-released by
// the block layer on final completion).
func (b *Bio) Pooled() bool { return b.pool != nil }

// Detach removes b from its pool's custody: the block layer will no longer
// recycle it on completion, and the holder owns it for the rest of its
// life. The block layer detaches timed-out bios itself — the device still
// holds a pointer for the eventual late completion, so recycling would
// alias a live request. The pool forgets detached bios once they outnumber
// the ones it still owns, so a long run that times many bios out does not
// keep them all reachable.
func (b *Bio) Detach() {
	p := b.pool
	if p == nil {
		return
	}
	b.pool = nil
	p.detached++
	if 2*p.detached > len(p.all) {
		p.dropDetached()
	}
}

// Release returns b to its owning pool, if any. Non-pooled bios are
// untouched, so callers can release unconditionally.
func Release(b *Bio) {
	if b.pool != nil {
		b.pool.Put(b)
	}
}
