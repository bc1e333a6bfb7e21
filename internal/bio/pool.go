package bio

// Pool is a bio free list, the simulator's bio_set: the submit path gets a
// recycled Bio instead of allocating one, and the block layer returns the
// bio to its pool once nothing will touch it again — after the final
// completion's OnDone, or, for a timed-out bio, after the device's late
// completion (the moral equivalent of bio_endio dropping the last
// reference). With every workload drawing from its queue's pool, the
// steady-state submit → throttle → dispatch → complete path allocates
// nothing.
//
// Like a slab cache, the pool carves bios from slabs and links its free
// list through each free bio's next field (a free bio is on no List), so
// its bookkeeping allocates nothing beside the bios themselves.
//
// Recycling is generation-tagged: every Put bumps the bio's generation, so
// a stale pointer held across a recycle is detectable — the invariant
// sanitizer (internal/check, -tags sanitizer) records the generation at
// submit and fails the run if it changes before completion.
//
// Pools are not goroutine-safe; like the engine they belong to exactly one
// simulated machine. The pool grows on demand (Get never fails) and never
// shrinks — the working set is bounded by the peak number of in-flight
// bios, which the tag set and workload depths already bound. Its slabs
// hold every bio it handed out, so Reclaim can take them all back when
// the machine is retired and the pool reused for the next one.
type Pool struct {
	free  *Bio    // recycled bios, linked through next
	slabs [][]Bio // every slab, in allocation order
	rest  []Bio   // the last slab's never-handed-out tail

	// Lifetime counters for tests and diagnostics.
	puts uint64
	news uint64
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed bio owned by this pool. The caller fills in the
// request fields and submits it; the block layer releases it back to the
// pool once the final completion's OnDone has returned and the device
// holds it no longer.
func (p *Pool) Get() *Bio {
	b := p.free
	if b == nil {
		if len(p.rest) == 0 {
			// Slabs grow with the pool up to 256 bios (32 KiB, the
			// largest small size class).
			p.rest = make([]Bio, min(max(p.news/4, 8), 256))
			p.slabs = append(p.slabs, p.rest)
		}
		b = &p.rest[0]
		p.rest = p.rest[1:]
		b.pool = p
		p.news++
		return b
	}
	p.free = b.next
	b.next = nil
	b.inPool = false
	return b
}

// Reclaim returns every bio the pool handed out to the free list, as if
// each live one had been Put: fields cleared, generation bumped. It
// allocates nothing. Reclaim is legal only once nothing will touch the
// pool's live bios again: when the machine they flowed through is
// retired, its engine reset so no pending event still holds one. A bio
// Put after Reclaim is a double Put and panics.
func (p *Pool) Reclaim() {
	for i, s := range p.slabs {
		if i == len(p.slabs)-1 {
			s = s[:len(s)-len(p.rest)]
		}
		for j := range s {
			if b := &s[j]; !b.inPool {
				p.recycle(b)
			}
		}
	}
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

// recycle clears b, bumps its generation and pushes it on the free list.
func (p *Pool) recycle(b *Bio) {
	*b = Bio{pool: p, gen: b.gen + 1, inPool: true, next: p.free}
	p.free = b
}

// Free counts the recycled bios ready for Get.
func (p *Pool) Free() int {
	n := 0
	for b := p.free; b != nil; b = b.next {
		n++
	}
	return n
}

// Allocated returns how many bios the pool has ever allocated (its growth
// high-water mark).
func (p *Pool) Allocated() uint64 { return p.news }

// Recycled returns the lifetime Put count.
func (p *Pool) Recycled() uint64 { return p.puts }

// Gen returns b's recycle generation: it starts at 0 and increments on
// every Put. A generation observed to change while the bio is thought to
// be in flight is a use-after-free.
func (b *Bio) Gen() uint32 { return b.gen }

// Pooled reports whether b came from a pool (and will be released by the
// block layer once its life is over).
func (b *Bio) Pooled() bool { return b.pool != nil }

// Release returns b to its owning pool, if any. Non-pooled bios are
// untouched, so callers can release unconditionally.
func Release(b *Bio) {
	if b.pool != nil {
		b.pool.Put(b)
	}
}
