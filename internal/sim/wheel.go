package sim

import "math/bits"

// The engine's scheduler is a hierarchical timing wheel with an overflow
// min-heap and a free-list event pool:
//
//   - Level 0 holds every event less than 2^level0Bits ns (~33µs) ahead of
//     the cursor, in a ring of level0Buckets buckets of 2^bucketBits ns.
//     The ring covers twice that span, so a bucket never holds events of
//     two laps. Levels 1..numLevels-1 have slotsPerLevel slots of
//     geometrically coarser granularity; the whole wheel spans
//     2^wheelSpanBits ns (~9 min) ahead of the cursor. Schedule and cancel
//     are O(1) bar the bucket walk below; each event cascades at most
//     numLevels-1 times on its way down, so the run path is O(1)
//     amortized.
//   - Events farther out than the wheel span wait in a (time, seq) min-heap
//     and are drained into the wheel as the cursor approaches.
//   - Executed and cancelled events return to a per-engine free list, so the
//     steady-state schedule/run path performs no allocation.
//
// Exact (time, seq) FIFO order is preserved: a level-0 bucket is kept
// (time, seq)-sorted (inserts arrive in that order far more often than not
// and append in O(1); the rest walk back from the tail), and a level-0
// event only runs when its time is strictly earlier than every occupied
// higher-level slot's base time — on a tie the higher slot is cascaded
// first, since it may hold an earlier-seq event of the same instant.
const (
	// level0Bits is the bottom level's span: 2^15 ns = ~33µs.
	level0Bits = 15
	// bucketBits is the width of a level-0 bucket: 2^4 = 16 ns.
	bucketBits    = 4
	level0Buckets = 1 << (level0Bits + 1 - bucketBits)
	level0Mask    = level0Buckets - 1
	level0Words   = level0Buckets / 64

	// Levels 1..numLevels-1 each have slotsPerLevel slots; level l's slot
	// granularity is 2^lvlShift[l] ns.
	levelBits     = 8
	slotsPerLevel = 1 << levelBits
	slotMask      = slotsPerLevel - 1
	wordsPerLevel = slotsPerLevel / 64
	numLevels     = 4

	// wheelSpanBits is how many time bits the whole wheel covers.
	wheelSpanBits = level0Bits + (numLevels-1)*levelBits
	wheelSpan     = Time(1) << wheelSpanBits
	// topLevelShift converts a time to a top-level slot number.
	topLevelShift = level0Bits + (numLevels-2)*levelBits
	// eventBlock is how many events one pool refill allocates.
	eventBlock = 64
)

// summary0 is a single word, so the bottom level may use at most 64
// occupancy words (compile-time assertion).
var _ [64 - level0Words]struct{}

// lvlShift[l] is the bit position of level l's slot index within a time;
// lvlSpanBits[l] is how many time bits levels 0..l cover together, i.e. an
// event with delta < 1<<lvlSpanBits[l] fits at level l or below.
var (
	lvlShift    = [numLevels]uint{bucketBits, level0Bits, level0Bits + levelBits, level0Bits + 2*levelBits}
	lvlSpanBits = [numLevels]uint{level0Bits, level0Bits + levelBits, level0Bits + 2*levelBits, wheelSpanBits}
	lvlMask     = [numLevels]int{level0Mask, slotMask, slotMask, slotMask}
)

// A wheel slot (or level-0 bucket) is a single pointer to the head of an
// intrusive doubly-linked event list, with the tail reachable as head.prev
// (the head's prev link is otherwise unused). Within a list, tail.next is
// nil.
type slot = *event

// event is a scheduled callback. Its storage is pooled; gen distinguishes
// incarnations so stale EventIDs cannot cancel a recycled event.
type event struct {
	at  Time
	seq uint64
	fn  func()
	// afn/arg are the closure-free callback form (AtCall): afn takes
	// precedence over fn when non-nil.
	afn        func(any)
	arg        any
	next, prev *event
	owner      *Engine
	hidx       int32 // index in the overflow heap, -1 when not in it
	gen        uint32
	level      int8 // wheel level, -1 when not in the wheel
	slotIdx    uint16
}

// alloc takes an event from the pool, refilling it block-wise when empty.
func (e *Engine) alloc() *event {
	ev := e.free
	if ev == nil {
		block := make([]event, eventBlock)
		for i := 0; i < eventBlock-1; i++ {
			block[i].next = &block[i+1]
		}
		ev = &block[0]
		e.free = &block[1]
	} else {
		e.free = ev.next
	}
	ev.next, ev.prev = nil, nil
	ev.owner = e
	ev.level, ev.hidx = -1, -1
	return ev
}

// release recycles an event. Bumping gen invalidates any outstanding
// EventID for this incarnation.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.prev = nil
	ev.level, ev.hidx = -1, -1
	ev.gen++
	ev.next = e.free
	e.free = ev
}

// slotAt returns wheel slot (l, idx).
func (e *Engine) slotAt(l, idx int) *slot {
	if l == 0 {
		return &e.wheel0[idx]
	}
	return &e.wheelHi[l-1][idx]
}

func (e *Engine) setBit(l, idx int) {
	if l == 0 {
		w := idx >> 6
		e.occupied0[w] |= 1 << uint(idx&63)
		e.summary0 |= 1 << uint(w)
		return
	}
	e.occupiedHi[l-1][idx>>6] |= 1 << uint(idx&63)
}

func (e *Engine) clearBit(l, idx int) {
	if l == 0 {
		w := idx >> 6
		e.occupied0[w] &^= 1 << uint(idx&63)
		if e.occupied0[w] == 0 {
			e.summary0 &^= 1 << uint(w)
		}
		return
	}
	e.occupiedHi[l-1][idx>>6] &^= 1 << uint(idx&63)
}

// enqueue places a pending event into the wheel or the overflow heap,
// bucketing by distance from the cursor. Invariant: ev.at >= e.cur.
func (e *Engine) enqueue(ev *event) {
	delta := ev.at - e.cur
	for l := 0; l < numLevels; l++ {
		if delta < Time(1)<<lvlSpanBits[l] {
			idx := int(ev.at>>lvlShift[l]) & lvlMask[l]
			if l > 0 && idx == int(e.cur>>lvlShift[l])&lvlMask[l] {
				// The slot the cursor currently occupies has already been
				// cascaded; an insert here would be a full-wrap collision
				// (ev is ~one whole level-span ahead). Push one level up,
				// where the index is necessarily cursor+1.
				continue
			}
			e.pushSlot(l, idx, ev)
			return
		}
	}
	e.heapPush(ev)
}

// pushSlot links ev into wheel slot (l, idx). Level-0 buckets stay sorted
// by (at, seq); higher levels are unordered (ordering is re-established
// when they cascade down to level 0).
func (e *Engine) pushSlot(l, idx int, ev *event) {
	ev.level, ev.slotIdx = int8(l), uint16(idx)
	if l != 0 {
		// The slot's base is ev's time rounded down to the slot's
		// granularity; tHi stays the minimum over occupied slots.
		e.tHi = min(e.tHi, ev.at>>lvlShift[l]<<lvlShift[l])
	}
	s := e.slotAt(l, idx)
	h := *s
	switch {
	case h == nil:
		ev.prev, ev.next = ev, nil // sole element: its own tail
		*s = ev
		e.setBit(l, idx)
	case l != 0 || eventLess(h.prev, ev):
		t := h.prev
		t.next = ev
		ev.prev, ev.next = t, nil
		h.prev = ev
	default:
		// An earlier instant than the bucket's tail, or a cascaded
		// arrival with an earlier seq: walk back from the tail to its
		// sorted position and insert before p.
		p := h.prev
		for p != h && eventLess(ev, p.prev) {
			p = p.prev
		}
		ev.prev, ev.next = p.prev, p
		if p == h {
			*s = ev // new head keeps the old tail as its prev
		} else {
			p.prev.next = ev
		}
		p.prev = ev
	}
	e.levelCount[l]++
}

// unlinkWheel removes a wheel-resident event from its slot. Only emptying
// a higher-level slot can raise tHi, so only that marks it dirty.
func (e *Engine) unlinkWheel(ev *event) {
	s := e.slotAt(int(ev.level), int(ev.slotIdx))
	h := *s
	if ev == h {
		nh := ev.next
		if nh == nil {
			*s = nil
			e.clearBit(int(ev.level), int(ev.slotIdx))
			if ev.level != 0 {
				e.hiDirty = true
			}
		} else {
			nh.prev = ev.prev // inherit the tail link
			*s = nh
		}
	} else {
		ev.prev.next = ev.next
		if ev.next != nil {
			ev.next.prev = ev.prev
		} else {
			h.prev = ev.prev // ev was the tail
		}
	}
	e.levelCount[ev.level]--
}

// popSlot0 removes and returns the first event of level-0 bucket idx and
// advances the cursor to its instant.
func (e *Engine) popSlot0(idx int) *event {
	s := &e.wheel0[idx]
	ev := *s
	nh := ev.next
	if nh == nil {
		e.clearBit(0, idx)
	} else {
		nh.prev = ev.prev // inherit the tail link
	}
	*s = nh
	e.levelCount[0]--
	e.count--
	e.cur = ev.at
	return ev
}

// nextOccupied returns the first occupied slot at level l scanning
// circularly from slot `from` (inclusive).
func (e *Engine) nextOccupied(l, from int) (int, bool) {
	if l == 0 {
		return e.nextOccupied0(from)
	}
	bm := e.occupiedHi[l-1][:]
	n := len(bm)
	w := from >> 6
	off := uint(from & 63)
	if v := bm[w] >> off; v != 0 {
		return from + bits.TrailingZeros64(v), true
	}
	for i := 1; i <= n; i++ {
		wi := (w + i) & (n - 1)
		v := bm[wi]
		if i == n {
			v &= ^(^uint64(0) << off) // wrapped back: only bits below off
		}
		if v != 0 {
			return wi<<6 + bits.TrailingZeros64(v), true
		}
	}
	return 0, false
}

// nextOccupied0 is nextOccupied for the bottom level: the summary word
// locates the first non-empty occupancy word, so the scan costs at most
// two find-first-set steps however sparse the level is.
func (e *Engine) nextOccupied0(from int) (int, bool) {
	w := from >> 6
	off := uint(from & 63)
	if v := e.occupied0[w] >> off; v != 0 {
		return from + bits.TrailingZeros64(v), true
	}
	// The first non-empty word after w, else the first one from the start
	// of the ring up to w, of which only the bits below off remain.
	var wi int
	if v := e.summary0 >> uint(w+1); v != 0 {
		wi = w + 1 + bits.TrailingZeros64(v)
	} else if v = e.summary0 & (2<<uint(w) - 1); v != 0 {
		wi = bits.TrailingZeros64(v)
	} else {
		return 0, false
	}
	word := e.occupied0[wi]
	if wi == w {
		if word &= 1<<off - 1; word == 0 {
			return 0, false
		}
	}
	return wi<<6 + bits.TrailingZeros64(word), true
}

// drainable reports whether an event at `at` can be placed in the wheel
// without colliding with the cursor's top-level slot.
func (e *Engine) drainable(at Time) bool {
	return at>>topLevelShift < e.cur>>topLevelShift+slotsPerLevel
}

// advance moves the cursor to t, cascading each higher-level slot the
// cursor enters. Slots crossed on the way are provably empty: advance is
// only called with t no later than the base of the first occupied slot of
// every level.
func (e *Engine) advance(t Time) {
	old := e.cur
	if t <= old {
		return
	}
	e.cur = t
	if old>>level0Bits == t>>level0Bits {
		return // no slot boundary crossed at any level above 0
	}
	for l := numLevels - 1; l >= 1; l-- {
		if old>>lvlShift[l] != t>>lvlShift[l] {
			e.cascade(l, int(t>>lvlShift[l])&slotMask)
		}
	}
}

// cascade re-buckets every event of slot (l, idx) relative to the new
// cursor; all of them land on strictly lower levels.
func (e *Engine) cascade(l, idx int) {
	s := e.slotAt(l, idx)
	ev := *s
	if ev == nil {
		return
	}
	e.hiDirty = true
	*s = nil
	e.clearBit(l, idx)
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		e.levelCount[l]--
		e.enqueue(ev)
		ev = next
	}
}

// popNext removes and returns the earliest pending event if its time is at
// most limit; otherwise it returns nil, leaving the cursor advanced to
// limit (when finite) so later bucketing stays tight.
func (e *Engine) popNext(limit Time) *event {
	if e.count == 0 {
		if limit != maxTime {
			e.advance(limit)
		}
		return nil
	}
	// Fast path: every pending event lives in level 0 (within ~33µs of the
	// cursor), so no drain, cascade, or higher-level comparison can matter.
	if e.count == e.levelCount[0] {
		idx, _ := e.nextOccupied0(int(e.cur>>bucketBits) & level0Mask)
		if e.wheel0[idx].at > limit {
			e.advance(limit)
			return nil
		}
		return e.popSlot0(idx)
	}
	for {
		// Pull overflow events that now fit in the wheel.
		for len(e.overflow) > 0 && e.drainable(e.overflow[0].at) {
			e.enqueue(e.heapRemove(0))
		}

		// Exact earliest instant resident in level 0: the head of the
		// first occupied bucket at or after the cursor's.
		t0 := maxTime
		idx0 := 0
		if e.levelCount[0] > 0 {
			if idx, ok := e.nextOccupied0(int(e.cur>>bucketBits) & level0Mask); ok {
				t0, idx0 = e.wheel0[idx].at, idx
			}
		}

		// Earliest slot base across levels 1..numLevels-1. The base is an
		// absolute time, so the cached value stays valid while the cursor
		// moves within its current slots. A push lowers it in place;
		// emptying a slot by unlink or cascade, and Reset, mark it dirty
		// for this rescan.
		if e.hiDirty {
			tHi := maxTime
			for l := 1; l < numLevels; l++ {
				if e.levelCount[l] == 0 {
					continue
				}
				cursor := int(e.cur>>lvlShift[l]) & slotMask
				idx, ok := e.nextOccupied(l, (cursor+1)&slotMask)
				if !ok {
					continue
				}
				d := (idx - cursor) & slotMask
				base := (e.cur>>lvlShift[l] + Time(d)) << lvlShift[l]
				if base < tHi {
					tHi = base
				}
			}
			e.tHi = tHi
			e.hiDirty = false
		}
		tHi := e.tHi

		if t0 == maxTime && tHi == maxTime {
			// Wheel empty: everything pending is in the overflow heap, so
			// its (time, seq) top is the global minimum — pop it directly
			// rather than routing it through the wheel.
			top := e.overflow[0]
			if top.at > limit {
				e.advance(limit)
				return nil
			}
			e.advance(top.at)
			e.count--
			return e.heapRemove(0)
		}

		if t0 < tHi {
			// Strictly earlier than any event still parked on a higher
			// level, so FIFO order is safe. On a tie we must cascade
			// first: the higher slot may hold an earlier-seq event of the
			// same instant.
			if t0 > limit {
				e.advance(limit)
				return nil
			}
			e.advance(t0)
			return e.popSlot0(idx0)
		}
		if tHi > limit {
			e.advance(limit)
			return nil
		}
		e.advance(tHi)
	}
}

// ------------------------------------------------------------ overflow heap

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev *event) {
	ev.level = -1
	ev.hidx = int32(len(e.overflow))
	e.overflow = append(e.overflow, ev)
	e.siftUp(len(e.overflow) - 1)
}

// heapRemove removes the event at heap index i.
func (e *Engine) heapRemove(i int) *event {
	h := e.overflow
	ev := h[i]
	last := len(h) - 1
	h[i] = h[last]
	h[i].hidx = int32(i)
	h[last] = nil
	e.overflow = h[:last]
	ev.hidx = -1
	if i < last {
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	}
	return ev
}

func (e *Engine) siftUp(i int) {
	h := e.overflow
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].hidx, h[parent].hidx = int32(i), int32(parent)
		i = parent
	}
}

func (e *Engine) siftDown(i int) bool {
	h := e.overflow
	moved := false
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && eventLess(h[r], h[child]) {
			child = r
		}
		if !eventLess(h[child], h[i]) {
			break
		}
		h[i], h[child] = h[child], h[i]
		h[i].hidx, h[child].hidx = int32(i), int32(child)
		i = child
		moved = true
	}
	return moved
}
