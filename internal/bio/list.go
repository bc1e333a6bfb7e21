package bio

// List is an intrusive FIFO of bios, the kernel's bio_list: it links bios
// through their next field, so a backlog allocates nothing beyond its
// bios. The zero value is empty. A bio is on at most one list at a time;
// under -tags sanitizer, Push panics on a listed bio and Pool.Put on one
// still listed.
type List struct {
	head, tail *Bio
	n          int
}

// Push appends b.
func (l *List) Push(b *Bio) {
	if sanitize {
		if b.listed {
			panic("bio: Push of a bio already on a list")
		}
		b.listed = true
	}
	if l.tail == nil {
		l.head = b
	} else {
		l.tail.next = b
	}
	l.tail = b
	l.n++
}

// Pop removes and returns the oldest bio, unlinked, or nil when empty.
func (l *List) Pop() *Bio {
	b := l.head
	if b == nil {
		return nil
	}
	l.head = b.next
	if l.head == nil {
		l.tail = nil
	}
	b.next = nil
	if sanitize {
		b.listed = false
	}
	l.n--
	return b
}

// Peek returns the oldest bio, or nil when empty.
func (l *List) Peek() *Bio { return l.head }

// Len returns the number of listed bios.
func (l *List) Len() int { return l.n }

// Empty reports whether the list holds no bios.
func (l *List) Empty() bool { return l.head == nil }
