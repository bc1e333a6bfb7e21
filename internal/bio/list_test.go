package bio

import (
	"testing"
	"unsafe"
)

// TestBioFootprint pins the bio to one 128-byte malloc size class: a
// backlog of N bios costs N of them, so a larger bio costs every backlog.
func TestBioFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Bio{}); got > 128 {
		t.Errorf("Bio is %d B, want at most 128", got)
	}
}

func TestListFIFO(t *testing.T) {
	var l List
	if !l.Empty() || l.Len() != 0 || l.Peek() != nil || l.Pop() != nil {
		t.Fatal("zero List is not empty")
	}
	bios := make([]*Bio, 5)
	for i := range bios {
		bios[i] = &Bio{Seq: uint64(i)}
		l.Push(bios[i])
		if l.Len() != i+1 {
			t.Fatalf("Len = %d after %d pushes", l.Len(), i+1)
		}
	}
	if l.Peek() != bios[0] {
		t.Fatalf("Peek = %v, want the oldest bio", l.Peek())
	}
	for i, want := range bios {
		got := l.Pop()
		if got != want {
			t.Fatalf("Pop #%d = seq %d, want seq %d", i, got.Seq, want.Seq)
		}
		if got.next != nil {
			t.Fatalf("Pop #%d left the bio linked", i)
		}
	}
	if !l.Empty() || l.Len() != 0 || l.Pop() != nil {
		t.Fatal("drained List is not empty")
	}
}

// TestListReuse interleaves pushes and pops across drains: a drained list
// must not keep a stale tail, and a popped bio may join another list.
func TestListReuse(t *testing.T) {
	var a, b List
	x, y, z := &Bio{Seq: 1}, &Bio{Seq: 2}, &Bio{Seq: 3}
	a.Push(x)
	a.Push(y)
	if a.Pop() != x {
		t.Fatal("first Pop is not the oldest")
	}
	b.Push(x)
	if a.Pop() != y || !a.Empty() {
		t.Fatal("list did not drain in order")
	}
	a.Push(z)
	a.Push(y)
	if a.Peek() != z || a.Len() != 2 {
		t.Fatalf("reused list: head seq %d, Len %d", a.Peek().Seq, a.Len())
	}
	if a.Pop() != z || a.Pop() != y || a.Pop() != nil {
		t.Fatal("reused list lost FIFO order")
	}
	if b.Pop() != x || !b.Empty() {
		t.Fatal("second list did not keep its bio")
	}
}
