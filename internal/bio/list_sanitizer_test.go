//go:build sanitizer

package bio

import "testing"

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestListSanitizerCatchesMisuse(t *testing.T) {
	var a, b List
	x := &Bio{}
	a.Push(x)
	mustPanic(t, "Push of a listed bio", func() { b.Push(x) })
	a.Pop()
	b.Push(x) // legal once popped
	b.Pop()

	p := NewPool()
	y := p.Get()
	a.Push(y)
	mustPanic(t, "Put of a listed bio", func() { p.Put(y) })
	a.Pop()
	p.Put(y)
}
