package sim

import "testing"

// TestFIFOOrderAcrossWrapAndGrowth pushes and pops in an uneven rhythm, so
// the ring wraps and grows with its head in the middle, and checks the
// items against a plain slice model.
func TestFIFOOrderAcrossWrapAndGrowth(t *testing.T) {
	var f FIFO[int]
	var model []int
	next := 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7; i++ {
			f.Push(next)
			model = append(model, next)
			next++
		}
		for i := 0; i < round%5 && len(model) > 0; i++ {
			if got := f.Pop(); got != model[0] {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, model[0])
			}
			model = model[1:]
		}
		if f.Len() != len(model) {
			t.Fatalf("round %d: Len = %d, want %d", round, f.Len(), len(model))
		}
		if len(model) > 0 && f.Peek() != model[0] {
			t.Fatalf("round %d: Peek = %d, want %d", round, f.Peek(), model[0])
		}
	}
	f.Clear()
	if f.Len() != 0 {
		t.Fatalf("Len after Clear = %d", f.Len())
	}
	f.Push(7)
	if got := f.Pop(); got != 7 {
		t.Fatalf("Pop after Clear = %d, want 7", got)
	}
}

// TestFIFOReleasesPoppedItems: a popped or cleared slot holds the zero
// value, so the ring keeps nothing reachable that it no longer holds.
func TestFIFOReleasesPoppedItems(t *testing.T) {
	var f FIFO[*int]
	for i := 0; i < 3; i++ {
		f.Push(new(int))
	}
	f.Pop()
	if f.buf[0] != nil || f.buf[1] == nil || f.buf[2] == nil {
		t.Fatalf("slots after one Pop: %v, want the popped one cleared", f.buf)
	}
	f.Clear()
	for i, p := range f.buf {
		if p != nil {
			t.Fatalf("slot %d after Clear still holds %v", i, p)
		}
	}
}

// TestFIFOSteadyStateAllocatesNothing: once the ring is as deep as the
// FIFO gets, pushing and popping allocate nothing, however far it slides.
func TestFIFOSteadyStateAllocatesNothing(t *testing.T) {
	var f FIFO[[]byte]
	wire := make([]byte, 8)
	for i := 0; i < 3; i++ {
		f.Push(wire)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		f.Push(wire)
		f.Push(wire)
		f.Pop()
		f.Pop()
	})
	if allocs != 0 {
		t.Fatalf("steady push/pop allocates %.1f per run, want 0", allocs)
	}
}

func TestFIFOEmptyPopPanics(t *testing.T) {
	var f FIFO[int]
	f.Push(1)
	f.Pop()
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on an empty FIFO did not panic")
		}
	}()
	f.Pop()
}
