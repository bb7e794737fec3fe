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

// FuzzFIFOMatchesSlice decodes each input byte into one operation (Push,
// PushFront, Pop, Peek or Clear) and checks every result against a plain
// slice model. After each step the ring must hold exactly the model's
// items, every other slot zeroed.
func FuzzFIFOMatchesSlice(f *testing.F) {
	const (
		opPush = iota
		opPushFront
		opPop
		opPeek
		opClear
		nOps
	)
	// PushFront on an empty ring.
	f.Add([]byte{opPushFront, opPop, opPushFront})
	// PushFront on a full ring with its head at slot 0.
	f.Add([]byte{opPush, opPush, opPushFront, opPush, opPushFront})
	// PushFront on a full, wrapped ring (head at slot 2 of 4), so grow
	// must unwrap it.
	f.Add([]byte{opPush, opPush, opPush, opPush, opPop, opPop, opPush, opPush,
		opPushFront, opPop, opPushFront, opPushFront})
	// Clear, then PushFront into the kept ring.
	f.Add([]byte{opPush, opPushFront, opClear, opPushFront, opPeek, opPop})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q FIFO[int]
		var model []int
		empty := func(name string, fn func()) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on an empty FIFO did not panic", name)
				}
			}()
			fn()
		}
		for step, b := range ops {
			v := step + 1 // never the zero value, so cleared slots show
			switch b % nOps {
			case opPush:
				q.Push(v)
				model = append(model, v)
			case opPushFront:
				q.PushFront(v)
				model = append([]int{v}, model...)
			case opPop:
				if len(model) == 0 {
					empty("Pop", func() { q.Pop() })
					break
				}
				if got := q.Pop(); got != model[0] {
					t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
				}
				model = model[1:]
			case opPeek:
				if len(model) == 0 {
					empty("Peek", func() { q.Peek() })
					break
				}
				if got := q.Peek(); got != model[0] {
					t.Fatalf("step %d: Peek = %d, want %d", step, got, model[0])
				}
			case opClear:
				q.Clear()
				model = model[:0]
			}
			if q.Len() != len(model) {
				t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(model))
			}
			for i, want := range model {
				if got := q.buf[(int(q.head)+i)%len(q.buf)]; got != want {
					t.Fatalf("step %d: item %d = %d, want %d", step, i, got, want)
				}
			}
			held := 0
			for _, x := range q.buf {
				if x != 0 {
					held++
				}
			}
			if held != len(model) {
				t.Fatalf("step %d: %d slots hold items, want %d", step, held, len(model))
			}
		}
	})
}
