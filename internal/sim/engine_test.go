package sim

import (
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Fatalf("end time = %v, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events out of order: %v", got)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("After fired at %v, want 150", at)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	e.Cancel(ev)
	if !ev.Canceled() {
		t.Fatal("event not marked canceled")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	// Cancel after firing is a no-op.
	ev2 := e.At(20, func() {})
	e.Run()
	e.Cancel(ev2)
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, ti := range []Time{10, 20, 30, 40} {
		ti := ti
		e.At(ti, func() { fired = append(fired, ti) })
	}
	e.RunUntil(25)
	if len(fired) != 2 || e.Now() != 25 {
		t.Fatalf("RunUntil(25): fired=%v now=%v", fired, e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 || e.Now() != 100 {
		t.Fatalf("RunUntil(100): fired=%v now=%v", fired, e.Now())
	}
}

func TestExecutedAndPending(t *testing.T) {
	e := NewEngine()
	e.At(1, func() {})
	ev := e.At(2, func() {})
	e.Cancel(ev)
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	e.Run()
	if e.Executed() != 1 {
		t.Fatalf("Executed = %d, want 1", e.Executed())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{700, "700ns"},
		{26400, "26.40us"},
		{3_500_000, "3.500ms"},
		{2_000_000_000, "2.000s"},
		{60_000_000_000, "60.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var marks []Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(10)
		marks = append(marks, p.Now())
		p.Sleep(15)
		marks = append(marks, p.Now())
	})
	e.Run()
	if len(marks) != 2 || marks[0] != 10 || marks[1] != 25 {
		t.Fatalf("marks = %v, want [10 25]", marks)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Go("a", func(p *Proc) {
		got = append(got, "a0")
		p.Sleep(10)
		got = append(got, "a10")
		p.Sleep(20)
		got = append(got, "a30")
	})
	e.Go("b", func(p *Proc) {
		got = append(got, "b0")
		p.Sleep(15)
		got = append(got, "b15")
	})
	e.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestProcDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var got []string
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			e.Go(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(7)
					got = append(got, name)
				}
			})
		}
		e.Run()
		return got
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestSignalFIFO(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	var woke []string
	for _, name := range []string{"x", "y", "z"} {
		name := name
		e.Go(name, func(p *Proc) {
			s.Wait(p)
			woke = append(woke, name)
		})
	}
	e.Go("waker", func(p *Proc) {
		p.Sleep(5)
		if s.Waiters() != 3 {
			t.Errorf("Waiters = %d, want 3", s.Waiters())
		}
		s.Signal()
		p.Sleep(5)
		s.Broadcast()
	})
	e.Run()
	want := []string{"x", "y", "z"}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("wake order %v, want %v", woke, want)
		}
	}
}

func TestQueueBlockingGet(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	var got int
	var at Time
	e.Go("consumer", func(p *Proc) {
		got = q.Get(p)
		at = p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(42)
		q.Put(7)
	})
	e.Run()
	if got != 7 || at != 42 {
		t.Fatalf("got %d at %v, want 7 at 42", got, at)
	}
}

func TestQueueTryOps(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
	q.Put("a")
	q.Put("b")
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	for _, want := range []string{"a", "b"} {
		if v, ok := q.TryGet(); !ok || v != want {
			t.Fatalf("TryGet = %q,%v, want %q,true", v, ok, want)
		}
	}
	if _, ok := q.TryGet(); ok || q.Len() != 0 {
		t.Fatalf("TryGet on drained queue succeeded (Len %d)", q.Len())
	}
}

func TestDeadlockPanics(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	e.Go("stuck", func(p *Proc) {
		s.Wait(p) // never signaled
	})
	defer func() {
		if recover() == nil {
			t.Error("deadlocked Run did not panic")
		}
	}()
	e.Run()
}

func TestYield(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Go("a", func(p *Proc) {
		got = append(got, "a1")
		p.Yield()
		got = append(got, "a2")
	})
	e.Go("b", func(p *Proc) {
		got = append(got, "b1")
	})
	e.Run()
	// a yields at t=0, so b ("b1") runs before "a2".
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestGoDaemonExcludedFromDeadlock(t *testing.T) {
	e := NewEngine()
	s := NewSignal(e)
	e.GoDaemon("service", func(p *Proc) {
		for {
			s.Wait(p) // blocks forever: legal for a daemon
		}
	})
	e.Go("worker", func(p *Proc) {
		p.Sleep(100)
	})
	if end := e.Run(); end != 100 {
		t.Fatalf("end = %v", end)
	}
}

func TestGoAtStartsLater(t *testing.T) {
	e := NewEngine()
	var started Time
	e.GoAt(500, "late", func(p *Proc) { started = p.Now() })
	e.Run()
	if started != 500 {
		t.Fatalf("started at %v, want 500", started)
	}
}

func TestRunUntilExactBoundary(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(100, func() { fired = true })
	e.RunUntil(100) // inclusive
	if !fired {
		t.Fatal("event at the boundary did not fire")
	}
}

// Property: the event queue pops in nondecreasing time order for any
// insertion pattern.
func TestHeapOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			d := Time(d)
			e.At(d, func() { fired = append(fired, d) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
