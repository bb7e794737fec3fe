package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// spawnAllocs is what starting and finishing a one-Sleep process costs once
// the engine has an idle coroutine: the Proc and its bound resume callback.
// A coroutine made per process instead of taken from Engine.idle shows up
// here (8 with a goroutine and two channels per process, 17 with a fresh
// iter.Pull per process).
const spawnAllocs = 2

func sleepOne(p *Proc) { p.Sleep(1) }

func TestSpawnAllocations(t *testing.T) {
	e := NewEngine()
	spawn := func() {
		e.Go("p", sleepOne)
		e.Run()
	}
	spawn() // warm the coroutine pool, the event pool and the live map
	if got := testing.AllocsPerRun(100, spawn); got > spawnAllocs {
		t.Fatalf("%v allocations per spawned process, want <= %d", got, spawnAllocs)
	}
}

// Wake resumes a parked process through the event queue: the waker runs on
// to its own next block first, and an event scheduled earlier for the same
// instant fires before the resume.
func TestParkWake(t *testing.T) {
	e := NewEngine()
	var order []string
	parked := e.Go("parked", func(p *Proc) {
		order = append(order, "park")
		p.Park()
		order = append(order, "resumed")
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(10)
		e.At(10, func() { order = append(order, "earlier event") })
		parked.Wake()
		order = append(order, "waker continues")
	})
	e.Run()
	want := []string{"park", "waker continues", "earlier event", "resumed"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %q, want %q", order, want)
	}
	if e.Now() != 10 {
		t.Fatalf("resumed at %v, want 10", e.Now())
	}
}

func TestFinishedCoroutinesAreReused(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 10000; i++ {
		e.Go("p", sleepOne)
		e.Run()
	}
	if len(e.idle) != 1 {
		t.Fatalf("%d idle coroutines after 10000 sequential processes, want 1", len(e.idle))
	}
	// The goroutine of the previous test may still be exiting when base is
	// read, so the count can end one below base+1, never above it.
	if got := runtime.NumGoroutine(); got > base+1 {
		t.Fatalf("%d goroutines after 10000 sequential processes, want at most %d (baseline %d + 1)", got, base+1, base)
	}
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	e.Go("ok", func(p *Proc) {})
	boomErr := errors.New("boom")
	boom := e.Go("boom", func(p *Proc) {
		p.Sleep(1)
		panic(boomErr)
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		e.Run()
		return nil
	}()
	if got != boomErr {
		t.Fatalf("Run panicked with %v, want the body's own value %v", got, boomErr)
	}
	if len(e.idle) != 1 || e.idle[0] == boom.co {
		t.Fatalf("idle list %v: want only the coroutine of the process that returned", e.idle)
	}
}
