package sim_test

// Equivalence between the engine and the reference event loop preserved in
// internal/sim/baseline: on randomized schedules — same-time ties, delays
// from nanoseconds to hours (so every bucket of the radix queue is used),
// callbacks that schedule more events, cancellations before the run and
// from inside callbacks, whole runs and RunUntil steps with events
// scheduled between them — both must fire the same callbacks at the same
// times in the same order.

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/baseline"
)

// maxDelay bounds an op's delay before its scale; small, so that ties are
// common. maxScale bounds the scale: a delay is multiplied by up to 2^40,
// which makes 1 ns about 18 simulated minutes.
const (
	maxDelay = 40
	maxScale = 40
)

// cancelKind names the event an op cancels just before it is scheduled.
type cancelKind uint8

const (
	cancelNone    cancelKind = iota
	cancelAny                // any earlier op: pending, fired (its slot maybe reused) or canceled
	cancelSibling            // a pending event due at the current instant
	cancelTop                // the pending event due to fire next
	cancelLatest             // the most recently scheduled event
	cancelKinds
)

// scriptOp is one scheduled event.
type scriptOp struct {
	delay  sim.Time   // After(delay<<scale) relative to the op's issue time
	scale  uint8      // 0 for most ops
	cancel cancelKind // what to cancel just before scheduling this op
	pick   int        // chooses among the cancel candidates
	nested int        // how many of the following ops the callback issues
}

// script is a deterministic schedule, replayed identically on both
// engines. Ops are issued in order: the first initial ones before the run,
// each later one from the callback of an earlier op or, in RunUntil mode,
// between two steps, at the clock the step left behind.
type script struct {
	ops     []scriptOp
	initial int
	stride  sim.Time // 0: advance with Run; otherwise RunUntil steps of stride
	between int      // ops issued after each RunUntil step
}

func makeScript(rng *rand.Rand, n int) script {
	s := script{ops: make([]scriptOp, n), initial: n/2 + 1 + rng.Intn((n+1)/2)}
	if rng.Intn(3) == 0 {
		s.stride = sim.Time(1 + rng.Intn(2*maxDelay-1))
		s.between = rng.Intn(3)
	}
	for i := range s.ops {
		op := scriptOp{delay: sim.Time(rng.Intn(maxDelay)), pick: rng.Intn(1 << 16)}
		if rng.Intn(4) == 0 {
			op.scale = uint8(1 + rng.Intn(maxScale))
		}
		if rng.Intn(4) == 0 {
			op.cancel = cancelKind(1 + rng.Intn(int(cancelKinds)-1))
		}
		if rng.Intn(4) == 0 {
			op.nested = 1 + rng.Intn(3)
		}
		s.ops[i] = op
	}
	return s
}

// decodeScript reads a script from fuzz input: three header bytes (initial
// ops, RunUntil stride, ops between steps), then five bytes per op (delay,
// scale, cancel kind, pick, nested). A scale byte above maxScale reads as 0.
func decodeScript(data []byte) script {
	var s script
	if len(data) < 3 {
		return s
	}
	s.initial, s.stride, s.between = int(data[0]), sim.Time(data[1]%(2*maxDelay)), int(data[2]%4)
	for b := data[3:]; len(b) >= 5 && len(s.ops) < 256; b = b[5:] {
		op := scriptOp{
			delay:  sim.Time(b[0] % maxDelay),
			cancel: cancelKind(b[2]) % cancelKinds,
			pick:   int(b[3]),
			nested: int(b[4] % 4),
		}
		if b[1] <= maxScale {
			op.scale = b[1]
		}
		s.ops = append(s.ops, op)
	}
	return s
}

// encodeScript is decodeScript's inverse for scripts of at most 255 initial
// and 256 ops, except that a pick keeps only its low byte.
func encodeScript(s script) []byte {
	b := []byte{byte(s.initial), byte(s.stride), byte(s.between)}
	for _, op := range s.ops {
		b = append(b, byte(op.delay), op.scale, byte(op.cancel), byte(op.pick), byte(op.nested))
	}
	return b
}

// engine is what replay needs of an engine; handles are named by op index.
type engine interface {
	now() sim.Time
	schedule(d sim.Time, fn func())
	cancel(id int)
	run()
	runUntil(t sim.Time)
}

type newEngine struct {
	e *sim.Engine
	h []sim.Event
}

func (n *newEngine) now() sim.Time                  { return n.e.Now() }
func (n *newEngine) schedule(d sim.Time, fn func()) { n.h = append(n.h, n.e.After(d, fn)) }
func (n *newEngine) cancel(id int)                  { n.e.Cancel(n.h[id]) }
func (n *newEngine) run()                           { n.e.Run() }
func (n *newEngine) runUntil(t sim.Time)            { n.e.RunUntil(t) }

type baseEngine struct {
	e *baseline.Engine
	h []*baseline.Event
}

func (b *baseEngine) now() sim.Time                  { return b.e.Now() }
func (b *baseEngine) schedule(d sim.Time, fn func()) { b.h = append(b.h, b.e.After(d, fn)) }
func (b *baseEngine) cancel(id int)                  { b.e.Cancel(b.h[id]) }
func (b *baseEngine) run()                           { b.e.Run() }
func (b *baseEngine) runUntil(t sim.Time)            { b.e.RunUntil(t) }

// firing records an op's callback (id -1: the clock after a RunUntil step
// or the run).
type firing struct {
	id int
	at sim.Time
}

// replay runs s on e and returns what fired, in order. Cancel targets are
// chosen from the script's own record of which ops are pending, so both
// engines cancel the same events for as long as they agree.
func replay(s script, e engine) []firing {
	const (
		pending = iota
		fired
		canceled
	)
	var (
		log   []firing
		due   []sim.Time // per issued op
		state []int      // per issued op
		live  int        // pending ops
	)
	target := func(op scriptOp) int {
		switch op.cancel {
		case cancelAny:
			if len(due) > 0 {
				return op.pick % len(due)
			}
		case cancelLatest:
			return len(due) - 1
		case cancelTop:
			top := -1
			for id := range due {
				if state[id] == pending && (top < 0 || due[id] < due[top]) {
					top = id
				}
			}
			return top
		case cancelSibling:
			var now []int
			for id := range due {
				if state[id] == pending && due[id] == e.now() {
					now = append(now, id)
				}
			}
			if len(now) > 0 {
				return now[op.pick%len(now)]
			}
		}
		return -1
	}
	var issue func()
	issue = func() {
		id := len(due)
		op := s.ops[id]
		if c := target(op); c >= 0 {
			e.cancel(c)
			if state[c] == pending {
				state[c] = canceled
				live--
			}
		}
		d := op.delay << op.scale
		due = append(due, e.now()+d)
		state = append(state, pending)
		live++
		e.schedule(d, func() {
			state[id] = fired
			live--
			log = append(log, firing{id, e.now()})
			for k := 0; k < op.nested && len(due) < len(s.ops); k++ {
				issue()
			}
		})
	}
	for len(due) < s.initial && len(due) < len(s.ops) {
		issue()
	}
	if s.stride > 0 {
		// The step bound only ends the loop early when far events or a
		// lost event keep it from draining; Run fires the rest.
		for steps := 0; live > 0 && steps < 4*len(s.ops); steps++ {
			e.runUntil(e.now() + s.stride)
			log = append(log, firing{-1, e.now()})
			for k := 0; k < s.between && len(due) < len(s.ops); k++ {
				issue()
			}
		}
	}
	e.run()
	return append(log, firing{-1, e.now()})
}

func checkMatchesBaseline(t *testing.T, s script) {
	t.Helper()
	got := replay(s, &newEngine{e: sim.NewEngine()})
	want := replay(s, &baseEngine{e: baseline.NewEngine()})
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("divergence at firing %d: new %+v, baseline %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("logged %d firings, baseline %d", len(got), len(want))
	}
}

func TestEngineMatchesBaselineOnRandomSchedules(t *testing.T) {
	for trial := int64(0); trial < 40; trial++ {
		rng := rand.New(rand.NewSource(trial))
		s := makeScript(rng, 1+rng.Intn(400))
		t.Logf("trial %d: %d ops, %d initial, stride %d, %d between steps", trial, len(s.ops), s.initial, s.stride, s.between)
		checkMatchesBaseline(t, s)
	}
}

func FuzzEngineMatchesBaseline(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 128; n *= 2 {
		b := make([]byte, 3+5*n)
		rng.Read(b)
		f.Add(b)
	}
	// Random bytes mostly make scripts whose ops are all issued before the
	// run; makeScript's also nest ops in callbacks and between RunUntil
	// steps.
	for trial := int64(0); trial < 8; trial++ {
		rng := rand.New(rand.NewSource(trial))
		f.Add(encodeScript(makeScript(rng, 1+rng.Intn(200))))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesBaseline(t, decodeScript(data))
	})
}

// FIFO tie-break: a burst of same-time events interleaved with cancels must
// drain in scheduling order on both engines.
func TestSameTimeBurstMatchesBaseline(t *testing.T) {
	const n = 200
	newOrder := func() []int {
		e := sim.NewEngine()
		var order []int
		evs := make([]sim.Event, n)
		for i := 0; i < n; i++ {
			i := i
			evs[i] = e.At(7, func() { order = append(order, i) })
		}
		for i := 0; i < n; i += 3 {
			e.Cancel(evs[i])
		}
		e.Run()
		return order
	}()
	baseOrder := func() []int {
		e := baseline.NewEngine()
		var order []int
		evs := make([]*baseline.Event, n)
		for i := 0; i < n; i++ {
			i := i
			evs[i] = e.At(7, func() { order = append(order, i) })
		}
		for i := 0; i < n; i += 3 {
			e.Cancel(evs[i])
		}
		e.Run()
		return order
	}()
	if len(newOrder) != len(baseOrder) {
		t.Fatalf("fired %d, baseline %d", len(newOrder), len(baseOrder))
	}
	for i := range baseOrder {
		if newOrder[i] != baseOrder[i] {
			t.Fatalf("tie-break divergence at %d: %v vs %v", i, newOrder, baseOrder)
		}
	}
}
