package obs

import (
	"bytes"

	"repro/internal/sim"
)

// DefaultSamplerCap is the per-series point capacity used when a caller
// passes cap <= 0. At a 50us period it covers 100ms of run at full
// resolution before the first downsample.
const DefaultSamplerCap = 2048

// Sampler polls registered state sources on a fixed simulated-time period
// and records each reading into a per-source Series. It is a pull-model
// instrument: the sampled components pay nothing — no writes, no
// allocations — on their hot paths; the sampler calls their accessors at
// tick time. Because those accessors only read state, an armed sampler
// changes nothing about the simulated run itself.
//
// A nil *Sampler is valid: every method records nothing.
type Sampler struct {
	eng    *sim.Engine
	period sim.Time
	cap    int

	names  []string // registration order, for deterministic export
	fns    []func() int64
	series []*Series

	ev      sim.Event
	tickFn  func() // tick, bound once: re-arming allocates nothing
	running bool
	ticks   int64
}

// NewSampler returns a sampler that will poll every period of simulated
// time, retaining up to capacity points per series (DefaultSamplerCap if
// capacity <= 0). It does not sample until Start.
func NewSampler(eng *sim.Engine, period sim.Time, capacity int) *Sampler {
	if period <= 0 {
		panic("obs: sampler period must be positive")
	}
	if capacity <= 0 {
		capacity = DefaultSamplerCap
	}
	s := &Sampler{eng: eng, period: period, cap: capacity}
	s.tickFn = s.tick
	return s
}

// Register adds a named state source. fn is called at each tick and must
// only read component state. Sources are sampled and exported in
// registration order, so registering in a deterministic order yields
// byte-deterministic exports.
func (s *Sampler) Register(name string, fn func() int64) {
	if s == nil {
		return
	}
	s.names = append(s.names, name)
	s.fns = append(s.fns, fn)
	s.series = append(s.series, newSeries(name, s.cap))
}

// Period returns the sampling period (0 for nil).
func (s *Sampler) Period() sim.Time {
	if s == nil {
		return 0
	}
	return s.period
}

// Ticks returns how many sampling ticks have run.
func (s *Sampler) Ticks() int64 {
	if s == nil {
		return 0
	}
	return s.ticks
}

// Start arms the sampler: the first tick fires one period from now.
// Starting an armed or nil sampler is a no-op. Like the link probers, an
// armed sampler keeps the event queue non-empty — run the engine with
// RunUntil (or Stop the sampler) rather than Run.
func (s *Sampler) Start() {
	if s == nil || s.running {
		return
	}
	s.running = true
	s.ev = s.eng.After(s.period, s.tickFn)
}

// Stop disarms the sampler. Already-collected series remain readable.
func (s *Sampler) Stop() {
	if s == nil || !s.running {
		return
	}
	s.running = false
	s.eng.Cancel(s.ev)
}

func (s *Sampler) tick() {
	if !s.running {
		return
	}
	now := s.eng.Now()
	s.ticks++
	for i, fn := range s.fns {
		s.series[i].add(now, fn())
	}
	s.ev = s.eng.After(s.period, s.tickFn)
}

// Series returns the collected series in registration order. Callers must
// not mutate the slice.
func (s *Sampler) Series() []*Series {
	if s == nil {
		return nil
	}
	return s.series
}

// Lookup returns the named series, or nil if not registered.
func (s *Sampler) Lookup(name string) *Series {
	if s == nil {
		return nil
	}
	for i, n := range s.names {
		if n == name {
			return s.series[i]
		}
	}
	return nil
}

// CSV renders every series as "series,at_ns,value" lines under a header
// row, in registration order. Output is byte-deterministic for a
// deterministic run.
func (s *Sampler) CSV() []byte {
	var b bytes.Buffer
	b.WriteString("series,at_ns,value\n")
	if s == nil {
		return b.Bytes()
	}
	for _, sr := range s.series {
		sr.CSV(&b)
	}
	return b.Bytes()
}
