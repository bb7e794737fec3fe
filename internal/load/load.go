// Package load generates deterministic synthetic workloads against an
// assembled Nectar system. It is the traffic source behind P1, R2, S1 and
// bench/: every CAB runs client threads issuing a configurable mix of
// request-response, byte-stream, and VMTP transaction operations against
// servers on the other CABs, with either closed-loop (fixed concurrency)
// or open-loop (timed arrivals) injection and uniform or zipfian
// destination popularity.
//
// Determinism: all randomness comes from per-worker rand sources derived
// from Config.Seed, and all scheduling happens on the system's
// discrete-event engine, so a given (system, Config) pair always produces
// byte-identical results — Result.Digest folds every completed operation
// and is the value replay checks compare across runs.
package load

import (
	"fmt"
	"math/rand"

	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Arrival selects how operations are injected.
type Arrival int

const (
	// ClosedLoop runs Config.Workers client threads per CAB, each issuing
	// its next operation as soon as the previous one completes. Offered
	// load self-regulates to the system's capacity: this is the
	// saturation mode.
	ClosedLoop Arrival = iota
	// OpenLoop draws exponential interarrival times at Config.RatePerCAB
	// per CAB and spawns one client thread per arrival, independent of
	// completions — the paper-style fixed-rate injection. Arrivals beyond
	// Config.MaxOutstanding in flight are shed (counted in Result.Shed),
	// modeling a full connection backlog rather than unbounded queueing.
	OpenLoop
)

// Op kinds, indexed into Mix weights and Result.OpCounts.
const (
	OpReqResp = iota
	OpStream
	OpVMTP
	numOps
)

var opNames = [numOps]string{"reqresp", "stream", "vmtp"}

// Mix weights the operation types. Weights are relative; zero disables a
// type. The zero Mix is replaced by DefaultMix.
type Mix struct {
	ReqResp int // request-response round trips (ReqBytes out, RespBytes back)
	Stream  int // reliable byte-stream messages of StreamBytes
	VMTP    int // VMTP transactions (ReqBytes out, RespBytes back)
}

// DefaultMix is a datacenter-ish blend: mostly RPCs, some bulk, some VMTP.
func DefaultMix() Mix { return Mix{ReqResp: 60, Stream: 30, VMTP: 10} }

func (m Mix) total() int { return m.ReqResp + m.Stream + m.VMTP }

// ClassMix weights the transport priority classes operations are issued
// under. The zero ClassMix disables class draws entirely: every operation
// goes out unclassed (ClassNormal, no deadline), the per-worker RNG
// streams are untouched, and the run digest is byte-identical to builds
// without the overload-control subsystem.
type ClassMix struct {
	Critical int
	Normal   int
	Bulk     int
}

func (m ClassMix) total() int { return m.Critical + m.Normal + m.Bulk }

// Config parameterizes a load run. Zero-valued fields take the documented
// defaults.
type Config struct {
	// Seed derives every random stream in the run.
	Seed int64
	// Arrival selects closed-loop (default) or open-loop injection.
	Arrival Arrival
	// Workers is the closed-loop client thread count per CAB (default 2).
	Workers int
	// RatePerCAB is the open-loop arrival rate per CAB in operations per
	// simulated second (default 20000).
	RatePerCAB float64
	// MaxOutstanding caps in-flight open-loop operations per CAB; excess
	// arrivals are shed (default 64).
	MaxOutstanding int
	// Warmup runs traffic without recording (default 2ms); Duration is
	// the measured window after warmup (default 20ms).
	Warmup   sim.Time
	Duration sim.Time
	// Mix weights the operation types (default DefaultMix).
	Mix Mix
	// Classes weights priority classes for classed workloads. When any
	// weight is non-zero, each operation draws a class from the mix and is
	// issued through the classed transport entry points; the zero value
	// (the default) keeps the workload unclassed and digest-compatible
	// with earlier builds.
	Classes ClassMix
	// ClassDeadlines stamps each operation of the given class with a
	// deadline this far past its issue time (indexed by transport.Class;
	// 0 leaves that class undeadlined). Ignored when Classes is zero.
	ClassDeadlines [transport.NumClasses]sim.Time
	// Payload sizes in bytes (defaults 64, 256, 16384).
	ReqBytes, RespBytes, StreamBytes int
	// ZipfS skews destination popularity: 0 means uniform; values > 1
	// are the zipf s parameter (larger = more skew). Each source applies
	// the skew to its own rotation of the other CABs, so hot keys spread
	// across the machine deterministically.
	ZipfS float64
	// LatencyCap bounds retained latency samples per histogram (the
	// overall and per-class ones): past the cap the histogram decimates
	// deterministically, keeping every count exact and quantiles
	// approximate. 0 retains every sample exactly — fine for one
	// experiment, unbounded for a long benchmark run.
	LatencyCap int
	// TickEvery invokes OnTick at this simulated-time period during the
	// run (0 disables ticks). bench/ uses it to time each slice of the
	// measured window from inside the single-threaded engine goroutine;
	// the callback must not mutate simulation state.
	TickEvery sim.Time
	OnTick    func(Tick)

	// BSPSupersteps adds a bulk-synchronous workload alongside the
	// point-to-point mix: one BSP worker per CAB runs this many
	// compute+allreduce supersteps on the collective subsystem
	// (internal/coll; the workload reserves group id 14). 0 disables it
	// (the default). Completed supersteps are counted in Result.CollSteps
	// and folded into the determinism digest; a superstep whose global
	// sum comes back wrong counts as an error.
	BSPSupersteps int
	// BSPBytes is the allreduce payload per superstep (default 1024).
	BSPBytes int
	// BSPCompute is the mean of each worker's exponential compute phase
	// (default 50us).
	BSPCompute sim.Time
}

// Tick is a mid-run progress report passed to Config.OnTick.
type Tick struct {
	Now sim.Time // current simulated time
	Ops int64    // operations completed so far in the measured window
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.RatePerCAB == 0 {
		c.RatePerCAB = 20000
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = 64
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * sim.Millisecond
	}
	if c.Duration == 0 {
		c.Duration = 20 * sim.Millisecond
	}
	if c.Mix.total() == 0 {
		c.Mix = DefaultMix()
	}
	if c.ReqBytes == 0 {
		c.ReqBytes = 64
	}
	if c.RespBytes == 0 {
		c.RespBytes = 256
	}
	if c.StreamBytes == 0 {
		c.StreamBytes = 16 << 10
	}
	if c.BSPBytes == 0 {
		c.BSPBytes = 1024
	}
	if c.BSPCompute == 0 {
		c.BSPCompute = 50 * sim.Microsecond
	}
	return c
}

// Result summarizes one load run.
type Result struct {
	Ops      int64    // completed operations in the measured window
	Errors   int64    // operations that returned an error
	Shed     int64    // open-loop arrivals dropped at MaxOutstanding
	Bytes    int64    // payload bytes moved by completed operations
	Elapsed  sim.Time // measured window length
	OpCounts [numOps]int64
	// CollSteps is the number of BSP supersteps (collective allreduces)
	// completed in the measured window (0 unless Config.BSPSupersteps).
	CollSteps int64
	// Goodput is the payload bytes moved by useful completions: operations
	// that finished without error and, when deadline-stamped, on time. For
	// unclassed runs Goodput == Bytes; under overload it is the number the
	// brownout experiment compares, since late or shed work is waste.
	Goodput int64
	// Per-class accounting, populated only for classed runs (Config.
	// Classes non-zero), indexed by transport.Class.
	ClassOps    [transport.NumClasses]int64
	ClassErrors [transport.NumClasses]int64
	// Latency is the distribution of completed-operation latencies
	// (exact samples unless Config.LatencyCap bounds them).
	Latency *trace.Histogram
	// ClassLatency splits Latency by priority class for classed runs
	// (entries are empty histograms otherwise).
	ClassLatency [transport.NumClasses]*trace.Histogram
	// Digest folds (kind, src, dst, latency, error) of every completed
	// operation, in completion order, through FNV-1a. Two runs of the
	// same seed and config produce the same digest, whatever the host,
	// and whatever else runs concurrently in the same process.
	Digest uint64
}

// OpsPerSec is completed operations per simulated second.
func (r *Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// MBps is payload megabytes moved per simulated second.
func (r *Result) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds() / 1e6
}

// Mailbox numbers used by the generator on every CAB. Client source boxes
// for streams start at boxClientBase+worker so concurrent streams from one
// CAB use distinct connections.
const (
	boxReqResp    = 7
	boxStream     = 8
	boxVMTP       = 9
	boxClientBase = 16
)

// run carries the mutable state shared by every generator thread.
type run struct {
	sys     *core.System
	cfg     Config
	mark    sim.Time // measurement starts here
	end     sim.Time // traffic and measurement stop here
	classed bool     // Config.Classes non-zero: draw classes and deadlines
	res     *Result
	digest  trace.Digest
}

// opOpts draws the send options for one operation: its priority class from
// the class mix and the matching deadline. Unclassed runs return the zero
// SendOpts without touching the RNG.
func (r *run) opOpts(pk *picker, now sim.Time) transport.SendOpts {
	if !r.classed {
		return transport.SendOpts{}
	}
	c := pk.class(r.cfg.Classes)
	opts := transport.SendOpts{Class: c}
	if d := r.cfg.ClassDeadlines[c]; d > 0 {
		opts.Deadline = now + d
	}
	return opts
}

// record accounts one completed operation (thread-safe by construction:
// the simulation engine is single-threaded).
func (r *run) record(kind, src, dst int, start sim.Time, bytes int, err error, opts transport.SendOpts) {
	now := r.sys.Eng.Now()
	if now < r.mark || now > r.end {
		return
	}
	lat := now - start
	r.res.Ops++
	r.res.OpCounts[kind]++
	if err != nil {
		r.res.Errors++
	} else {
		r.res.Bytes += int64(bytes)
		if opts.Deadline == 0 || now <= opts.Deadline {
			r.res.Goodput += int64(bytes)
		}
	}
	r.res.Latency.Add(lat)
	if r.classed {
		c := opts.Class
		r.res.ClassOps[c]++
		if err != nil {
			r.res.ClassErrors[c]++
		} else {
			r.res.ClassLatency[c].Add(lat)
		}
	}
	r.digest.Byte(byte(kind))
	r.digest.Uint64(uint64(src))
	r.digest.Uint64(uint64(dst))
	r.digest.Uint64(uint64(lat))
	if err != nil {
		r.digest.Byte(1)
	} else {
		r.digest.Byte(0)
	}
	// The class byte joins the digest only for classed runs, keeping
	// unclassed digests byte-identical to earlier builds.
	if r.classed {
		r.digest.Byte(byte(opts.Class))
	}
}

// picker draws destinations and op kinds for one worker, deterministically
// from its own seed.
type picker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	self int
	n    int
	mix  Mix
}

func newPicker(seed int64, self, n int, cfg Config) *picker {
	rng := rand.New(rand.NewSource(seed))
	p := &picker{rng: rng, self: self, n: n, mix: cfg.Mix}
	if cfg.ZipfS > 1 && n > 2 {
		p.zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(n-2))
	}
	return p
}

// dst picks a destination CAB other than self. With zipf enabled, rank 0
// (the hottest) maps to the next CAB after self, so every source has its
// own hot destination and skew does not collapse the whole machine onto
// one CAB.
func (p *picker) dst() int {
	var rank int
	if p.zipf != nil {
		rank = int(p.zipf.Uint64())
	} else {
		rank = p.rng.Intn(p.n - 1)
	}
	return (p.self + 1 + rank) % p.n
}

// class draws a priority class according to the class-mix weights. Only
// classed runs call it, so unclassed runs consume identical RNG streams to
// earlier builds.
func (p *picker) class(m ClassMix) transport.Class {
	v := p.rng.Intn(m.total())
	if v < m.Critical {
		return transport.ClassCritical
	}
	if v < m.Critical+m.Normal {
		return transport.ClassNormal
	}
	return transport.ClassBulk
}

// kind draws an op kind according to the mix weights.
func (p *picker) kind() int {
	v := p.rng.Intn(p.mix.total())
	if v < p.mix.ReqResp {
		return OpReqResp
	}
	if v < p.mix.ReqResp+p.mix.Stream {
		return OpStream
	}
	return OpVMTP
}

// workerSeed derives a stable per-worker seed from the run seed. The
// multipliers are odd 64-bit constants (splitmix-style) so nearby
// (cab, worker) pairs land far apart.
func workerSeed(seed int64, cab, worker int) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	x ^= uint64(cab+1) * 0xbf58476d1ce4e5b9
	x ^= uint64(worker+1) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// installServers registers the three service mailboxes and their daemon
// threads on every CAB.
func installServers(sys *core.System, cfg Config) {
	for i := 0; i < sys.NumCABs(); i++ {
		st := sys.CAB(i)
		resp := make([]byte, cfg.RespBytes)

		reqMB := st.Kernel.NewMailbox("load-req", 4<<20)
		st.TP.Register(boxReqResp, reqMB)
		st.Kernel.SpawnDaemon("load-req-srv", func(th *kernel.Thread) {
			for {
				req := reqMB.Get(th)
				st.TP.Respond(th, req, resp)
				reqMB.Release(req)
			}
		})

		strMB := st.Kernel.NewMailbox("load-stream", 8<<20)
		st.TP.Register(boxStream, strMB)
		st.Kernel.SpawnDaemon("load-stream-sink", func(th *kernel.Thread) {
			for {
				msg := strMB.Get(th)
				strMB.Release(msg)
			}
		})

		vMB := st.Kernel.NewMailbox("load-vmtp", 4<<20)
		st.TP.Register(boxVMTP, vMB)
		st.Kernel.SpawnDaemon("load-vmtp-srv", func(th *kernel.Thread) {
			for {
				req := vMB.Get(th)
				st.TP.VRespond(th, req, resp)
				vMB.Release(req)
			}
		})
	}
}

// doOp executes one operation and reports (payload bytes, error). The
// Opts entry points with a zero opts behave exactly like the plain ones,
// so unclassed runs are unchanged.
func (r *run) doOp(th *kernel.Thread, kind, self, dst, worker int, opts transport.SendOpts) (int, error) {
	tp := r.sys.CAB(self).TP
	cfg := r.cfg
	srcBox := uint16(boxClientBase + worker)
	switch kind {
	case OpReqResp:
		resp, err := tp.RequestOpts(th, dst, boxReqResp, srcBox, make([]byte, cfg.ReqBytes), opts)
		return cfg.ReqBytes + len(resp), err
	case OpStream:
		err := tp.StreamSendOpts(th, dst, boxStream, srcBox, make([]byte, cfg.StreamBytes), opts)
		return cfg.StreamBytes, err
	default:
		resp, err := tp.VTransactOpts(th, dst, boxVMTP, srcBox, make([]byte, cfg.ReqBytes), opts)
		return cfg.ReqBytes + len(resp), err
	}
}

// Run drives the workload against sys until Warmup+Duration of simulated
// time has elapsed and returns the measured-window results. It owns the
// engine for that span (it calls sys.Eng.RunUntil); the system must not
// have other traffic scheduled. Panics with a descriptive "load: ..."
// message when the system is too small to generate traffic.
func Run(sys *core.System, cfg Config) *Result {
	cfg = cfg.withDefaults()
	n := sys.NumCABs()
	if n < 2 {
		panic(fmt.Sprintf("load: need at least 2 CABs to generate traffic, system has %d", n))
	}
	start := sys.Eng.Now()
	r := &run{
		sys:     sys,
		cfg:     cfg,
		mark:    start + cfg.Warmup,
		end:     start + cfg.Warmup + cfg.Duration,
		classed: cfg.Classes.total() > 0,
		res:     &Result{Latency: trace.NewHistogram("op latency")},
		digest:  trace.NewDigest(),
	}
	r.res.Latency.SetCap(cfg.LatencyCap)
	for c := range r.res.ClassLatency {
		r.res.ClassLatency[c] = trace.NewHistogram(transport.Class(c).String() + " latency")
		r.res.ClassLatency[c].SetCap(cfg.LatencyCap)
	}
	installServers(sys, cfg)
	if cfg.Arrival == ClosedLoop {
		r.startClosed()
	} else {
		r.startOpen()
	}
	if cfg.BSPSupersteps > 0 {
		r.startBSP()
	}
	if cfg.TickEvery > 0 && cfg.OnTick != nil {
		var tick func()
		tick = func() {
			cfg.OnTick(Tick{Now: sys.Eng.Now(), Ops: r.res.Ops})
			if sys.Eng.Now() < r.end {
				sys.Eng.After(cfg.TickEvery, tick)
			}
		}
		sys.Eng.After(cfg.TickEvery, tick)
	}
	sys.Eng.RunUntil(r.end)
	r.res.Elapsed = cfg.Duration
	r.res.Digest = uint64(r.digest)
	return r.res
}

// startClosed spawns Workers client threads per CAB, each looping
// operations back to back until the end of the run.
func (r *run) startClosed() {
	for i := 0; i < r.sys.NumCABs(); i++ {
		for w := 0; w < r.cfg.Workers; w++ {
			i, w := i, w
			pk := newPicker(workerSeed(r.cfg.Seed, i, w), i, r.sys.NumCABs(), r.cfg)
			name := fmt.Sprintf("load-%d.%d", i, w)
			r.sys.CAB(i).Kernel.SpawnDaemon(name, func(th *kernel.Thread) {
				for th.Proc().Now() < r.end {
					kind, dst := pk.kind(), pk.dst()
					opStart := th.Proc().Now()
					opts := r.opOpts(pk, opStart)
					bytes, err := r.doOp(th, kind, i, dst, w, opts)
					r.record(kind, i, dst, opStart, bytes, err, opts)
				}
			})
		}
	}
}

// startOpen spawns one dispatcher per CAB that draws exponential
// interarrivals and launches a short-lived client thread per arrival.
func (r *run) startOpen() {
	interArrival := func(rng *rand.Rand) sim.Time {
		d := sim.Time(rng.ExpFloat64() / r.cfg.RatePerCAB * float64(sim.Second))
		if d < 1 {
			d = 1
		}
		return d
	}
	for i := 0; i < r.sys.NumCABs(); i++ {
		i := i
		pk := newPicker(workerSeed(r.cfg.Seed, i, 0), i, r.sys.NumCABs(), r.cfg)
		outstanding := 0
		seq := 0
		k := r.sys.CAB(i).Kernel
		k.SpawnDaemon(fmt.Sprintf("load-arrivals-%d", i), func(th *kernel.Thread) {
			for {
				th.Sleep(interArrival(pk.rng))
				if th.Proc().Now() >= r.end {
					return
				}
				if outstanding >= r.cfg.MaxOutstanding {
					if now := th.Proc().Now(); now >= r.mark && now <= r.end {
						r.res.Shed++
					}
					continue
				}
				kind, dst := pk.kind(), pk.dst()
				opts := r.opOpts(pk, th.Proc().Now())
				// Rotate the client box so concurrent arrivals use
				// distinct stream connections.
				worker := seq % r.cfg.MaxOutstanding
				seq++
				outstanding++
				k.Spawn(fmt.Sprintf("load-%d.op%d", i, seq), func(th *kernel.Thread) {
					opStart := th.Proc().Now()
					bytes, err := r.doOp(th, kind, i, dst, worker, opts)
					r.record(kind, i, dst, opStart, bytes, err, opts)
					outstanding--
				})
			}
		})
	}
}

// bspGroupID is the collective group the BSP workload reserves.
const bspGroupID = 14

// startBSP spawns one bulk-synchronous worker per CAB: each superstep is
// an exponential compute phase followed by a group-wide allreduce over
// the collective subsystem. Rank 0 verifies every lane of the global sum,
// counts the superstep, and folds it into the determinism digest.
func (r *run) startBSP() {
	n := r.sys.NumCABs()
	g := coll.NewGroup(r.sys, bspGroupID, seqInts(n))
	vals := r.cfg.BSPBytes / 8
	if vals < 1 {
		vals = 1
	}
	for rank := 0; rank < n; rank++ {
		rank := rank
		c := g.Member(rank)
		cab := g.CABOf(rank)
		rng := rand.New(rand.NewSource(workerSeed(r.cfg.Seed, cab, 1<<20)))
		r.sys.CAB(cab).Kernel.SpawnDaemon(fmt.Sprintf("load-bsp-%d", rank), func(th *kernel.Thread) {
			for s := 0; s < r.cfg.BSPSupersteps; s++ {
				th.Compute("bsp-compute", sim.Time(rng.ExpFloat64()*float64(r.cfg.BSPCompute)))
				in := make([]int64, vals)
				for j := range in {
					in[j] = bspIn(rank, s, j)
				}
				stepStart := th.Proc().Now()
				out, err := c.Allreduce(th, coll.SumInt64, coll.Int64Bytes(in))
				if rank != 0 {
					continue
				}
				if err == nil {
					for j, got := range coll.BytesInt64(out) {
						if want := bspWant(n, s, j); got != want {
							err = fmt.Errorf("load: superstep %d lane %d sum %d, want %d",
								s, j, got, want)
							break
						}
					}
				}
				now := th.Proc().Now()
				if now < r.mark || now > r.end {
					continue
				}
				if err != nil {
					r.res.Errors++
					continue
				}
				r.res.CollSteps++
				r.digest.Byte(0xCC)
				r.digest.Uint64(uint64(s))
				r.digest.Uint64(uint64(coll.BytesInt64(out)[0]))
				r.digest.Uint64(uint64(now - stepStart))
			}
		})
	}
}

// bspIn is lane j of rank's allreduce input at superstep s.
func bspIn(rank, s, j int) int64 { return int64(rank+1)*int64(s+1) + int64(j) }

// bspWant is lane j of the exact allreduce sum over n ranks at superstep
// s: the sum of bspIn(rank, s, j) for rank 0..n-1.
func bspWant(n, s, j int) int64 { return int64(n*(n+1))/2*int64(s+1) + int64(n)*int64(j) }

// seqInts returns 0..n-1.
func seqInts(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// OpName returns the display name of an op kind.
func OpName(kind int) string {
	if kind < 0 || kind >= numOps {
		return fmt.Sprintf("op(%d)", kind)
	}
	return opNames[kind]
}
