package load

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/flow"
	"repro/internal/sim"
	"repro/internal/topo"
)

func shortCfg(seed int64) Config {
	return Config{
		Seed:     seed,
		Warmup:   sim.Millisecond,
		Duration: 8 * sim.Millisecond,
	}
}

func TestClosedLoopGeneratesAllOpKinds(t *testing.T) {
	sys := core.New(core.SingleHub(4))
	res := Run(sys, shortCfg(1))
	if res.Ops == 0 {
		t.Fatal("closed-loop run completed no operations")
	}
	if res.Errors != 0 {
		t.Fatalf("healthy system produced %d errors", res.Errors)
	}
	for kind, c := range res.OpCounts {
		if c == 0 {
			t.Errorf("mix produced zero %s operations", [...]string{"reqresp", "stream", "vmtp"}[kind])
		}
	}
	if res.Latency.Count() != int(res.Ops) {
		t.Fatalf("latency samples %d != ops %d", res.Latency.Count(), res.Ops)
	}
}

// The same seed and config must reproduce the run exactly — digest, op
// count, byte count, and every latency sample — under either arrival mode
// and under zipfian destination skew.
func TestSameSeedSameDigest(t *testing.T) {
	for _, c := range []struct {
		arrival Arrival
		zipf    float64
	}{{ClosedLoop, 0}, {OpenLoop, 0}, {ClosedLoop, 1.5}} {
		cfg := shortCfg(42)
		cfg.Arrival = c.arrival
		cfg.ZipfS = c.zipf
		a := Run(core.New(core.SingleHub(4)), cfg)
		b := Run(core.New(core.SingleHub(4)), cfg)
		if a.Digest != b.Digest {
			t.Fatalf("%+v: same seed diverged: %x vs %x", c, a.Digest, b.Digest)
		}
		if a.Ops != b.Ops || a.Bytes != b.Bytes || a.Shed != b.Shed {
			t.Fatalf("%+v: same seed, different counts: %+v vs %+v", c, a, b)
		}
		sa, sb := a.Latency.Samples(), b.Latency.Samples()
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%+v: latency sample %d differs: %v vs %v", c, i, sa[i], sb[i])
			}
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := Run(core.New(core.SingleHub(4)), shortCfg(1))
	b := Run(core.New(core.SingleHub(4)), shortCfg(2))
	if a.Digest == b.Digest {
		t.Fatalf("different seeds produced identical digest %x", a.Digest)
	}
}

func TestOpenLoopRespectsRate(t *testing.T) {
	cfg := shortCfg(7)
	cfg.Arrival = OpenLoop
	cfg.RatePerCAB = 5000
	cfg.Mix = Mix{ReqResp: 1} // cheap ops: the system keeps up
	sys := core.New(core.SingleHub(4))
	res := Run(sys, cfg)
	if res.Ops == 0 {
		t.Fatal("open-loop run completed no operations")
	}
	// 4 CABs x 5000/s x 8ms = ~160 expected arrivals; allow wide
	// tolerance for exponential variance but catch runaway injection.
	if res.Ops > 400 {
		t.Fatalf("open loop wildly over rate: %d ops in 8ms at 5000/s/CAB", res.Ops)
	}
	if res.Errors != 0 {
		t.Fatalf("open-loop run produced %d errors", res.Errors)
	}
}

func TestOpenLoopShedsAtMaxOutstanding(t *testing.T) {
	cfg := shortCfg(9)
	cfg.Arrival = OpenLoop
	cfg.RatePerCAB = 500000 // far beyond capacity
	cfg.MaxOutstanding = 2
	cfg.Mix = Mix{Stream: 1}
	cfg.StreamBytes = 64 << 10 // slow ops so the backlog fills
	res := Run(core.New(core.SingleHub(4)), cfg)
	if res.Shed == 0 {
		t.Fatal("overdriven open loop shed nothing")
	}
}

// Zipf skew must bias each source toward its own hottest destination
// while remaining deterministic.
func TestZipfSkewsDestinations(t *testing.T) {
	pk := newPicker(workerSeed(5, 0, 0), 0, 8, Config{ZipfS: 1.8, Mix: DefaultMix()})
	counts := map[int]int{}
	for i := 0; i < 4000; i++ {
		d := pk.dst()
		if d == 0 {
			t.Fatal("picker chose self as destination")
		}
		counts[d]++
	}
	// Rank 0 for source 0 is CAB 1: it must dominate.
	for d := 2; d < 8; d++ {
		if counts[1] <= counts[d] {
			t.Fatalf("zipf hottest dst 1 (%d draws) not above dst %d (%d draws)",
				counts[1], d, counts[d])
		}
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	pk := newPicker(workerSeed(5, 3, 1), 3, 6, Config{Mix: DefaultMix()})
	seen := map[int]bool{}
	for i := 0; i < 2000; i++ {
		d := pk.dst()
		if d == 3 {
			t.Fatal("picker chose self as destination")
		}
		seen[d] = true
	}
	if len(seen) != 5 {
		t.Fatalf("uniform picker reached %d of 5 destinations", len(seen))
	}
}

func TestRunPanicsOnTinySystem(t *testing.T) {
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "load: ") {
			t.Fatalf("expected descriptive load panic, got %v", r)
		}
	}()
	Run(core.New(core.SingleHub(1)), Config{})
}

// The BSP workload must complete supersteps alongside the point-to-point
// mix, verify the global sums, and stay deterministic.
func TestBSPSuperstepsRunAndReplay(t *testing.T) {
	cfg := shortCfg(11)
	cfg.BSPSupersteps = 6
	a := Run(core.New(core.SingleHub(4)), cfg)
	if a.CollSteps == 0 {
		t.Fatal("BSP workload completed no supersteps")
	}
	if a.Errors != 0 {
		t.Fatalf("BSP run produced %d errors", a.Errors)
	}
	b := Run(core.New(core.SingleHub(4)), cfg)
	if a.Digest != b.Digest || a.CollSteps != b.CollSteps {
		t.Fatalf("BSP same-seed runs diverged: digest %x/%x steps %d/%d",
			a.Digest, b.Digest, a.CollSteps, b.CollSteps)
	}
	// The collective traffic must perturb the digest relative to a run
	// without it (it is folded in, not ignored).
	plain := Run(core.New(core.SingleHub(4)), shortCfg(11))
	if plain.Digest == a.Digest {
		t.Fatal("BSP supersteps did not affect the determinism digest")
	}
}

// Each BSP lane's expected sum matches a brute-force sum of the inputs.
func TestBSPWant(t *testing.T) {
	for _, n := range []int{2, 3, 8} {
		for s := 0; s < 3; s++ {
			for j := 0; j < 4; j++ {
				var sum int64
				for rank := 0; rank < n; rank++ {
					sum += bspIn(rank, s, j)
				}
				if got := bspWant(n, s, j); got != sum {
					t.Errorf("bspWant(%d, %d, %d) = %d, want %d", n, s, j, got, sum)
				}
			}
		}
	}
}

// Independent systems in one process share nothing: four seeds, the last
// running BSP supersteps beside an RPC-only mix, reproduce every digest and
// engine event count whether they run one after another or all at once on
// their own goroutines. Under go test -race, any state two systems share
// is reported as a race as well.
func TestReplicasShareNothing(t *testing.T) {
	type outcome struct {
		digest, events uint64
		steps          int64
	}
	run := func(i int) outcome {
		cfg := Config{Seed: int64(i + 1), Warmup: 500 * sim.Microsecond, Duration: 5 * sim.Millisecond}
		if i == 3 {
			cfg.BSPSupersteps = 64
			cfg.Mix = Mix{ReqResp: 1}
		}
		sys := core.New(core.SingleHub(8))
		res := Run(sys, cfg)
		return outcome{res.Digest, sys.Eng.Executed(), res.CollSteps}
	}
	var serial, concurrent [4]outcome
	for i := range serial {
		serial[i] = run(i)
	}
	var wg sync.WaitGroup
	for i := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = run(i)
		}()
	}
	wg.Wait()
	if serial[3].steps == 0 {
		t.Fatal("the BSP replica completed no supersteps")
	}
	for i := range serial {
		if serial[i] != concurrent[i] {
			t.Errorf("seed %d: serial %+v, concurrent %+v", i+1, serial[i], concurrent[i])
		}
	}
}

func TestCustomMixExcludesDisabledKinds(t *testing.T) {
	cfg := shortCfg(3)
	cfg.Mix = Mix{ReqResp: 1}
	res := Run(core.New(core.SingleHub(4)), cfg)
	if res.OpCounts[OpStream] != 0 || res.OpCounts[OpVMTP] != 0 {
		t.Fatalf("disabled op kinds ran: %v", res.OpCounts)
	}
	if res.OpCounts[OpReqResp] == 0 {
		t.Fatal("enabled op kind did not run")
	}
}

// torusShort is the bench torus's short shape: 64 CABs on a 2x2x2 torus,
// routed adaptively.
func torusShort(opts ...core.Option) *core.System {
	return core.New(core.Torus3D(2, 2, 2, 8), append(opts, core.WithRouting(topo.PolicyAdaptive))...)
}

// torusShortCfg is the bench torus's open-loop load, run for 5 ms.
func torusShortCfg() Config {
	return Config{
		Seed: 1, Arrival: OpenLoop, RatePerCAB: 2000,
		Mix:      Mix{ReqResp: 1},
		ReqBytes: 64, RespBytes: 64,
		Warmup: sim.Millisecond, Duration: 5 * sim.Millisecond,
	}
}

// The engine keeps no process beyond what the load needs: on the bench
// torus's short shape under its open-loop load, every live proc is a
// kernel thread, and each CAB holds at most the daemons it installed
// (transport service, three servers, arrivals) plus its operations in
// flight. A thread that outlived its operation would show here.
func TestOpenLoopTorusKeepsNoStrayProcs(t *testing.T) {
	sys := torusShort()
	cfg := torusShortCfg()
	cfg.TickEvery = 250 * sim.Microsecond
	ticks, peak := 0, 0
	cfg.OnTick = func(tk Tick) {
		ticks++
		total, inFlight := 0, 0
		for i, out := range tk.Outstanding {
			live, daemons := sys.CAB(i).Kernel.Threads()
			if live > daemons+out {
				t.Errorf("%v: CAB %d holds %d threads, want at most %d daemons + %d in flight", tk.Now, i, live, daemons, out)
			}
			total += live
			inFlight += out
		}
		if got := sys.Eng.Live(); got != total {
			t.Errorf("%v: engine holds %d live procs, its kernels %d threads", tk.Now, got, total)
		}
		peak = max(peak, inFlight)
	}
	res := Run(sys, cfg)
	if res.Ops == 0 || ticks < 20 || peak == 0 {
		t.Fatalf("%d ops, %d ticks, peak %d in flight: the check saw no load", res.Ops, ticks, peak)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("%d CABs: %d live and %d idle procs at the end, peak %d operations in flight, %d goroutines, stacks in use %.2f MB",
		sys.NumCABs(), sys.Eng.Live(), sys.Eng.Idle(), peak, runtime.NumGoroutine(), float64(ms.StackInuse)/(1<<20))
}

// Every layer gives back the packet memory it takes: after a fault-free run
// has drained, no frame is out of the system's store, and the only bodies
// out are the answers the transports keep for duplicate suppression. The
// shapes are the bench's rpc_1hub (closed loop, request-response and VMTP),
// run long enough that each server answers about 480 requests, so its
// 256-answer request-response table is full and evicting, and the bench
// torus's short shape (open loop, adaptive routing, multi-hop frames).
func TestDrainedStoreHoldsOnlyKeptAnswers(t *testing.T) {
	for _, tc := range []struct {
		name string
		sys  func() *core.System
		cfg  Config
	}{
		{"rpc_1hub", func() *core.System { return core.New(core.SingleHub(8)) }, Config{
			Seed: 1, Arrival: ClosedLoop, Workers: 2,
			Mix:      Mix{ReqResp: 3, VMTP: 1},
			ReqBytes: 64, RespBytes: 256,
			Warmup: sim.Millisecond, Duration: 40 * sim.Millisecond,
		}},
		{"torus", func() *core.System { return torusShort() }, torusShortCfg()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.sys()
			res := Run(sys, tc.cfg)
			sys.Run()
			answers := 0
			for i := range sys.NumCABs() {
				answers += sys.CAB(i).TP.AnswersHeld()
			}
			frames, bodies := sys.Net.Frames().Out()
			if res.Ops == 0 || res.Errors != 0 || answers == 0 {
				t.Fatalf("%d ops, %d errors, %d answers held: the check saw no load", res.Ops, res.Errors, answers)
			}
			if frames != 0 || bodies != answers {
				t.Fatalf("drained: %d frames and %d bodies out, %d answers held; want no frame, a body per answer",
					frames, bodies, answers)
			}
			t.Logf("%d ops, %d answers held", res.Ops, answers)
		})
	}
}

// Each datalink's route cache holds one route per destination its CAB sent
// to, and nothing after a flush. On the bench torus's short shape under its
// open-loop load, run until it drains, a CAB's cached routes are the
// distinct unicast destinations of its frames in the flow table, and its
// cached hops are those routes' lengths: adaptive routes are minimal, so
// each is as long as the BFS route.
func TestRouteCacheHoldsOneRoutePerDestination(t *testing.T) {
	sys := torusShort(core.WithFlows())
	res := Run(sys, torusShortCfg())
	sys.Run()
	if res.Ops == 0 || res.Errors != 0 {
		t.Fatalf("%d ops, %d errors: the check saw no load", res.Ops, res.Errors)
	}
	sentTo := make([]map[int]bool, sys.NumCABs())
	for i := range sentTo {
		sentTo[i] = make(map[int]bool)
	}
	for _, r := range sys.Flows.Records() {
		if r.Dst != flow.McastDst {
			sentTo[r.Src][int(r.Dst)] = true
		}
	}
	total := 0
	for i, dsts := range sentTo {
		want := 0
		for dst := range dsts {
			route, err := sys.Net.Route(i, dst)
			if err != nil {
				t.Fatal(err)
			}
			want += len(route)
		}
		dl := sys.CAB(i).DL
		if routes, hops := dl.CachedRoutes(); routes != len(dsts) || hops != want {
			t.Errorf("CAB %d caches %d routes of %d hops; it sent to %d CABs over %d hops", i, routes, hops, len(dsts), want)
		}
		total += len(dsts)
		dl.FlushRoutes()
		if routes, hops := dl.CachedRoutes(); routes != 0 || hops != 0 {
			t.Errorf("CAB %d caches %d routes of %d hops after FlushRoutes, want none", i, routes, hops)
		}
	}
	t.Logf("%d ops; %d routes cached over %d CABs", res.Ops, total, sys.NumCABs())
}
