package load

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
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
			t.Errorf("mix produced zero %s operations", OpName(kind))
		}
	}
	if res.Latency.Count() != int(res.Ops) {
		t.Fatalf("latency samples %d != ops %d", res.Latency.Count(), res.Ops)
	}
	if got := res.OpsPerSec(); got <= 0 {
		t.Fatalf("OpsPerSec = %v", got)
	}
}

// The same seed and config must reproduce the run exactly — digest, op
// count, byte count, and every latency sample.
func TestSameSeedSameDigest(t *testing.T) {
	for _, arrival := range []Arrival{ClosedLoop, OpenLoop} {
		cfg := shortCfg(42)
		cfg.Arrival = arrival
		a := Run(core.New(core.SingleHub(4)), cfg)
		b := Run(core.New(core.SingleHub(4)), cfg)
		if a.Digest != b.Digest {
			t.Fatalf("arrival=%d: same seed diverged: %x vs %x", arrival, a.Digest, b.Digest)
		}
		if a.Ops != b.Ops || a.Bytes != b.Bytes || a.Shed != b.Shed {
			t.Fatalf("arrival=%d: same seed, different counts: %+v vs %+v", arrival, a, b)
		}
		sa, sb := a.Latency.Samples(), b.Latency.Samples()
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("arrival=%d: latency sample %d differs: %v vs %v", arrival, i, sa[i], sb[i])
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
