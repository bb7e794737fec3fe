package apps_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestVisionPipeline(t *testing.T) {
	cfg := apps.DefaultVisionConfig()
	cfg.Frames = 4
	sys := core.New(core.SingleHub(3 + cfg.DBNodes))
	res, err := apps.RunVision(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 4 {
		t.Fatalf("frames = %d", res.Frames)
	}
	if res.QueryLatency.Count() != 4*cfg.QueriesPerFrame {
		t.Fatalf("queries = %d, want %d", res.QueryLatency.Count(), 4*cfg.QueriesPerFrame)
	}
	if res.FeaturesFound == 0 {
		t.Fatal("the Sobel stage found no features in the synthetic scene")
	}
	if res.InsertsServed != res.FeaturesFound {
		t.Fatalf("inserts = %d, features = %d (lost inserts)", res.InsertsServed, res.FeaturesFound)
	}
	// Each query is a round trip between CABs; with CAB-resident tasks it
	// must be far below a millisecond plus the database service time.
	if res.QueryLatency.Median() > 2*sim.Millisecond {
		t.Fatalf("median query latency %v too high", res.QueryLatency.Median())
	}
	if res.FramesPerSec <= 0 {
		t.Fatal("no frame rate computed")
	}
	t.Logf("vision: %.1f frames/s, query p50=%v", res.FramesPerSec, res.QueryLatency.Median())
}

func TestVisionNeedsEnoughCABs(t *testing.T) {
	cfg := apps.DefaultVisionConfig()
	sys := core.New(core.SingleHub(2))
	if _, err := apps.RunVision(sys, cfg); err == nil {
		t.Fatal("undersized system should be rejected")
	}
}

func TestProductionSystem(t *testing.T) {
	cfg := apps.DefaultProductionConfig()
	cfg.MaxFirings = 50
	sys := core.New(core.SingleHub(1 + cfg.MatchNodes))
	res, err := apps.RunProduction(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tokens == 0 {
		t.Fatal("no tokens propagated")
	}
	if res.Firings == 0 {
		t.Fatal("no productions fired")
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	t.Logf("production: %d tokens, %d firings, cycle %v", res.Tokens, res.Firings, res.CycleTime)
}

func TestProductionDeterministic(t *testing.T) {
	run := func() (int, int) {
		cfg := apps.DefaultProductionConfig()
		cfg.MaxFirings = 30
		sys := core.New(core.SingleHub(1 + cfg.MatchNodes))
		res, err := apps.RunProduction(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Tokens, res.Firings
	}
	t1, f1 := run()
	t2, f2 := run()
	if t1 != t2 || f1 != f2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", t1, f1, t2, f2)
	}
}

func TestAnnealing(t *testing.T) {
	cfg := apps.DefaultAnnealConfig()
	cfg.Sweeps = 8
	sys := core.New(core.SingleHub(cfg.Procs))
	res := apps.RunAnnealing(sys, cfg)
	if res.InitialCut == 0 {
		t.Fatal("empty graph?")
	}
	if res.FinalCut >= res.InitialCut {
		t.Fatalf("annealing did not improve the cut: %d -> %d", res.InitialCut, res.FinalCut)
	}
	if res.Accepted == 0 {
		t.Fatal("no moves accepted")
	}
	t.Logf("annealing: cut %d -> %d, %d accepted, %v", res.InitialCut, res.FinalCut, res.Accepted, res.Elapsed)
}

func TestAnnealingReplicasConsistent(t *testing.T) {
	// Different process counts must produce a valid (improving) result;
	// consistency bugs between replicas show up as diverging cuts or
	// deadlock.
	for _, procs := range []int{1, 2, 4} {
		cfg := apps.DefaultAnnealConfig()
		cfg.Procs = procs
		cfg.Sweeps = 6
		sys := core.New(core.SingleHub(procs))
		res := apps.RunAnnealing(sys, cfg)
		if res.FinalCut >= res.InitialCut {
			t.Fatalf("procs=%d: cut %d -> %d", procs, res.InitialCut, res.FinalCut)
		}
	}
}

func TestTransactions(t *testing.T) {
	cfg := apps.DefaultTxnConfig()
	sys := core.New(core.SingleHub(1 + cfg.Managers))
	res, err := apps.RunTransactions(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed+res.Aborted != cfg.Transactions {
		t.Fatalf("committed %d + aborted %d != %d", res.Committed, res.Aborted, cfg.Transactions)
	}
	if res.Committed == 0 {
		t.Fatal("nothing committed")
	}
	// Each 2PC is (keys prepares + <=managers commits) request-response
	// round trips plus log forces: with Nectar's ~57us RTTs and 300us
	// prepares, commits land in the low milliseconds.
	if res.CommitLatency.Median() > 5*sim.Millisecond {
		t.Fatalf("median commit %v implausibly slow", res.CommitLatency.Median())
	}
	t.Logf("2PC: %d committed, %d aborted, commit p50=%v p95=%v",
		res.Committed, res.Aborted, res.CommitLatency.Median(), res.CommitLatency.Quantile(0.95))
}

func TestTransactionsConflictsAbort(t *testing.T) {
	// Two coordinators racing on overlapping keys must produce some
	// aborts while preserving exactly-once application of commits.
	cfg := apps.DefaultTxnConfig()
	cfg.Transactions = 20
	sys := core.New(core.SingleHub(1 + cfg.Managers))
	res, err := apps.RunTransactions(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The single-coordinator workload never self-conflicts (locks are
	// released at commit), so everything commits.
	if res.Aborted != 0 {
		t.Logf("aborts under single coordinator: %d (lock interleave)", res.Aborted)
	}
	if res.Committed == 0 {
		t.Fatal("no commits")
	}
}

func TestDSMCoherence(t *testing.T) {
	cfg := apps.DefaultDSMConfig()
	sys := core.New(core.SingleHub(1 + cfg.Workers))
	res, err := apps.RunDSM(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The coherence protocol must not lose a single increment of the
	// contended counter.
	if res.CounterFinal != res.CounterExpected {
		t.Fatalf("lost updates: counter %d, want %d", res.CounterFinal, res.CounterExpected)
	}
	if res.ReadFaults == 0 || res.WriteFaults == 0 {
		t.Fatalf("no faults? read=%d write=%d", res.ReadFaults, res.WriteFaults)
	}
	if res.Recalls == 0 {
		t.Fatal("write-write sharing produced no recalls")
	}
	t.Logf("dsm: rf=%d wf=%d inval=%d recalls=%d hits=%d fault p50=%v counter=%d",
		res.ReadFaults, res.WriteFaults, res.Invalidations, res.Recalls,
		res.LocalHits, res.FaultLatency.Median(), res.CounterFinal)
}

func TestDSMScalesWorkers(t *testing.T) {
	for _, workers := range []int{1, 2, 6} {
		cfg := apps.DefaultDSMConfig()
		cfg.Workers = workers
		sys := core.New(core.SingleHub(1 + workers))
		res, err := apps.RunDSM(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.CounterFinal != res.CounterExpected {
			t.Fatalf("workers=%d: counter %d, want %d", workers, res.CounterFinal, res.CounterExpected)
		}
	}
}

func TestDSMDeterministic(t *testing.T) {
	// Six workers and the mean fault latency: with several readers per page
	// the order of a write fault's invalidations shows in the timing.
	run := func() (uint64, int, sim.Time) {
		cfg := apps.DefaultDSMConfig()
		cfg.Workers = 6
		sys := core.New(core.SingleHub(1 + cfg.Workers))
		res, err := apps.RunDSM(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.CounterFinal, res.Recalls, res.FaultLatency.Mean()
	}
	c1, r1, l1 := run()
	for i := 0; i < 4; i++ {
		if c2, r2, l2 := run(); c1 != c2 || r1 != r2 || l1 != l2 {
			t.Fatalf("nondeterministic: (%d,%d,%v) vs (%d,%d,%v)", c1, r1, l1, c2, r2, l2)
		}
	}
}

func TestVisionPlacementMatters(t *testing.T) {
	// §6.3: "whether a message is allocated in CAB or node memory
	// influences ... how fast it can be sent" — database partitions on
	// the CABs answer queries much faster than on the Sun nodes.
	run := func(onNodes bool) sim.Time {
		cfg := apps.DefaultVisionConfig()
		cfg.Frames = 3
		cfg.DBOnNodes = onNodes
		sys := core.New(core.SingleHub(3 + cfg.DBNodes))
		res, err := apps.RunVision(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.QueryLatency.Median()
	}
	onCAB := run(false)
	onSun := run(true)
	t.Logf("query p50: CAB-resident DB %v, node-resident DB %v", onCAB, onSun)
	if onSun <= onCAB {
		t.Fatalf("node-resident DB (%v) not slower than CAB-resident (%v)", onSun, onCAB)
	}
}
