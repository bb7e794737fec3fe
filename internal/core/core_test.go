package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topo"
)

func TestSingleHubAssembly(t *testing.T) {
	sys := core.New(core.SingleHub(4))
	if sys.NumCABs() != 4 {
		t.Fatalf("CABs = %d", sys.NumCABs())
	}
	if len(sys.Net.Hubs()) != 1 {
		t.Fatalf("hubs = %d", len(sys.Net.Hubs()))
	}
	for i, st := range sys.CABs {
		if st.Board == nil || st.Kernel == nil || st.DL == nil || st.TP == nil {
			t.Fatalf("CAB %d stack incomplete", i)
		}
		if st.Board.ID() != i {
			t.Fatalf("CAB %d board id %d", i, st.Board.ID())
		}
	}
	if sys.CAB(2) != sys.CABs[2] {
		t.Fatal("CAB accessor mismatch")
	}
}

func TestZeroParamsNormalized(t *testing.T) {
	// A zero Params must be filled with defaults rather than producing a
	// broken system.
	sys := core.New(core.SingleHub(2), core.WithParams(core.Params{}))
	done := false
	sys.CAB(0).Kernel.Spawn("probe", func(th *kernel.Thread) {
		th.Sleep(100 * sim.Microsecond)
		done = true
	})
	sys.Run()
	if !done {
		t.Fatal("system with zero params did not run")
	}
	if sys.Params.Transport.Window == 0 || sys.Params.Transport.ReqTimeout == 0 {
		t.Fatal("transport params not normalized")
	}
	if sys.Params.Topo.HubPorts == 0 {
		t.Fatal("topo params not normalized")
	}
}

func TestMeshAndLineAssembly(t *testing.T) {
	mesh := core.New(core.Mesh(2, 3, 2))
	if len(mesh.Net.Hubs()) != 6 || mesh.NumCABs() != 12 {
		t.Fatalf("mesh: %d hubs, %d cabs", len(mesh.Net.Hubs()), mesh.NumCABs())
	}
	line := core.New(core.Line(4, 1))
	if len(line.Net.Hubs()) != 4 || line.NumCABs() != 4 {
		t.Fatalf("line: %d hubs, %d cabs", len(line.Net.Hubs()), line.NumCABs())
	}
}

func TestRecorderEnabled(t *testing.T) {
	p := core.DefaultParams()
	p.RecorderLimit = 50
	sys := core.New(core.SingleHub(2), core.WithParams(p))
	if sys.Board == nil {
		t.Fatal("recorder not created")
	}
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		sys.CAB(0).TP.SendDatagram(th, 1, 1, 0, []byte("x"))
	})
	sys.Run()
	if sys.Board.Count(obs.FCommand) == 0 {
		t.Fatal("recorder captured no HUB commands")
	}
}

func TestRunUntil(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	ticks := 0
	sys.CAB(0).Kernel.SpawnDaemon("ticker", func(th *kernel.Thread) {
		for {
			th.Sleep(sim.Millisecond)
			ticks++
		}
	})
	sys.RunUntil(10*sim.Millisecond + sim.Microsecond)
	if ticks < 9 || ticks > 10 {
		t.Fatalf("ticks = %d after 10ms", ticks)
	}
}

// Run returns at the last event that does anything: once a lone datagram
// has been delivered and its credit returned, nothing stays scheduled.
func TestRunEndsAtLastRealEvent(t *testing.T) {
	sys := core.New(core.SingleHub(2))
	rx := sys.CAB(1)
	mb := rx.Kernel.NewMailbox("rx", 4096)
	rx.TP.Register(1, mb)
	var delivered sim.Time
	rx.Kernel.SpawnDaemon("rx", func(th *kernel.Thread) {
		mb.Release(mb.Get(th))
		delivered = th.Proc().Now()
	})
	sys.CAB(0).Kernel.Spawn("tx", func(th *kernel.Thread) {
		sys.CAB(0).TP.SendDatagram(th, 1, 1, 0, []byte("x"))
	})
	end := sys.Run()
	if delivered == 0 {
		t.Fatal("datagram never delivered")
	}
	if end-delivered > 100*sim.Microsecond {
		t.Fatalf("Run returned at %v, %v after delivery at %v; want within 100us", end, end-delivered, delivered)
	}
	if n := sys.Eng.Pending(); n != 0 {
		t.Fatalf("%d events still pending after Run", n)
	}
}

func TestCustomTopoOptions(t *testing.T) {
	p := core.DefaultParams()
	p.Topo = topo.Options{HubPorts: 32}
	sys := core.New(core.SingleHub(30), core.WithParams(p)) // needs > 16 ports
	if sys.NumCABs() != 30 {
		t.Fatalf("CABs = %d", sys.NumCABs())
	}
	if sys.Net.Hub(0).NumPorts() != 32 {
		t.Fatalf("ports = %d", sys.Net.Hub(0).NumPorts())
	}
}

// The 1024-CAB 3-D torus must stay small: CAB memory is backed only where
// it is written, so a freshly built system holds no 1 MB data region and no
// protection table per CAB. Built eagerly it held about 1.6 GB.
func TestTorus1024HeapBounded(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys := core.New(core.Torus3D(4, 4, 8, 8), core.WithRouting(topo.PolicyAdaptive))
	runtime.GC()
	runtime.ReadMemStats(&after)
	const limit = 100 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > limit {
		t.Fatalf("1024-CAB torus holds %d MB of heap, want <= %d MB", grew>>20, limit>>20)
	}
	if sys.NumCABs() != 1024 {
		t.Fatalf("CABs = %d, want 1024", sys.NumCABs())
	}
	runtime.KeepAlive(sys)
}
