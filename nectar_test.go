package nectar_test

// Facade tests: everything here goes through the public package surface
// (the repro root package, imported as nectar), the way a downstream user
// would.

import (
	"bytes"
	"fmt"
	"testing"

	"repro"
	"repro/internal/coll"
	"repro/internal/ipsc"
)

func TestFacadeQuickstart(t *testing.T) {
	sys := nectar.New(nectar.SingleHub(2))
	rx := sys.CAB(1)
	inbox := rx.Kernel.NewMailbox("inbox", 64<<10)
	rx.TP.Register(1, inbox)

	var got []byte
	var arrived, sent nectar.Time
	rx.Kernel.Spawn("receiver", func(th *nectar.Thread) {
		msg := inbox.Get(th)
		got = msg.Bytes()
		arrived = msg.Arrived
		inbox.Release(msg)
	})
	sys.CAB(0).Kernel.Spawn("sender", func(th *nectar.Thread) {
		sent = th.Proc().Now()
		if err := sys.CAB(0).TP.SendDatagram(th, 1, 1, 0, []byte("hello")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	sys.Run()
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if lat := arrived - sent; lat >= 30*nectar.Microsecond {
		t.Fatalf("latency %v breaks the paper's 30us goal", lat)
	}
}

func TestFacadeTopologies(t *testing.T) {
	mesh := nectar.New(nectar.Mesh(2, 2, 1))
	if mesh.NumCABs() != 4 {
		t.Fatalf("mesh CABs = %d", mesh.NumCABs())
	}
	line := nectar.New(nectar.Line(3, 2))
	if line.NumCABs() != 6 {
		t.Fatalf("line CABs = %d", line.NumCABs())
	}
	torus := nectar.New(nectar.Torus(3, 3, 1))
	if torus.NumCABs() != 9 {
		t.Fatalf("torus CABs = %d", torus.NumCABs())
	}
	torus3d := nectar.New(nectar.Torus3D(2, 2, 3, 1))
	if torus3d.NumCABs() != 12 {
		t.Fatalf("3-D torus CABs = %d", torus3d.NumCABs())
	}
	ft := nectar.New(nectar.FatTree(4, 2, 2))
	if ft.NumCABs() != 8 {
		t.Fatalf("fat tree CABs = %d", ft.NumCABs())
	}
}

// TestFacadeRoutingPolicies sends a corner-to-corner message on a 3-D
// torus under each routing policy through the public surface; every
// policy must deliver, and the default must equal explicit BFS.
func TestFacadeRoutingPolicies(t *testing.T) {
	for _, pol := range []nectar.RoutingPolicy{
		nectar.RoutingBFS, nectar.RoutingAdaptive,
	} {
		sys := nectar.New(nectar.Torus3D(2, 2, 2, 1), nectar.WithRouting(pol))
		last := sys.NumCABs() - 1
		rx := sys.CAB(last)
		inbox := rx.Kernel.NewMailbox("inbox", 64<<10)
		rx.TP.Register(1, inbox)
		var got []byte
		rx.Kernel.Spawn("receiver", func(th *nectar.Thread) {
			msg := inbox.Get(th)
			got = msg.Bytes()
			inbox.Release(msg)
		})
		sys.CAB(0).Kernel.Spawn("sender", func(th *nectar.Thread) {
			if err := sys.CAB(0).TP.SendDatagram(th, last, 1, 0, []byte("across")); err != nil {
				t.Errorf("%s: send: %v", pol, err)
			}
		})
		sys.Run()
		if string(got) != "across" {
			t.Fatalf("%s: got %q", pol, got)
		}
	}
}

func TestFacadeNectarineApp(t *testing.T) {
	sys := nectar.New(nectar.SingleHub(2))
	app := nectar.NewApp(sys)
	var echoed string
	app.NewCABTask("pong", 1, func(tc *nectar.TaskCtx) {
		m := tc.Recv()
		echoed = string(m.Data)
	})
	app.NewCABTask("ping", 0, func(tc *nectar.TaskCtx) {
		tc.Send("pong", 1, nectar.Bytes([]byte("through the facade")))
	})
	app.Run()
	if echoed != "through the facade" {
		t.Fatalf("echoed %q", echoed)
	}
}

func TestFacadeNodes(t *testing.T) {
	sys := nectar.New(nectar.SingleHub(2))
	a := nectar.NewNode(sys.CAB(0), "sunA")
	b := nectar.NewNode(sys.CAB(1), "sunB")
	_ = a
	if b.Name() != "sunB" || b.CABID() != 1 {
		t.Fatalf("node accessors: %q %d", b.Name(), b.CABID())
	}
}

func TestFacadeIPSC(t *testing.T) {
	sys := nectar.New(nectar.SingleHub(4))
	var sum int64
	nectar.RunIPSC(sys, 4, func(c *ipsc.Ctx) {
		s := c.Gisum(int64(c.Mynode()))
		if c.Mynode() == 0 {
			sum = s
		}
	})
	if sum != 6 {
		t.Fatalf("Gisum = %d", sum)
	}
}

func TestFacadeCollectives(t *testing.T) {
	sys := nectar.New(nectar.SingleHub(4))
	g := nectar.NewCollGroup(sys, 1, []int{0, 1, 2, 3}, coll.WithAlgorithm("tree"))
	sums := make([]int64, 4)
	for r := 0; r < 4; r++ {
		r := r
		c := g.Member(r)
		sys.CAB(r).Kernel.Spawn(fmt.Sprintf("member-%d", r), func(th *nectar.Thread) {
			out, err := c.Allreduce(th, nectar.SumInt64Op, nectar.Int64Bytes([]int64{int64(r + 1)}))
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			sums[r] = nectar.BytesInt64(out)[0]
		})
	}
	sys.Run()
	for r, s := range sums {
		if s != 10 {
			t.Fatalf("rank %d: allreduce sum %d, want 10", r, s)
		}
	}
}

func TestFacadeApplications(t *testing.T) {
	sys := nectar.New(nectar.SingleHub(6))
	cfg := nectar.DefaultVisionConfig()
	cfg.Frames = 2
	res, err := nectar.RunVision(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesPerSec <= 0 {
		t.Fatal("vision produced no frame rate")
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	exps := nectar.Experiments()
	if len(exps) < 15 {
		t.Fatalf("only %d experiments registered", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"E1", "E12", "F1", "A1", "X4"} {
		if !ids[want] {
			t.Fatalf("experiment %s missing", want)
		}
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() string {
		sys := nectar.New(nectar.SingleHub(3))
		rx := sys.CAB(0)
		mb := rx.Kernel.NewMailbox("in", 1<<20)
		rx.TP.Register(1, mb)
		var log bytes.Buffer
		rx.Kernel.SpawnDaemon("rx", func(th *nectar.Thread) {
			for {
				msg := mb.Get(th)
				fmt.Fprintf(&log, "%d@%v;", msg.Src, msg.Arrived)
				mb.Release(msg)
			}
		})
		for i := 1; i < 3; i++ {
			st := sys.CAB(i)
			st.Kernel.Spawn("tx", func(th *nectar.Thread) {
				for j := 0; j < 4; j++ {
					st.TP.StreamSend(th, 0, 1, 0, make([]byte, 500))
				}
			})
		}
		sys.Run()
		return log.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic:\n%s\nvs\n%s", a, b)
	}
}
