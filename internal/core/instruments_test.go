package core_test

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run instead of comparing")

// TestInstrumentWiring pins what every instrument sees on a system with
// every instrumentation option armed: the whole metrics registry (every
// HUB, combining-engine, kernel, datalink, transport, prober and SLO
// metric, by name and value) against a golden, and the flight recorder,
// flow table and SLO engine fed by the CAB layers. Traffic crosses the
// two HUBs with one request, one datagram and one stream message.
func TestInstrumentWiring(t *testing.T) {
	sys := core.New(core.Mesh(1, 2, 2),
		core.WithMetrics(),
		core.WithObservatory(),
		core.WithFaultRecovery(),
		core.WithHubCombining(),
		core.WithOverloadControl(),
		core.WithSLO(slo.Params{Objectives: []slo.Objective{{
			Name: "rpc", Kind: slo.KindReqResp, Class: slo.AnyClass,
			LatencyBound: 200 * sim.Microsecond,
		}}}),
	)
	if sys.NumCABs() != 4 {
		t.Fatalf("CABs = %d, want 4", sys.NumCABs())
	}

	srv := sys.CAB(2)
	reqBox := srv.Kernel.NewMailbox("srv", 1<<16)
	srv.TP.Register(1, reqBox)
	srv.Kernel.Spawn("server", func(th *kernel.Thread) {
		req := reqBox.Get(th)
		data := append([]byte("ok:"), req.Bytes()...)
		reqBox.Release(req)
		srv.TP.Respond(th, req, data)
	})
	sink := sys.CAB(3)
	dgBox := sink.Kernel.NewMailbox("dg", 1<<16)
	sink.TP.Register(2, dgBox)
	stBox := sink.Kernel.NewMailbox("st", 1<<16)
	sink.TP.Register(3, stBox)
	var got [2]int
	sink.Kernel.Spawn("sink", func(th *kernel.Thread) {
		for i, mb := range []*kernel.Mailbox{dgBox, stBox} {
			m := mb.Get(th)
			got[i] = m.Len
			mb.Release(m)
		}
	})

	var resp []byte
	var errs [3]error
	sys.CAB(0).Kernel.Spawn("client", func(th *kernel.Thread) {
		resp, errs[0] = sys.CAB(0).TP.Request(th, 2, 1, 9, []byte("ping"))
	})
	sys.CAB(1).Kernel.Spawn("datagram", func(th *kernel.Thread) {
		errs[1] = sys.CAB(1).TP.SendDatagram(th, 3, 2, 0, make([]byte, 100))
	})
	sys.CAB(0).Kernel.Spawn("stream", func(th *kernel.Thread) {
		errs[2] = sys.CAB(0).TP.StreamSend(th, 3, 3, 4, make([]byte, 3000))
	})

	sys.RunUntil(5 * sim.Millisecond)
	sys.StopTelemetry()
	sys.StopProbers()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("operation %d: %v", i, err)
		}
	}
	if string(resp) != "ok:ping" || got != [2]int{100, 3000} {
		t.Fatalf("response %q, delivered %v; want \"ok:ping\", [100 3000]", resp, got)
	}

	if err := trace.Golden(filepath.Join("testdata", "instruments.golden"), []byte(sys.Reg.Text()), *update); err != nil {
		t.Fatal(err)
	}

	var sends, recvs int
	for _, ev := range sys.FR.Events() {
		if !strings.HasPrefix(ev.Where, "cab") || !strings.HasSuffix(ev.Where, ".dl") {
			continue
		}
		switch ev.Kind {
		case obs.FSend:
			sends++
		case obs.FRecv:
			recvs++
		}
	}
	if sends == 0 || recvs == 0 {
		t.Fatalf("flight recorder holds %d datalink sends and %d receives, want both > 0", sends, recvs)
	}
	if len(sys.Flows.Records()) == 0 {
		t.Fatal("flow table holds no records")
	}
	if st := sys.SLO.Status(); len(st) != 1 || st[0].Ops == 0 {
		t.Fatalf("SLO status %+v, want one objective with Ops > 0", st)
	}
}
