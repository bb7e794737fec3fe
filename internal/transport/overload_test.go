package transport_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fiber"
	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/sim"
	"repro/internal/transport"
)

// echoServer registers box 7 on the CAB and answers every request with its
// own body.
func echoServer(st *core.CABStack) {
	mb := st.Kernel.NewMailbox("server", 64*1024)
	st.TP.Register(7, mb)
	st.Kernel.SpawnDaemon("server", func(th *kernel.Thread) {
		for {
			req := mb.Get(th)
			st.TP.Respond(th, req, req.Bytes())
			mb.Release(req)
		}
	})
}

// TestOverloadPeerRejectTripsBreakerAndRecovers drives the full fast-reject
// round trip: a pressured receiver refuses bulk admissions with ProtoReject,
// eight consecutive rejects (the breaker's trip threshold) trip the sender's
// circuit breaker (the ninth op fails locally without touching the wire),
// and after the receiver drains and the jittered cooldown passes, a
// half-open probe succeeds and closes it.
func TestOverloadPeerRejectTripsBreakerAndRecovers(t *testing.T) {
	const trip = 8
	sys := core.New(core.SingleHub(2), core.WithOverloadControl())
	srv := sys.CAB(1)
	smb := srv.Kernel.NewMailbox("server", 1024)
	srv.TP.Register(7, smb)
	// Pre-fill past the 7/8 pressure threshold; src 99 marks the junk.
	if _, ok := smb.TryPut(make([]byte, 900), 99, 0); !ok {
		t.Fatal("could not pre-fill the server mailbox")
	}
	// The server sits on its hands while the client gets rejected, then
	// drains the junk and serves normally.
	srv.Kernel.SpawnDaemon("server", func(th *kernel.Thread) {
		th.Sleep(2 * sim.Millisecond)
		for {
			req := smb.Get(th)
			if req.Src == 99 {
				smb.Release(req)
				continue
			}
			srv.TP.Respond(th, req, req.Bytes())
			smb.Release(req)
		}
	})

	cl := sys.CAB(0)
	reqTimeout := core.DefaultParams().Transport.ReqTimeout
	var errs [trip + 1]error
	var rejectRTT sim.Time
	var probeErr error
	cl.Kernel.Spawn("client", func(th *kernel.Thread) {
		bulk := transport.SendOpts{Class: transport.ClassBulk}
		for i := range errs {
			start := th.Proc().Now()
			_, errs[i] = cl.TP.RequestOpts(th, 1, 7, 3, []byte("a"), bulk)
			if i == 0 {
				rejectRTT = th.Proc().Now() - start
			}
		}
		// Past the drain and the cooldown: the next op is the half-open
		// probe and must succeed against the now-healthy server.
		th.Sleep(8 * sim.Millisecond)
		_, probeErr = cl.TP.RequestOpts(th, 1, 7, 3, []byte("d"), bulk)
	})
	sys.Run()

	for i, err := range errs {
		var ov *transport.ErrOverload
		if !errors.As(err, &ov) {
			t.Fatalf("request %d: error %v, want ErrOverload", i, err)
		}
	}
	// The fast-reject must beat the timeout path: the sender learns in one
	// RTT, it does not also pay the request RTO (no double penalty).
	if rejectRTT >= reqTimeout {
		t.Fatalf("fast-reject took %v, not faster than the %v request timeout", rejectRTT, reqTimeout)
	}
	if sent, _ := srv.TP.OverloadRejects(); sent != trip {
		t.Fatalf("server sent %d rejects, want %d (the next op must fail at the sender)", sent, trip)
	}
	if _, recv := cl.TP.OverloadRejects(); recv != trip {
		t.Fatalf("client received %d rejects, want %d", recv, trip)
	}
	if got := srv.TP.OverloadShedsClass(transport.ClassBulk); got != trip {
		t.Fatalf("receiver-side bulk sheds = %d, want %d", got, trip)
	}
	if got := cl.TP.OverloadShedsClass(transport.ClassBulk); got != 1 {
		t.Fatalf("sender-side (circuit open) sheds = %d, want 1", got)
	}
	if trips := cl.TP.OverloadBreakerTrips(); trips != 1 {
		t.Fatalf("breaker trips = %d, want 1", trips)
	}
	if probeErr != nil {
		t.Fatalf("half-open probe failed: %v", probeErr)
	}
	if open := cl.TP.OverloadBreakerOpen(); open != 0 {
		t.Fatalf("breaker still open after successful probe (gauge %d)", open)
	}
}

func TestOverloadDeadlineExpiredFastFail(t *testing.T) {
	sys := core.New(core.SingleHub(2), core.WithOverloadControl())
	cl := sys.CAB(0)
	var err error
	var elapsed sim.Time
	cl.Kernel.Spawn("client", func(th *kernel.Thread) {
		th.Sleep(sim.Millisecond)
		start := th.Proc().Now()
		_, err = cl.TP.RequestOpts(th, 1, 7, 3, []byte("late"),
			transport.SendOpts{Deadline: 500 * sim.Microsecond})
		elapsed = th.Proc().Now() - start
	})
	sys.Run()
	var de *transport.ErrDeadlineExpired
	if !errors.As(err, &de) {
		t.Fatalf("error %v, want ErrDeadlineExpired", err)
	}
	if elapsed != 0 {
		t.Fatalf("dead-on-arrival op consumed %v of simulated time", elapsed)
	}
	if cl.TP.OverloadExpired() != 1 {
		t.Fatalf("expired counter = %d, want 1", cl.TP.OverloadExpired())
	}
}

func TestStreamDeadlineExpiresAtRetransmitPoint(t *testing.T) {
	params := core.DefaultParams()
	params.Transport.Overload = true
	// Damage every packet: no ack ever arrives, so the deadline check at
	// the retransmit queueing point must abandon the message.
	params.Topo.Errors = fiber.ErrorModel{BitErrorRate: 0.5, Seed: 3}
	sys := core.New(core.SingleHub(2), core.WithParams(params))
	rx := sys.CAB(1)
	mb := rx.Kernel.NewMailbox("in", 64*1024)
	rx.TP.Register(2, mb)
	var err error
	cl := sys.CAB(0)
	cl.Kernel.Spawn("sender", func(th *kernel.Thread) {
		err = cl.TP.StreamSendOpts(th, 1, 2, 5, make([]byte, 256),
			transport.SendOpts{Deadline: th.Proc().Now() + 300*sim.Microsecond})
	})
	sys.Run()
	var de *transport.ErrDeadlineExpired
	if !errors.As(err, &de) {
		t.Fatalf("error %v, want ErrDeadlineExpired", err)
	}
	if cl.TP.OverloadExpired() == 0 {
		t.Fatal("expired counter untouched")
	}
}

// TestStreamGivesUpAfterMaxRTOExpiries: with every packet damaged, a stream
// message is abandoned after exactly 64 consecutive RTO expiries.
func TestStreamGivesUpAfterMaxRTOExpiries(t *testing.T) {
	const maxExpiries = 64
	params := core.DefaultParams()
	params.Topo.Errors = fiber.ErrorModel{BitErrorRate: 0.5, Seed: 3}
	sys := core.New(core.SingleHub(2), core.WithParams(params))
	rx := sys.CAB(1)
	mb := rx.Kernel.NewMailbox("in", 64*1024)
	rx.TP.Register(2, mb)
	var err error
	cl := sys.CAB(0)
	cl.Kernel.Spawn("sender", func(th *kernel.Thread) {
		err = cl.TP.StreamSend(th, 1, 2, 5, make([]byte, 256))
	})
	sys.Run()
	var st *transport.ErrStreamTimeout
	if !errors.As(err, &st) {
		t.Fatalf("error %v, want ErrStreamTimeout", err)
	}
	if st.Expiries != maxExpiries {
		t.Fatalf("gave up after %d expiries, want exactly %d", st.Expiries, maxExpiries)
	}
	if got := cl.TP.Stats().RTOExpiries; got != maxExpiries {
		t.Fatalf("RTOExpiries stat = %d, want %d", got, maxExpiries)
	}
}

// TestOverloadDisabledMatchesAbsent pins the default-off contract: a system
// built with the subsystem explicitly disabled replays byte-identically to
// one that never mentions it.
func TestOverloadDisabledMatchesAbsent(t *testing.T) {
	cfg := load.Config{Seed: 5, Workers: 1, Warmup: sim.Millisecond, Duration: 4 * sim.Millisecond}
	absent := load.Run(core.New(core.SingleHub(3)), cfg)
	p := core.DefaultParams()
	p.Transport.Overload = false // explicitly disabled
	disabled := load.Run(core.New(core.SingleHub(3), core.WithParams(p)), cfg)
	if absent.Digest != disabled.Digest {
		t.Fatalf("digest %x with subsystem absent, %x explicitly disabled", absent.Digest, disabled.Digest)
	}
	if absent.Ops == 0 {
		t.Fatal("workload ran no operations")
	}
}

// TestOverloadArmedDeterministicReplay: with the subsystem armed and a
// classed, deadline-stamped workload, equal seeds replay byte-identically —
// WDRR scheduling, shedding, and breakers are all virtual-time-determined.
func TestOverloadArmedDeterministicReplay(t *testing.T) {
	run := func() *load.Result {
		sys := core.New(core.SingleHub(3), core.WithOverloadControl())
		cfg := load.Config{
			Seed: 11, Arrival: load.OpenLoop, RatePerCAB: 6000,
			Warmup: sim.Millisecond, Duration: 4 * sim.Millisecond,
			Classes: load.ClassMix{Critical: 10, Normal: 60, Bulk: 30},
		}
		cfg.ClassDeadlines[transport.ClassCritical] = 2 * sim.Millisecond
		cfg.ClassDeadlines[transport.ClassNormal] = sim.Millisecond
		cfg.ClassDeadlines[transport.ClassBulk] = 500 * sim.Microsecond
		return load.Run(sys, cfg)
	}
	a, b := run(), run()
	if a.Digest != b.Digest {
		t.Fatalf("armed replay digests differ: %x vs %x", a.Digest, b.Digest)
	}
	if a.Ops != b.Ops || a.Goodput != b.Goodput {
		t.Fatalf("armed replay diverged: ops %d/%d goodput %d/%d", a.Ops, b.Ops, a.Goodput, b.Goodput)
	}
	if a.Ops == 0 {
		t.Fatal("classed workload ran no operations")
	}
}
