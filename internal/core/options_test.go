package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fiber"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value is %T, want string", r)
		}
		if !strings.HasPrefix(msg, "nectar: ") {
			t.Fatalf("panic %q does not carry the \"nectar: \" prefix", msg)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	f()
}

func TestNewValidatesTopology(t *testing.T) {
	mustPanic(t, "at least 1 CAB", func() { New(SingleHub(0)) })
	mustPanic(t, "exceed the 16 ports", func() { New(SingleHub(17)) })
	mustPanic(t, "at least 1x1", func() { New(Mesh(0, 3, 1)) })
	mustPanic(t, "at least 1 CAB per HUB", func() { New(Mesh(2, 2, 0)) })
	// 15 CABs + 2 inter-HUB links on the middle hubs of a 1x3 mesh > 16.
	mustPanic(t, "raise Params.Topo.HubPorts", func() { New(Mesh(1, 3, 15)) })
	mustPanic(t, "at least 1 HUB", func() { New(Line(0, 1)) })
	mustPanic(t, "use SingleHub, Mesh, Line, Torus, Torus3D, or FatTree", func() { New(Topology{}) })
	mustPanic(t, "at least 1x1x1", func() { New(Torus3D(2, 0, 2, 1)) })
	mustPanic(t, "at least 1 spine HUB", func() { New(FatTree(4, 0, 2)) })
	// A 4x4 torus HUB carries 4 ring links; 13 CABs + 4 links > 16 ports.
	mustPanic(t, "raise Params.Topo.HubPorts", func() { New(Torus(4, 4, 13)) })
	// A fat-tree spine needs one port per leaf.
	mustPanic(t, "raise Params.Topo.HubPorts", func() { New(FatTree(17, 1, 1)) })
}

// The one-byte HUB ID space (255 HUBs; ID 0 reserved) is enforced both at
// validation time in New and at build time in topo.Spec.Build.
func TestNewValidatesHubLimit(t *testing.T) {
	mustPanic(t, "exceed the 255-HUB limit", func() { New(Torus3D(8, 8, 4, 1)) })
}

func TestNewValidatesAgainstOverriddenPorts(t *testing.T) {
	// 17 CABs fit once the option raises the port count.
	p := DefaultParams()
	p.Topo.HubPorts = 32
	sys := New(SingleHub(17), WithParams(p))
	if sys.NumCABs() != 17 {
		t.Fatalf("NumCABs = %d, want 17", sys.NumCABs())
	}
}

// Only the known routing policies pass validation; "dimorder" is not one
// and is rejected like any other unknown name.
func TestNewValidatesRouting(t *testing.T) {
	mustPanic(t, `unknown routing policy "dimorder"`, func() { New(SingleHub(2), WithRouting("dimorder")) })
	mustPanic(t, `unknown routing policy "teleport"`, func() { New(SingleHub(2), WithRouting("teleport")) })
	for _, policy := range []topo.Policy{"", topo.PolicyBFS, topo.PolicyAdaptive} {
		New(SingleHub(2), WithRouting(policy))
	}
}

// normalize fills each zero field on its own: fields set beside a zero
// sentinel survive.
func TestNormalizeKeepsFieldsBesideZeroOnes(t *testing.T) {
	m := fiber.ErrorModel{BitErrorRate: 1e-6, Seed: 3}
	sys := New(SingleHub(2), WithParams(Params{
		Topo:      topo.Options{Errors: m},
		Transport: transport.Params{DisableAckFastPath: true, ReqTimeout: 7},
	}))
	got, def := sys.Params, DefaultParams()
	if got.Topo.Errors != m {
		t.Errorf("Topo.Errors = %+v, want %+v", got.Topo.Errors, m)
	}
	if !got.Transport.DisableAckFastPath {
		t.Error("Transport.DisableAckFastPath was reset")
	}
	if got.Transport.ReqTimeout != 7 {
		t.Errorf("Transport.ReqTimeout = %v, want 7ns", got.Transport.ReqTimeout)
	}
	if got.Topo.HubPorts != def.Topo.HubPorts || got.Transport.Window != def.Transport.Window {
		t.Errorf("zero fields not filled: HubPorts %d, Window %d", got.Topo.HubPorts, got.Transport.Window)
	}
}

func TestCABOutOfRangePanics(t *testing.T) {
	sys := New(SingleHub(2))
	mustPanic(t, "CAB(2) out of range", func() { sys.CAB(2) })
	mustPanic(t, "CAB(-1) out of range", func() { sys.CAB(-1) })
	if sys.CAB(1) == nil {
		t.Fatal("in-range CAB returned nil")
	}
}

func TestOptionsCompose(t *testing.T) {
	sys := New(SingleHub(2), WithMetrics(), WithTraceSpans())
	if sys.Reg == nil {
		t.Fatal("WithMetrics did not enable the registry")
	}
	if sys.Tr == nil {
		t.Fatal("WithTraceSpans did not enable the tracer")
	}
	if sys.Params.TraceSpans != DefaultTraceSpans {
		t.Fatalf("TraceSpans = %d, want %d", sys.Params.TraceSpans, DefaultTraceSpans)
	}
	// Options apply in order: WithParams replaces everything set before it.
	sys2 := New(SingleHub(2), WithMetrics(), WithParams(DefaultParams()))
	if sys2.Reg != nil {
		t.Fatal("WithParams after WithMetrics should have cleared the registry flag")
	}
	// ... and refinements after WithParams stick.
	sys3 := New(SingleHub(2), WithParams(DefaultParams()), WithMetrics())
	if sys3.Reg == nil {
		t.Fatal("WithMetrics after WithParams should have enabled the registry")
	}
}

func TestWithFaultRecoveryArmsProbersAndHeartbeats(t *testing.T) {
	sys := New(Mesh(2, 2, 1), WithFaultRecovery())
	if len(sys.Probers) == 0 {
		t.Fatal("WithFaultRecovery built no link probers on a multi-HUB mesh")
	}
	if sys.Params.Transport.HeartbeatInterval == 0 {
		t.Fatal("WithFaultRecovery left transport heartbeats disabled")
	}
	// Explicit tuning wins over the option's defaults.
	p := DefaultParams()
	p.Datalink.ProbeInterval = 999 * sim.Microsecond
	sys2 := New(Mesh(2, 2, 1), WithParams(p), WithFaultRecovery())
	if sys2.Params.Datalink.ProbeInterval != 999*sim.Microsecond {
		t.Fatalf("WithFaultRecovery clobbered an explicit ProbeInterval: %v",
			sys2.Params.Datalink.ProbeInterval)
	}
	sys.StopProbers()
	sys2.StopProbers()
}

// Every shape constructor promises the CAB count its built system has.
func TestTopologyNumCABsMatchesBuild(t *testing.T) {
	shapes := []Topology{
		SingleHub(3), Mesh(2, 2, 2), Line(3, 2),
		Torus(3, 3, 1), Torus3D(3, 3, 3, 1), FatTree(4, 2, 2),
	}
	for _, shape := range shapes {
		sys := New(shape)
		if sys.NumCABs() != shape.NumCABs() {
			t.Errorf("%v built %d CABs, topology promises %d",
				shape, sys.NumCABs(), shape.NumCABs())
		}
	}
}

func TestTopologyString(t *testing.T) {
	cases := map[string]Topology{
		"SingleHub(4)":           SingleHub(4),
		"Mesh(2x3, 1 CABs/HUB)":  Mesh(2, 3, 1),
		"Line(5 HUBs, 2 CAB":     Line(5, 2),
		"Torus(2x3, 1 CABs/HUB)": Torus(2, 3, 1),
		"Torus3D(3x3x3, 2 CABs":  Torus3D(3, 3, 3, 2),
		"FatTree(4 leaves, 2 sp": FatTree(4, 2, 1),
		"Topology(zero)":         {},
	}
	for want, topo := range cases {
		if got := topo.String(); !strings.Contains(got, want) {
			t.Errorf("String() = %q, want it to contain %q", got, want)
		}
	}
}

func TestNewValidatesTelemetryParams(t *testing.T) {
	bad := func(mutate func(p *Params)) func() {
		return func() {
			p := DefaultParams()
			mutate(&p)
			New(SingleHub(2), WithParams(p))
		}
	}
	mustPanic(t, "TraceSpans", bad(func(p *Params) { p.TraceSpans = -1 }))
	mustPanic(t, "RecorderLimit", bad(func(p *Params) { p.RecorderLimit = -1 }))

	// Zero stays valid everywhere: it is the documented "disabled" sentinel.
	sys := New(SingleHub(2))
	if sys.Sampler != nil || sys.FR != nil || sys.Flows != nil {
		t.Fatal("zero-valued telemetry params must leave every instrument disarmed")
	}
}

func TestWithFlowsAndObservatory(t *testing.T) {
	sys := New(SingleHub(2), WithFlows())
	if sys.Flows == nil || !sys.Params.Flows {
		t.Fatal("WithFlows did not arm the flow table")
	}
	obs := New(SingleHub(2), WithObservatory())
	if obs.Flows == nil || obs.Sampler == nil || obs.FR == nil {
		t.Fatal("WithObservatory should arm flows, sampler, and flight recorder")
	}
	obs.StopTelemetry()
}

// leafFields counts the independently settable leaves of a parameter type:
// structs are walked, and every other field (sim.Time, a bool, an array, a
// map, a slice) counts once.
func leafFields(t reflect.Type) int {
	if t.Kind() != reflect.Struct {
		return 1
	}
	n := 0
	for i := 0; i < t.NumField(); i++ {
		n += leafFields(t.Field(i).Type)
	}
	return n
}

// Params holds only knobs that two programs set differently; a cost or
// tuning value every program leaves at one value is a constant beside the
// code that reads it.
func TestParamsLeafCount(t *testing.T) {
	const want = 19
	if got := leafFields(reflect.TypeOf(Params{})); got != want {
		t.Fatalf("core.Params has %d leaf fields, want %d: a new field needs two programs, not counting "+
			"tests and examples, that set it to different values (otherwise make it a constant next to "+
			"the code that reads it)", got, want)
	}
}
