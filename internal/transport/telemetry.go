package transport

import (
	"repro/internal/obs/slo"
	"repro/internal/sim"
)

// Continuous-telemetry hooks (package obs). The transport exposes pull
// accessors for the virtual-time sampler and stall watchdog, and notes
// protocol anomalies (RTO expiries, retransmissions, peer death) into the
// flight recorder. Everything here is free when telemetry is off: the
// counters are plain integer fields maintained unconditionally, and a nil
// recorder's Note is a no-op.

// observe reports one finished reliable operation to the SLO engine.
// traceID is the root span id of the operation's span tree (0 untraced),
// letting the engine exemplar latency buckets with retained traces.
func (t *Transport) observe(kind slo.OpKind, class Class, start sim.Time, ok bool, traceID uint64) {
	if t.slo == nil {
		return
	}
	t.slo.Observe(kind, uint8(class), t.k.Engine().Now()-start, ok, traceID)
}

// opStart marks a reliable operation (request, stream message, VMTP
// transaction) entering flight.
func (t *Transport) opStart() {
	t.inflightOps++
}

// opDone marks a reliable operation leaving flight (success or failure —
// both are progress for the stall watchdog).
func (t *Transport) opDone() {
	t.inflightOps--
	t.completedOps++
}

// InFlight returns the number of reliable operations currently blocked in
// this transport (sampler/watchdog read-out).
func (t *Transport) InFlight() int64 { return t.inflightOps }

// Completed returns the number of reliable operations that have finished,
// counting failures: any return is progress (watchdog read-out).
func (t *Transport) Completed() int64 { return t.completedOps }

// WindowInFlight returns the total unacknowledged go-back-N packets
// across this transport's outgoing streams (sampler read-out). It reads a
// running sum, so a sampler tick costs the same however many connections
// the transport has opened.
func (t *Transport) WindowInFlight() int64 { return t.windowInFlight }

// setWindow sets a sender's count of unacknowledged packets and keeps the
// running sum WindowInFlight reads. Every write of a window goes through
// here, and streamsOut never drops a sender (Crash keeps it), so the sum
// always equals the sum over streamsOut.
func (t *Transport) setWindow(s *streamSender, n int) {
	t.windowInFlight += int64(n - s.window)
	s.window = n
}
