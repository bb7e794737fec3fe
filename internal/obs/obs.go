// Package obs is the continuous-telemetry plane of the Nectar simulation:
// where package trace answers questions after a run ends (spans, counters,
// histograms), obs answers them while the run is in flight.
//
// Three instruments, all default-off, nil-safe, and free when disabled:
//
//   - Sampler: a virtual-time poller that snapshots registered state
//     sources (HUB port queue depths and crossbar occupancy, transport
//     in-flight operations and retransmit windows, datalink flow-control
//     credits) on a fixed simulated-time period into ring-buffered time
//     series with automatic downsampling, exportable as CSV or JSON.
//
//   - FlightRecorder: a bounded ring of recent structured events (sends,
//     drops, link state changes, RTO expiries, crashes) recorded with zero
//     allocations, rendered as a human-readable post-mortem when a chaos
//     run fails, the stall watchdog fires, or Dump is called.
//
//   - Watchdog: a virtual-time stall detector — if in-flight operations
//     exist but the progress counter has not advanced over a check
//     interval, it invokes the stall callback (which typically dumps the
//     flight recorder).
//
// The pull model is what makes the disabled state free: components expose
// cheap accessors, and only an armed sampler ever calls them. A nil
// *Sampler, *FlightRecorder, or *Watchdog is valid and does nothing, so
// every layer can be instrumented unconditionally. Because the sampler and
// watchdog only read component state, enabling them never perturbs
// simulated time: a run with telemetry on is byte-identical to the same
// run with telemetry off (TestTelemetryDoesNotPerturbSimulation checks
// exactly this).
package obs
