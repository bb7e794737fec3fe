package transport

import (
	"repro/internal/sim"
)

// Retransmission backoff. The original protocols retransmitted on a fixed
// interval; under a real outage (link failover, peer crash) every stalled
// sender then retries in lockstep, re-congesting the recovered path at the
// same instant. Retry waits instead grow exponentially per attempt, capped,
// with a small deterministic jitter hashed from the flow identity — runs
// stay byte-reproducible while concurrent senders de-correlate.

// backoffDoublings caps the exponential backoff at 8x the base wait.
const backoffDoublings = 3

// backoffWait returns the wait before giving up on retransmission round
// `attempt` (0 = the initial transmission, which always waits exactly
// base). The wait doubles per round up to 8x base, then jitter in
// (-wait/8, +wait/8] is applied.
func backoffWait(base sim.Time, attempt int, self, peer int, msgID uint32) sim.Time {
	if attempt <= 0 || base <= 0 {
		return base
	}
	d := base << min(attempt, backoffDoublings)
	span := int64(d / 4)
	if span > 0 {
		h := jitterHash(self, peer, msgID, attempt)
		d += sim.Time(int64(h%uint64(span))) - sim.Time(span/2)
	}
	return d
}

// jitterHash is FNV-1a over the flow identity — deterministic across runs,
// different across flows and attempts.
func jitterHash(self, peer int, msgID uint32, attempt int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range [4]uint64{uint64(self), uint64(peer), uint64(msgID), uint64(attempt)} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xFF
			h *= prime
		}
	}
	return h
}
