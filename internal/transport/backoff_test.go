package transport

import (
	"testing"

	"repro/internal/sim"
)

func TestBackoffAttemptZeroIsExactlyBase(t *testing.T) {
	base := 200 * sim.Microsecond
	// The initial transmission never pays growth or jitter — a fast-reject
	// retried immediately is not double-penalized by the backoff machinery.
	if d := backoffWait(base, 0, 3, 7, 42); d != base {
		t.Fatalf("attempt 0 wait = %v, want base %v", d, base)
	}
	if d := backoffWait(base, -1, 3, 7, 42); d != base {
		t.Fatalf("negative attempt wait = %v, want base %v", d, base)
	}
	if d := backoffWait(0, 5, 3, 7, 42); d != 0 {
		t.Fatalf("zero base wait = %v, want 0", d)
	}
}

func TestBackoffExponentialGrowthWithinJitterBounds(t *testing.T) {
	base := 100 * sim.Microsecond
	for attempt := 1; attempt <= 6; attempt++ {
		nominal := base << uint(attempt)
		if nominal > 8*base {
			nominal = 8 * base // the fixed cap
		}
		d := backoffWait(base, attempt, 1, 2, 9)
		// Jitter is drawn from (-nominal/8, +nominal/8].
		if d < nominal-nominal/8 || d > nominal+nominal/8 {
			t.Fatalf("attempt %d wait %v outside %v +/- 1/8", attempt, d, nominal)
		}
	}
}

func TestBackoffCapIsEightTimesBase(t *testing.T) {
	base := 100 * sim.Microsecond
	cap := 8 * base
	for attempt := 3; attempt <= 40; attempt++ {
		d := backoffWait(base, attempt, 0, 1, uint32(attempt))
		if d < cap-cap/8 || d > cap+cap/8 {
			t.Fatalf("attempt %d wait %v outside the 8x cap %v +/- 1/8", attempt, d, cap)
		}
	}
}

func TestBackoffDeterministicAcrossEqualSeeds(t *testing.T) {
	base := 150 * sim.Microsecond
	for attempt := 1; attempt <= 4; attempt++ {
		a := backoffWait(base, attempt, 2, 5, 77)
		b := backoffWait(base, attempt, 2, 5, 77)
		if a != b {
			t.Fatalf("attempt %d: equal flow identities gave %v vs %v", attempt, a, b)
		}
	}
}

func TestBackoffJitterDecorrelatesFlows(t *testing.T) {
	base := 100 * sim.Microsecond
	// Different flow identities (peer, msgID, attempt) must not all land on
	// the same instant — that is the lockstep-retry pathology the jitter
	// exists to break.
	seen := map[sim.Time]bool{}
	for peer := 0; peer < 8; peer++ {
		for msg := uint32(0); msg < 8; msg++ {
			seen[backoffWait(base, 3, 0, peer, msg)] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("64 distinct flows produced %d distinct waits", len(seen))
	}
}

func TestJitterHashStable(t *testing.T) {
	if jitterHash(1, 2, 3, 4) != jitterHash(1, 2, 3, 4) {
		t.Fatal("jitterHash not deterministic")
	}
	if jitterHash(1, 2, 3, 4) == jitterHash(1, 2, 3, 5) {
		t.Fatal("jitterHash ignored the attempt")
	}
}
