package obs

import (
	"bytes"
	"fmt"

	"repro/internal/sim"
)

// Point is one sample of a time series.
type Point struct {
	At sim.Time
	V  int64
}

// Series is a bounded time series. When the ring fills, the series
// downsamples itself: it discards every other retained point and doubles
// its stride (recording only every stride-th offered sample from then on),
// so a series always covers the whole run at a resolution that fits its
// capacity. Compaction is deterministic: it depends only on the offered
// sample sequence, never on wall time.
type Series struct {
	name   string
	cap    int
	stride int // record every stride-th offered sample
	phase  int // offered samples since the last recorded one
	pts    []Point
	max    int64
	maxSet bool
}

func newSeries(name string, capacity int) *Series {
	return &Series{name: name, cap: capacity, stride: 1, pts: make([]Point, 0, capacity)}
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Max returns the largest value ever offered (including samples the
// stride skipped), or 0 for an empty series.
func (s *Series) Max() int64 { return s.max }

// add offers one sample. The stride decides whether it is retained; the
// max tracks every offer regardless.
func (s *Series) add(at sim.Time, v int64) {
	if !s.maxSet || v > s.max {
		s.max = v
		s.maxSet = true
	}
	if s.phase > 0 {
		s.phase--
		return
	}
	s.phase = s.stride - 1
	if len(s.pts) == s.cap {
		// Downsample in place: keep even-indexed points, double the
		// stride. Capacity is restored for another cap/2 samples at the
		// coarser resolution.
		keep := s.pts[:0]
		for i := 0; i < len(s.pts); i += 2 {
			keep = append(keep, s.pts[i])
		}
		s.pts = keep
		s.stride *= 2
		s.phase = s.stride - 1
	}
	s.pts = append(s.pts, Point{At: at, V: v})
}

// CSV renders the points as "series,at_ns,value" lines (no header),
// byte-deterministic for a deterministic run.
func (s *Series) CSV(b *bytes.Buffer) {
	for _, p := range s.pts {
		fmt.Fprintf(b, "%s,%d,%d\n", s.name, int64(p.At), p.V)
	}
}
