package flow

import "repro/internal/sim"

// PortWeather is one HUB port's congestion state in a weathermap snapshot.
type PortWeather struct {
	Hub  string
	Port int
	Name string // "hub4.p1"
	// QueueBytes is the input queue's occupancy at snapshot time;
	// QueuePeak its high-water mark over the run so far.
	QueueBytes int64
	QueuePeak  int64
	// Connected reports whether the output register is owned by an input
	// (a crossbar connection is established through it).
	Connected bool
	Drops     int64
	PktsIn    int64
	PktsOut   int64
	// Congested marks ports whose queue peak crossed the high-water mark.
	Congested bool
}

// Weathermap is a congestion snapshot of every HUB port. Build one with
// core.System.Weathermap.
type Weathermap struct {
	At sim.Time
	// QueueCap is the input queue capacity, the scale of every QueuePeak.
	QueueCap int64
	Ports    []PortWeather
}

// Hottest returns the port with the highest queue peak (first in snapshot
// order on ties; drops break exact peak ties first). Nil if the map is
// empty or no port saw traffic.
func (w *Weathermap) Hottest() *PortWeather {
	if w == nil {
		return nil
	}
	best := -1
	for i := range w.Ports {
		p := &w.Ports[i]
		if p.QueuePeak == 0 && p.Drops == 0 {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := &w.Ports[best]
		if p.QueuePeak > b.QueuePeak ||
			(p.QueuePeak == b.QueuePeak && p.Drops > b.Drops) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return &w.Ports[best]
}
