package flow

import "testing"

func wmap() *Weathermap {
	return &Weathermap{
		At:       1000,
		QueueCap: 1024,
		Ports: []PortWeather{
			{Hub: "hub1", Port: 0, Name: "hub1.p0", QueuePeak: 100, PktsIn: 5, PktsOut: 5},
			{Hub: "hub1", Port: 1, Name: "hub1.p1"}, // idle
			{Hub: "hub2", Port: 0, Name: "hub2.p0", QueuePeak: 900, Drops: 2, PktsIn: 40, Congested: true},
			{Hub: "hub2", Port: 1, Name: "hub2.p1", QueuePeak: 900, Drops: 1, PktsIn: 39},
		},
	}
}

func TestWeathermapHottest(t *testing.T) {
	w := wmap()
	h := w.Hottest()
	// Peak ties (hub2.p0 vs hub2.p1) break by drops.
	if h == nil || h.Name != "hub2.p0" {
		t.Fatalf("Hottest = %+v, want hub2.p0", h)
	}
	if (&Weathermap{Ports: []PortWeather{{Name: "idle"}}}).Hottest() != nil {
		t.Fatal("all-idle map should have no hottest port")
	}
	var nilMap *Weathermap
	if nilMap.Hottest() != nil {
		t.Fatal("nil map should have no hottest port")
	}
}
