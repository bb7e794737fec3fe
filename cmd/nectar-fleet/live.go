package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/sim"
)

// liveFleet is the -listen endpoint: a snapshot of every running replica,
// scrapeable mid-run.
//
//	GET /metrics     fleet-wide progress (ops, errors, bytes, simulated
//	                 time) with one sample per replica — valid Prometheus
//	                 text exposition.
//	GET /metrics/N   replica N's full exposition: its trace.Registry plus
//	                 the latest sampler readings.
//	GET /slo         with -slo: every replica's SLO status and alert
//	                 stream, concatenated (plain text).
//	GET /slo/N       replica N's SLO view alone.
//
// Each replica renders its own exposition inside its single-threaded
// engine goroutine (a load.Config.OnTick callback) and publishes the bytes
// (obs.Page for /metrics/N, an atomic.Value for the rest); HTTP handlers
// only read published values, so the simulations stay deterministic and
// race-free.
type liveFleet struct {
	baseSeed int64
	pages    []obs.Page     // full per-replica exposition
	ticks    []atomic.Value // load.Tick: latest progress
	sloBlobs []atomic.Value // []byte: per-replica SLO status + alert stream
}

func newLiveFleet(replicas int, baseSeed int64) *liveFleet {
	return &liveFleet{
		baseSeed: baseSeed,
		pages:    make([]obs.Page, replicas),
		ticks:    make([]atomic.Value, replicas),
		sloBlobs: make([]atomic.Value, replicas),
	}
}

// publish installs replica i's freshly rendered exposition and progress.
func (lf *liveFleet) publish(i int, tk load.Tick, blob []byte) {
	lf.ticks[i].Store(tk)
	lf.pages[i].Publish(blob)
}

// publishSLO installs replica i's rendered SLO view.
func (lf *liveFleet) publishSLO(i int, blob []byte) {
	lf.sloBlobs[i].Store(blob)
}

func (lf *liveFleet) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	const prefix = "/metrics"
	path := strings.TrimSuffix(r.URL.Path, "/")
	if path == "" || path == prefix {
		w.Header().Set("Content-Type", obs.PromContentType)
		w.Write(lf.progressExposition())
		return
	}
	if rest, ok := strings.CutPrefix(path, prefix+"/"); ok {
		i, err := strconv.Atoi(rest)
		if err != nil || i < 0 || i >= len(lf.pages) {
			http.Error(w, fmt.Sprintf("replica index out of range 0..%d", len(lf.pages)-1), http.StatusNotFound)
			return
		}
		lf.pages[i].ServeHTTP(w, r)
		return
	}
	if path == "/slo" {
		var b bytes.Buffer
		published := 0
		for i := range lf.sloBlobs {
			blob, _ := lf.sloBlobs[i].Load().([]byte)
			if blob == nil {
				continue
			}
			published++
			b.Write(blob)
			b.WriteByte('\n')
		}
		if published == 0 {
			http.Error(w, "no replica has published an SLO view yet (is -slo set?)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(b.Bytes())
		return
	}
	if rest, ok := strings.CutPrefix(path, "/slo/"); ok {
		i, err := strconv.Atoi(rest)
		if err != nil || i < 0 || i >= len(lf.sloBlobs) {
			http.Error(w, fmt.Sprintf("replica index out of range 0..%d", len(lf.sloBlobs)-1), http.StatusNotFound)
			return
		}
		blob, _ := lf.sloBlobs[i].Load().([]byte)
		if blob == nil {
			http.Error(w, "replica has not published an SLO view yet (is -slo set?)", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(blob)
		return
	}
	http.NotFound(w, r)
}

// progressExposition renders per-replica progress, grouped by metric
// family so the whole page is one valid exposition.
func (lf *liveFleet) progressExposition() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# TYPE %s gauge\n", obs.PromName("fleet_replicas"))
	obs.WriteSample(&b, "fleet_replicas", float64(len(lf.ticks)))
	families := []struct {
		name string
		typ  string
		get  func(load.Tick) float64
	}{
		{"fleet_sim_time_seconds", "gauge", func(t load.Tick) float64 { return t.Now.Seconds() }},
		{"fleet_ops", "counter", func(t load.Tick) float64 { return float64(t.Ops) }},
		{"fleet_errors", "counter", func(t load.Tick) float64 { return float64(t.Errors) }},
		{"fleet_shed", "counter", func(t load.Tick) float64 { return float64(t.Shed) }},
		{"fleet_bytes", "counter", func(t load.Tick) float64 { return float64(t.Bytes) }},
	}
	for _, fam := range families {
		fmt.Fprintf(&b, "# TYPE %s %s\n", obs.PromName(fam.name), fam.typ)
		for i := range lf.ticks {
			tk, ok := lf.ticks[i].Load().(load.Tick)
			if !ok {
				continue // not published yet
			}
			obs.WriteSample(&b, fam.name, fam.get(tk),
				obs.Label{Key: "replica", Value: strconv.Itoa(i)},
				obs.Label{Key: "seed", Value: strconv.FormatInt(lf.baseSeed+int64(i), 10)})
		}
	}
	return b.Bytes()
}

// liveTickEvery is how often each replica publishes (simulated time).
const liveTickEvery = sim.Millisecond
