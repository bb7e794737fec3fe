// Command nectar-fleet drives a fleet of independent Nectar replicas at
// saturation and reports aggregate throughput and latency. (How fast the
// simulator itself runs is bench/'s question, not this command's.)
//
// Each replica is one complete simulated Nectar system (its own engine,
// HUB, CABs, and software stacks) running the deterministic workload of
// internal/load under its own seed. Replicas share nothing, so the fleet
// shards them across GOMAXPROCS OS threads while every simulation stays
// single-threaded and deterministic: the same seed always produces the
// same per-replica digest, which -verify double-runs and compares (CI
// keys off the exit status).
//
// Results land in BENCH_fleet.json (override with -o).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/obs/slo"
	"repro/internal/sim"
	"repro/internal/trace"
)

// replicaReport is one replica's measured slice of the fleet.
type replicaReport struct {
	Seed      int64   `json:"seed"`
	Ops       int64   `json:"ops"`
	Errors    int64   `json:"errors"`
	Shed      int64   `json:"shed"`
	Bytes     int64   `json:"bytes"`
	CollSteps int64   `json:"coll_steps,omitempty"`
	Events    uint64  `json:"engine_events"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50us     float64 `json:"p50_us"`
	P99us     float64 `json:"p99_us"`
	SLOAlerts int64   `json:"slo_alerts,omitempty"`
	Digest    string  `json:"digest"`
}

type fleetReport struct {
	Config struct {
		Replicas   int     `json:"replicas"`
		CABs       int     `json:"cabs_per_replica"`
		Workers    int     `json:"workers_per_cab"`
		Mode       string  `json:"mode"`
		RatePerCAB float64 `json:"rate_per_cab,omitempty"`
		Zipf       float64 `json:"zipf_s,omitempty"`
		DurationMs float64 `json:"duration_ms"`
		BaseSeed   int64   `json:"base_seed"`
		Threads    int     `json:"gomaxprocs"`
		BSPSteps   int     `json:"bsp_supersteps,omitempty"`
	} `json:"config"`
	Replicas []replicaReport `json:"replicas"`
	Total    struct {
		Ops            int64   `json:"ops"`
		Errors         int64   `json:"errors"`
		Shed           int64   `json:"shed"`
		Bytes          int64   `json:"bytes"`
		CollSteps      int64   `json:"coll_steps"`
		Events         uint64  `json:"engine_events"`
		OpsPerSec      float64 `json:"ops_per_sec"`
		MBps           float64 `json:"mbps"`
		P50us          float64 `json:"p50_us"`
		P95us          float64 `json:"p95_us"`
		P99us          float64 `json:"p99_us"`
		MaxUs          float64 `json:"max_us"`
		WallSeconds    float64 `json:"wall_seconds"`
		EventsPerWallS float64 `json:"events_per_wall_sec"`
		SLOAlerts      int64   `json:"slo_alerts,omitempty"`
		Digest         string  `json:"digest"`
	} `json:"total"`
	Verified bool `json:"verified"`
}

func us(t sim.Time) float64 { return float64(t) / 1e3 }

// replicaRun holds one replica's raw results for aggregation.
type replicaRun struct {
	res    *load.Result
	events uint64
	alerts int64 // SLO alerts fired (with -slo)
}

func main() {
	replicas := flag.Int("replicas", runtime.GOMAXPROCS(0), "independent replicas to run")
	cabs := flag.Int("cabs", 8, "CABs per replica (single HUB)")
	workers := flag.Int("workers", 2, "closed-loop client threads per CAB")
	durMs := flag.Float64("duration", 20, "measured window per replica, simulated ms")
	mode := flag.String("mode", "closed", "arrival mode: closed or open")
	rate := flag.Float64("rate", 20000, "open-loop arrivals per CAB per simulated second")
	zipf := flag.Float64("zipf", 0, "zipf s parameter for destination skew (0 = uniform, else > 1)")
	seed := flag.Int64("seed", 1, "base seed; replica i runs seed+i")
	short := flag.Bool("short", false, "small quick run (CI smoke): 5ms windows")
	verify := flag.Bool("verify", false, "run every seed twice and fail on digest mismatch")
	bsp := flag.Int("bsp", 64, "add one collective-mix replica running this many BSP supersteps (0 disables)")
	out := flag.String("o", "BENCH_fleet.json", "output JSON path")
	listen := flag.String("listen", "", "serve live Prometheus metrics on this address while running (e.g. :9464)")
	sloOn := flag.Bool("slo", false, "arm the SLO engine on every replica (latency objectives per operation kind at -slobound); adds per-replica alert counts to the report and, with -listen, /slo and /slo/N status endpoints")
	sloBound := flag.Duration("slobound", 500*time.Microsecond, "SLO latency bound for -slo")
	latcap := flag.Int("latcap", 65536, "cap per-replica latency histogram memory at this many samples (deterministic decimation beyond it; 0 = unbounded)")
	flag.Parse()

	if *short {
		*durMs = 5
	}
	if *replicas < 1 {
		*replicas = 1
	}
	// The collective-mix replica runs the standard mix plus BSP supersteps
	// on the collective subsystem, so -verify also covers barrier/allreduce
	// traffic (including the HUB-multicast path) with its digest check.
	total := *replicas
	if *bsp > 0 {
		total++
	}

	cfg := load.Config{
		Workers:    *workers,
		Duration:   sim.Time(*durMs * float64(sim.Millisecond)),
		Warmup:     sim.Time(*durMs * float64(sim.Millisecond) / 10),
		RatePerCAB: *rate,
		ZipfS:      *zipf,
		LatencyCap: *latcap,
	}
	if *mode == "open" {
		cfg.Arrival = load.OpenLoop
	}

	// With -listen, each replica carries the continuous-telemetry plane
	// (metrics registry + sampler) and publishes a fresh exposition every
	// simulated millisecond; without it, replicas run bare as before.
	var live *liveFleet
	if *listen != "" {
		live = newLiveFleet(total, *seed)
		addr, err := obs.Serve(*listen, live)
		if err != nil {
			fmt.Fprintln(os.Stderr, "listen:", err)
			os.Exit(2)
		}
		fmt.Printf("fleet: live metrics on http://%s/metrics (per replica: /metrics/0..%d)\n",
			addr, total-1)
	}

	runReplica := func(idx int, s int64) replicaRun {
		var opts []core.Option
		if live != nil {
			opts = append(opts, core.WithMetrics(), core.WithSampler(), core.WithFlows(0))
		}
		if *sloOn {
			bound := sim.Time(sloBound.Nanoseconds())
			opts = append(opts, core.WithSLO(slo.Params{Objectives: []slo.Objective{
				{Name: "reqresp", Kind: slo.KindReqResp, Class: slo.AnyClass, LatencyBound: bound},
				{Name: "stream", Kind: slo.KindStream, Class: slo.AnyClass, LatencyBound: bound},
				{Name: "vmtp", Kind: slo.KindVMTP, Class: slo.AnyClass, LatencyBound: bound},
			}}))
		}
		sys := core.New(core.SingleHub(*cabs), opts...)
		c := cfg
		c.Seed = s
		if *bsp > 0 && idx == *replicas {
			// The collective replica models an application doing RPCs plus
			// BSP supersteps; the default mix's 16 KiB bulk streams would
			// saturate the hub and starve the collectives entirely.
			c.BSPSupersteps = *bsp
			c.Mix = load.Mix{ReqResp: 1}
		}
		if live != nil {
			labels := []obs.Label{
				{Key: "replica", Value: strconv.Itoa(idx)},
				{Key: "seed", Value: strconv.FormatInt(s, 10)},
			}
			c.TickEvery = liveTickEvery
			c.OnTick = func(tk load.Tick) {
				live.publish(idx, tk, sys.PromText(labels...))
				if sys.SLO != nil {
					live.publishSLO(idx, []byte(fmt.Sprintf("replica %d (seed %d) at %v\n%s",
						idx, s, tk.Now, sys.SLO.Text())))
				}
			}
		}
		res := load.Run(sys, c)
		out := replicaRun{res: res, events: sys.Eng.Executed()}
		if sys.SLO != nil {
			out.alerts = sys.SLO.AlertCount()
			if live != nil {
				live.publishSLO(idx, []byte(fmt.Sprintf("replica %d (seed %d) final\n%s",
					idx, s, sys.SLO.Text())))
			}
		}
		return out
	}

	// Shard replicas (and verification re-runs) across GOMAXPROCS
	// goroutines. Replica i's results land at index i, so aggregation
	// order is deterministic no matter how the shards interleave.
	rounds := 1
	if *verify {
		rounds = 2
	}
	runs := make([]replicaRun, total*rounds)
	var wg sync.WaitGroup
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	wallStart := time.Now()
	for i := range runs {
		i := i
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			idx := i % total
			runs[i] = runReplica(idx, *seed+int64(idx))
		}()
	}
	wg.Wait()
	wall := time.Since(wallStart)

	rep := &fleetReport{}
	rep.Config.Replicas = *replicas
	rep.Config.CABs = *cabs
	rep.Config.Workers = *workers
	rep.Config.Mode = *mode
	if *mode == "open" {
		rep.Config.RatePerCAB = *rate
	}
	rep.Config.Zipf = *zipf
	rep.Config.DurationMs = *durMs
	rep.Config.BaseSeed = *seed
	rep.Config.Threads = runtime.GOMAXPROCS(0)
	rep.Config.BSPSteps = *bsp

	mismatch := false
	merged := trace.NewHistogram("fleet op latency")
	combined := trace.NewDigest()
	for i := 0; i < total; i++ {
		r := runs[i]
		rr := replicaReport{
			Seed:      *seed + int64(i),
			Ops:       r.res.Ops,
			Errors:    r.res.Errors,
			Shed:      r.res.Shed,
			Bytes:     r.res.Bytes,
			CollSteps: r.res.CollSteps,
			Events:    r.events,
			OpsPerSec: r.res.OpsPerSec(),
			P50us:     us(r.res.Latency.Median()),
			P99us:     us(r.res.Latency.Quantile(0.99)),
			SLOAlerts: r.alerts,
			Digest:    fmt.Sprintf("%016x", r.res.Digest),
		}
		if *verify {
			twin := runs[total+i]
			if twin.res.Digest != r.res.Digest || twin.events != r.events {
				mismatch = true
				fmt.Fprintf(os.Stderr, "DETERMINISM FAILURE: seed %d produced digest %016x then %016x\n",
					rr.Seed, r.res.Digest, twin.res.Digest)
			}
		}
		rep.Replicas = append(rep.Replicas, rr)
		rep.Total.Ops += r.res.Ops
		rep.Total.Errors += r.res.Errors
		rep.Total.Shed += r.res.Shed
		rep.Total.Bytes += r.res.Bytes
		rep.Total.CollSteps += r.res.CollSteps
		rep.Total.Events += r.events
		rep.Total.SLOAlerts += r.alerts
		merged.Merge(r.res.Latency)
		// Fold per-replica digests in seed order: the combined digest is
		// independent of scheduling and of GOMAXPROCS.
		combined.Uint64(r.res.Digest)
	}
	// Replicas are concurrent machines: aggregate rate is total work over
	// one replica's measured window of simulated time.
	window := sim.Time(*durMs * float64(sim.Millisecond)).Seconds()
	if window > 0 {
		rep.Total.OpsPerSec = float64(rep.Total.Ops) / window
		rep.Total.MBps = float64(rep.Total.Bytes) / window / 1e6
	}
	rep.Total.P50us = us(merged.Median())
	rep.Total.P95us = us(merged.Quantile(0.95))
	rep.Total.P99us = us(merged.Quantile(0.99))
	rep.Total.MaxUs = us(merged.Max())
	rep.Total.WallSeconds = wall.Seconds()
	if wall > 0 {
		rep.Total.EventsPerWallS = float64(rep.Total.Events) * float64(rounds) / wall.Seconds()
	}
	rep.Total.Digest = fmt.Sprintf("%016x", combined)
	rep.Verified = *verify && !mismatch

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "encode:", err)
		os.Exit(2)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(2)
	}

	fmt.Printf("fleet: %d replicas x %d CABs (%s loop), %.0fms windows on %d threads\n",
		total, *cabs, *mode, *durMs, rep.Config.Threads)
	fmt.Printf("  %d ops (%d errors, %d shed), %.0f ops/s, %.1f MB/s aggregate\n",
		rep.Total.Ops, rep.Total.Errors, rep.Total.Shed, rep.Total.OpsPerSec, rep.Total.MBps)
	if rep.Total.CollSteps > 0 {
		fmt.Printf("  %d BSP supersteps in the collective-mix replica\n", rep.Total.CollSteps)
	}
	fmt.Printf("  latency p50 %.1fus  p95 %.1fus  p99 %.1fus  max %.1fus\n",
		rep.Total.P50us, rep.Total.P95us, rep.Total.P99us, rep.Total.MaxUs)
	if *sloOn {
		fmt.Printf("  slo: %d alert(s) across the fleet at bound %v\n", rep.Total.SLOAlerts, *sloBound)
	}
	fmt.Printf("  %d engine events in %.2fs wall = %.2fM events/s\n",
		rep.Total.Events*uint64(rounds), rep.Total.WallSeconds, rep.Total.EventsPerWallS/1e6)
	fmt.Printf("  fleet digest %s -> %s\n", rep.Total.Digest, *out)
	if *verify {
		if mismatch {
			fmt.Println("  VERIFY: FAILED — nondeterministic replica digests")
			os.Exit(1)
		}
		fmt.Println("  VERIFY: every seed reproduced its digest")
	}
}
