package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/fleet"
	"hdface/internal/hdc"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/online"
	"hdface/internal/registry"
	"hdface/internal/serve"
)

// FleetScalePoint is one replica-count measurement in BENCH_fleet.json.
type FleetScalePoint struct {
	Replicas  int     `json:"replicas"`
	Clients   int     `json:"clients"`
	Requests  int     `json:"requests"`
	ReqPerSec float64 `json:"req_per_sec"`
	P50LatMS  float64 `json:"p50_latency_ms"`
	P99LatMS  float64 `json:"p99_latency_ms"`
}

// FleetAvailability records the killed-replica run.
type FleetAvailability struct {
	Replicas   int     `json:"replicas"`
	Requests   int     `json:"requests"`
	KilledAt   int     `json:"killed_at_request"`
	Failed     int     `json:"failed"`
	ZeroFailed bool    `json:"zero_failed"`
	P99LatMS   float64 `json:"p99_latency_ms"`
}

// FleetDriftRun summarises one drift-recovery stream (fleet or single).
type FleetDriftRun struct {
	Trainers    int     `json:"trainers"`
	PreDriftAcc float64 `json:"pre_drift_acc"`
	DipAcc      float64 `json:"dip_acc"`
	TailAcc     float64 `json:"tail_acc"`
	MergeRounds int     `json:"merge_rounds"`
	Adoptions   int64   `json:"adoptions"`
}

// FleetBenchReport is the BENCH_fleet.json schema.
type FleetBenchReport struct {
	Schema       string            `json:"schema"`
	D            int               `json:"d"`
	NumCPU       int               `json:"num_cpu"`
	Scaling      []FleetScalePoint `json:"scaling"`
	Availability FleetAvailability `json:"availability"`
	// Drift: the same prequential drift stream run through a fleet of
	// trainers with split feedback + CRDT merge, and through one trainer
	// seeing every sample, merged at the same cadence.
	StreamLen  int           `json:"stream_len"`
	DriftAt    int           `json:"drift_at"`
	MergeEvery int           `json:"merge_every"`
	TailLen    int           `json:"tail_len"`
	Fleet      FleetDriftRun `json:"fleet"`
	Single     FleetDriftRun `json:"single"`
	// AccGap is |fleet tail accuracy - single tail accuracy|; the merge
	// is proven lossless when it stays within Epsilon.
	AccGap             float64 `json:"acc_gap"`
	Epsilon            float64 `json:"epsilon"`
	MergeMatchesSingle bool    `json:"merge_matches_single"`
}

// fleetReplicaSet boots n serve daemons from one snapshot and returns
// their front servers (Close one to kill a replica; Close is idempotent,
// so the shutdown func stays safe afterwards) plus a shutdown func.
func fleetReplicaSet(snap []byte, n, workers int) ([]*httptest.Server, func(), error) {
	var servers []*httptest.Server
	var closers []func()
	shutdown := func() {
		for _, c := range closers {
			c()
		}
	}
	for i := 0; i < n; i++ {
		p, err := hdface.LoadSnapshot(bytes.NewReader(snap))
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		p.SetWorkers(workers)
		s, err := serve.New(serve.Config{Pipeline: p, MaxBatch: 4, MaxQueue: 256})
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		ts := httptest.NewServer(s.Handler())
		servers = append(servers, ts)
		closers = append(closers, func() { ts.Close(); s.Close() })
	}
	return servers, shutdown, nil
}

func replicaURLs(servers []*httptest.Server) []string {
	urls := make([]string, len(servers))
	for i, ts := range servers {
		urls[i] = ts.URL
	}
	return urls
}

// FleetBenchData runs the fleet benchmark and returns the report. It
// errors when the availability run loses a client request or the merged
// fleet's accuracy falls outside epsilon of the single trainer's.
func FleetBenchData(o Options) (*FleetBenchReport, error) {
	o = o.withDefaults()
	d, win := 2048, 48
	requests, clients := 192, 8
	replicaCounts := []int{1, 2, 4}
	if o.Quick {
		d, win = 1024, 32
		requests, clients = 64, 4
		replicaCounts = []int{1, 2}
	}

	// One trained pipeline, snapshotted; every replica loads the same
	// bytes so scores are byte-identical across the fleet.
	r := hv.NewRNG(o.Seed ^ 0xf1ee)
	var imgs []*imgproc.Image
	var labels []int
	for i := 0; i < 16; i++ {
		if i%2 == 0 {
			imgs = append(imgs, dataset.RenderFace(win, win, dataset.Emotion(r.Intn(7)), r))
			labels = append(labels, 1)
		} else {
			imgs = append(imgs, dataset.RenderNonFace(win, win, r))
			labels = append(labels, 0)
		}
	}
	cfg := hdface.Config{D: d, Seed: o.Seed, Workers: 1, WorkingSize: win, Stride: 3}
	p := hdface.New(cfg)
	if err := p.Fit(imgs, labels, 2); err != nil {
		return nil, fmt.Errorf("fleetbench: %w", err)
	}
	var snap bytes.Buffer
	if err := p.SaveSnapshot(&snap); err != nil {
		return nil, fmt.Errorf("fleetbench: %w", err)
	}
	snapBytes := snap.Bytes()
	var probe bytes.Buffer
	if err := imgs[0].WritePGM(&probe); err != nil {
		return nil, fmt.Errorf("fleetbench: %w", err)
	}
	probeBytes := probe.Bytes()

	report := &FleetBenchReport{
		Schema: "hdface-bench-fleet/v1",
		D:      d,
		NumCPU: runtime.NumCPU(),
	}

	routerCfg := func(urls []string) fleet.Config {
		return fleet.Config{
			Replicas:      urls,
			ProbeInterval: 25 * time.Millisecond,
			RetryBackoff:  time.Millisecond,
			MaxAttempts:   4,
			Seed:          o.Seed,
		}
	}

	// ---- Scaling: req/sec and p99 vs replica count ----------------------
	for _, n := range replicaCounts {
		servers, shutdown, err := fleetReplicaSet(snapBytes, n, 1)
		if err != nil {
			return nil, fmt.Errorf("fleetbench: %w", err)
		}
		router, err := fleet.New(routerCfg(replicaURLs(servers)))
		if err != nil {
			shutdown()
			return nil, fmt.Errorf("fleetbench: %w", err)
		}
		rt := httptest.NewServer(router.Handler())

		lats := make([]time.Duration, requests)
		var failed atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < requests; i += clients {
					t0 := time.Now()
					resp, err := http.Post(rt.URL+"/predict", "image/x-portable-graymap", bytes.NewReader(probeBytes))
					if err != nil {
						failed.Add(1)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						failed.Add(1)
						continue
					}
					lats[i] = time.Since(t0)
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(start)
		rt.Close()
		router.Close()
		shutdown()
		if failed.Load() != 0 {
			return nil, fmt.Errorf("fleetbench: scaling run with %d replicas lost %d requests", n, failed.Load())
		}
		var ok []time.Duration
		for _, l := range lats {
			if l > 0 {
				ok = append(ok, l)
			}
		}
		sort.Slice(ok, func(a, b int) bool { return ok[a] < ok[b] })
		pct := func(q float64) float64 {
			return float64(ok[int(q*float64(len(ok)-1))].Nanoseconds()) / 1e6
		}
		report.Scaling = append(report.Scaling, FleetScalePoint{
			Replicas:  n,
			Clients:   clients,
			Requests:  requests,
			ReqPerSec: float64(len(ok)) / wall.Seconds(),
			P50LatMS:  pct(0.50),
			P99LatMS:  pct(0.99),
		})
	}

	// ---- Availability: kill a replica mid-load --------------------------
	{
		servers, shutdown, err := fleetReplicaSet(snapBytes, 2, 1)
		if err != nil {
			return nil, fmt.Errorf("fleetbench: %w", err)
		}
		defer shutdown()
		router, err := fleet.New(routerCfg(replicaURLs(servers)))
		if err != nil {
			return nil, fmt.Errorf("fleetbench: %w", err)
		}
		defer router.Close()
		rt := httptest.NewServer(router.Handler())
		defer rt.Close()

		killAt := requests / 2
		var done atomic.Int64
		var killOnce sync.Once
		var failed atomic.Int64
		lats := make([]time.Duration, requests)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < requests; i += clients {
					if int(done.Add(1)) == killAt {
						// A hard kill: the listener goes away and new
						// connections are refused, not erroring softly.
						killOnce.Do(servers[0].Close)
					}
					t0 := time.Now()
					resp, err := http.Post(rt.URL+"/predict", "image/x-portable-graymap", bytes.NewReader(probeBytes))
					if err != nil {
						failed.Add(1)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						failed.Add(1)
						continue
					}
					lats[i] = time.Since(t0)
				}
			}(c)
		}
		wg.Wait()
		var ok []time.Duration
		for _, l := range lats {
			if l > 0 {
				ok = append(ok, l)
			}
		}
		sort.Slice(ok, func(a, b int) bool { return ok[a] < ok[b] })
		report.Availability = FleetAvailability{
			Replicas:   2,
			Requests:   requests,
			KilledAt:   killAt,
			Failed:     int(failed.Load()),
			ZeroFailed: failed.Load() == 0,
			P99LatMS:   float64(ok[int(0.99*float64(len(ok)-1))].Nanoseconds()) / 1e6,
		}
		if !report.Availability.ZeroFailed {
			return nil, fmt.Errorf("fleetbench: %d client requests failed with a killed replica", failed.Load())
		}
	}

	// ---- Drift recovery: split feedback + CRDT merge vs one trainer -----
	preDrift, postDrift, mergeEvery, tail := 240, 480, 30, 120
	if o.Quick {
		preDrift, postDrift, mergeEvery, tail = 120, 280, 30, 80
	}
	report.StreamLen = preDrift + postDrift
	report.DriftAt = preDrift
	report.MergeEvery = mergeEvery
	report.TailLen = tail
	report.Epsilon = 0.02

	poolN := 48
	if o.Quick {
		poolN = 32
	}
	var faceFeats, nonFeats []*hv.Vector
	for i := 0; i < poolN; i++ {
		faceFeats = append(faceFeats, p.Feature(dataset.RenderFace(win, win, dataset.Emotion(r.Intn(7)), r)))
		nonFeats = append(nonFeats, p.Feature(dataset.RenderNonFace(win, win, r)))
	}

	runStream := func(nTrainers int) (FleetDriftRun, error) {
		run := FleetDriftRun{Trainers: nTrainers}
		regs := make([]*registry.Registry, nTrainers)
		trainers := make([]*online.Trainer, nTrainers)
		for i := range trainers {
			reg, err := registry.Open("", 0)
			if err != nil {
				return run, err
			}
			id, err := reg.Put(cfg, p.Model().Clone())
			if err != nil {
				return run, err
			}
			if err := reg.Promote(id); err != nil {
				return run, err
			}
			tr, err := online.New(online.Config{
				Registry: reg, Pipe: cfg,
				Replica: fmt.Sprintf("r%d", i), DeltaOnly: true,
				// Adoption stays ungated: the bench isolates merge-path
				// accuracy, and the gate is exercised elsewhere.
				HoldoutEvery: 1 << 30,
				WindowSize:   32,
				Opts:         hdc.TrainOpts{Seed: o.Seed ^ 0xf1e7},
			})
			if err != nil {
				return run, err
			}
			defer tr.Close()
			regs[i], trainers[i] = reg, tr
		}
		merger := online.NewMerger()
		mergeRound := func() error {
			base, err := regs[0].Live().Model()
			if err != nil {
				return err
			}
			fp := base.Fingerprint()
			for _, tr := range trainers {
				if dl := tr.Delta(); dl != nil {
					merger.Offer(dl)
				}
			}
			merged, _ := merger.Bundle(fp)
			if merged == nil {
				return nil
			}
			cand, err := online.ApplyDelta(base, merged, 1, o.Seed^fp)
			if err != nil {
				return err
			}
			for _, tr := range trainers {
				if _, _, err := tr.Adopt(cfg, cand); err != nil {
					return err
				}
				run.Adoptions++
			}
			run.MergeRounds++
			return nil
		}

		sr := hv.NewRNG(o.Seed ^ 0xd1f7) // same stream for every run
		correct, tailCorrect, preCorrect := 0, 0, 0
		dip, window, windowN := 1.0, 0, 0
		for i := 0; i < report.StreamLen; i++ {
			isFace := sr.Intn(2) == 1
			var f *hv.Vector
			if isFace {
				f = faceFeats[sr.Intn(len(faceFeats))]
			} else {
				f = nonFeats[sr.Intn(len(nonFeats))]
			}
			label := 0
			if isFace {
				label = 1
			}
			if i >= preDrift {
				label = 1 - label
			}
			// Prequential: predict with the fleet's live model, then feed
			// the sample to one trainer — split round-robin across the
			// fleet, so no single accumulator sees the whole stream.
			live, err := regs[0].Live().Model()
			if err != nil {
				return run, err
			}
			if live.Predict(f) == label {
				correct++
				window++
				if i < preDrift {
					preCorrect++
				}
				if i >= report.StreamLen-tail {
					tailCorrect++
				}
			}
			windowN++
			trainers[i%nTrainers].Step(online.Sample{Feature: f, Label: label})
			if (i+1)%mergeEvery == 0 {
				if err := mergeRound(); err != nil {
					return run, err
				}
				if acc := float64(window) / float64(windowN); i >= preDrift && acc < dip {
					dip = acc
				}
				window, windowN = 0, 0
			}
		}
		run.PreDriftAcc = float64(preCorrect) / float64(preDrift)
		run.DipAcc = dip
		run.TailAcc = float64(tailCorrect) / float64(tail)
		return run, nil
	}

	fleetN := 2
	if !o.Quick {
		fleetN = 4
	}
	var err error
	if report.Fleet, err = runStream(fleetN); err != nil {
		return nil, fmt.Errorf("fleetbench: fleet stream: %w", err)
	}
	if report.Single, err = runStream(1); err != nil {
		return nil, fmt.Errorf("fleetbench: single stream: %w", err)
	}
	report.AccGap = report.Fleet.TailAcc - report.Single.TailAcc
	if report.AccGap < 0 {
		report.AccGap = -report.AccGap
	}
	report.MergeMatchesSingle = report.AccGap <= report.Epsilon
	if !report.MergeMatchesSingle {
		return nil, fmt.Errorf("fleetbench: merged fleet tail accuracy %.3f vs single trainer %.3f (gap %.3f > %.2f)",
			report.Fleet.TailAcc, report.Single.TailAcc, report.AccGap, report.Epsilon)
	}
	return report, nil
}

// FleetBench measures the fault-tolerant serving tier end to end:
// throughput and p99 as replicas are added behind the router, client-side
// availability while a replica is killed mid-load, and the accuracy cost
// of learning from feedback split across the fleet and merged by bundling
// (none, within epsilon). Writes BENCH_fleet.json.
func FleetBench(w io.Writer, o Options) error {
	section(w, "serving fleet benchmark")
	report, err := FleetBenchData(o)
	if err != nil {
		return err
	}
	for _, s := range report.Scaling {
		fmt.Fprintf(w, "replicas=%d  %6.1f req/s  p50=%.1fms p99=%.1fms\n",
			s.Replicas, s.ReqPerSec, s.P50LatMS, s.P99LatMS)
	}
	a := report.Availability
	fmt.Fprintf(w, "kill-run: %d requests, replica killed at #%d, failed=%d (zero_failed=%v) p99=%.1fms\n",
		a.Requests, a.KilledAt, a.Failed, a.ZeroFailed, a.P99LatMS)
	fmt.Fprintf(w, "drift: fleet(n=%d) pre=%.3f dip=%.3f tail=%.3f merges=%d | single pre=%.3f dip=%.3f tail=%.3f | gap=%.3f (eps=%.2f) match=%v\n",
		report.Fleet.Trainers, report.Fleet.PreDriftAcc, report.Fleet.DipAcc, report.Fleet.TailAcc, report.Fleet.MergeRounds,
		report.Single.PreDriftAcc, report.Single.DipAcc, report.Single.TailAcc,
		report.AccGap, report.Epsilon, report.MergeMatchesSingle)

	dir := o.OutDir
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "BENCH_fleet.json")
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}
