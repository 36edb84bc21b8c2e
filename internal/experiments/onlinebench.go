package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/hdc"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
	"hdface/internal/online"
	"hdface/internal/registry"
)

// OnlineBenchBucket is one prequential-accuracy window of the stream.
type OnlineBenchBucket struct {
	Start       int     `json:"start"`
	End         int     `json:"end"`
	AdaptiveAcc float64 `json:"adaptive_acc"`
	FrozenAcc   float64 `json:"frozen_acc"`
	LiveVersion uint64  `json:"live_version"`
}

// OnlineBenchReport is the BENCH_online.json schema.
type OnlineBenchReport struct {
	Schema       string              `json:"schema"`
	D            int                 `json:"d"`
	StreamLen    int                 `json:"stream_len"`
	DriftAt      int                 `json:"drift_at"`
	BucketSize   int                 `json:"bucket_size"`
	Buckets      []OnlineBenchBucket `json:"buckets"`
	PreDriftAcc  float64             `json:"pre_drift_acc"`
	DipAcc       float64             `json:"dip_acc"`
	RecoveredAcc float64             `json:"recovered_acc"`
	FrozenFinal  float64             `json:"frozen_final_acc"`
	Promotions   int64               `json:"promotions"`
	Rejections   int64               `json:"rejections"`
	DriftEvents  int64               `json:"drift_events"`
	Rounds       int64               `json:"rounds"`
	Epsilon      float64             `json:"epsilon"`
	Recovered    bool                `json:"recovered_within_epsilon"`
}

// OnlineBenchData runs the drift-recovery stream and returns the report;
// it errors if the adaptive path fails to recover or the frozen baseline
// keeps up (either means the subsystem under test is broken).
func OnlineBenchData(o Options) (*OnlineBenchReport, error) {
	o = o.withDefaults()
	d, win := 2048, 48
	poolN, preDrift, postDrift, bucket := 48, 240, 480, 60
	if o.Quick {
		d, win = 1024, 32
		poolN, preDrift, postDrift, bucket = 32, 120, 280, 40
	}

	// Train the initial model on a normally-labelled set.
	r := hv.NewRNG(o.Seed ^ 0x0417)
	render := func(n int) (faces, nonfaces []*imgproc.Image) {
		for i := 0; i < n; i++ {
			faces = append(faces, dataset.RenderFace(win, win, dataset.Emotion(r.Intn(7)), r))
			nonfaces = append(nonfaces, dataset.RenderNonFace(win, win, r))
		}
		return
	}
	trainFaces, trainNon := render(16)
	imgs := append(append([]*imgproc.Image{}, trainFaces...), trainNon...)
	labels := make([]int, len(imgs))
	for i := range trainFaces {
		labels[i] = 1
	}
	cfg := hdface.Config{D: d, Seed: o.Seed, Workers: 1, WorkingSize: win, Stride: 3}
	p := hdface.New(cfg)
	if err := p.Fit(imgs, labels, 2); err != nil {
		return nil, fmt.Errorf("onlinebench: %w", err)
	}
	frozen := p.Model().Clone()

	// Pre-extract a pool of stream features so the bench measures
	// adaptation, not repeated HOG extraction.
	poolFaces, poolNon := render(poolN)
	feat := func(img *imgproc.Image) *hv.Vector { return p.Feature(img) }
	var faceFeats, nonFeats []*hv.Vector
	for i := 0; i < poolN; i++ {
		faceFeats = append(faceFeats, feat(poolFaces[i]))
		nonFeats = append(nonFeats, feat(poolNon[i]))
	}

	reg, err := registry.Open("", 0)
	if err != nil {
		return nil, fmt.Errorf("onlinebench: %w", err)
	}
	v1, err := reg.Put(cfg, p.Model())
	if err != nil {
		return nil, fmt.Errorf("onlinebench: %w", err)
	}
	if err := reg.Promote(v1); err != nil {
		return nil, fmt.Errorf("onlinebench: %w", err)
	}
	trainer, err := online.New(online.Config{
		Registry:   reg,
		Pipe:       cfg,
		BatchSize:  24,
		WindowSize: 32,
		MinHoldout: 4,
		Opts:       hdc.TrainOpts{Seed: o.Seed ^ 0xbe57},
	})
	if err != nil {
		return nil, fmt.Errorf("onlinebench: %w", err)
	}

	streamLen := preDrift + postDrift
	report := OnlineBenchReport{
		Schema:     "hdface-bench-online/v1",
		D:          d,
		StreamLen:  streamLen,
		DriftAt:    preDrift,
		BucketSize: bucket,
		Epsilon:    0.1,
	}

	sr := hv.NewRNG(o.Seed ^ 0x57ea)
	adaptOK, frozenOK, n := 0, 0, 0
	flushBucket := func(end int) {
		live := reg.Live()
		b := OnlineBenchBucket{
			Start:       end - n,
			End:         end,
			AdaptiveAcc: float64(adaptOK) / float64(n),
			FrozenAcc:   float64(frozenOK) / float64(n),
		}
		if live != nil {
			b.LiveVersion = live.ID
		}
		report.Buckets = append(report.Buckets, b)
		adaptOK, frozenOK, n = 0, 0, 0
	}
	for i := 0; i < streamLen; i++ {
		isFace := sr.Intn(2) == 1
		var f *hv.Vector
		if isFace {
			f = faceFeats[sr.Intn(len(faceFeats))]
		} else {
			f = nonFeats[sr.Intn(len(nonFeats))]
		}
		// Mid-stream the supervisory signal inverts: the environment now
		// calls faces class 0 and non-faces class 1.
		label := 0
		if isFace {
			label = 1
		}
		if i >= preDrift {
			label = 1 - label
		}
		// Prequential evaluation: predict first, then learn.
		live, err := reg.Live().Model()
		if err != nil {
			return nil, err
		}
		if live.Predict(f) == label {
			adaptOK++
		}
		if frozen.Predict(f) == label {
			frozenOK++
		}
		n++
		trainer.Step(online.Sample{Feature: f, Label: label})
		if n == bucket || i == streamLen-1 {
			flushBucket(i + 1)
		}
	}

	stats := trainer.Stats()
	report.Promotions = stats.Promotions
	report.Rejections = stats.Rejections
	report.DriftEvents = stats.DriftEvents
	report.Rounds = stats.Rounds

	// Headline numbers: the last pre-drift bucket, the worst and the last
	// post-drift buckets for the adaptive path, the last for the frozen.
	dip, frozenFinal, recovered := 1.0, 0.0, 0.0
	for _, b := range report.Buckets {
		switch {
		case b.End <= preDrift:
			report.PreDriftAcc = b.AdaptiveAcc
		default:
			if b.AdaptiveAcc < dip {
				dip = b.AdaptiveAcc
			}
			recovered = b.AdaptiveAcc
			frozenFinal = b.FrozenAcc
		}
	}
	report.DipAcc = dip
	report.RecoveredAcc = recovered
	report.FrozenFinal = frozenFinal
	report.Recovered = recovered >= report.PreDriftAcc-report.Epsilon

	if !report.Recovered {
		return nil, fmt.Errorf("onlinebench: adaptive path did not recover: %.3f < %.3f - %.2f",
			recovered, report.PreDriftAcc, report.Epsilon)
	}
	if frozenFinal >= recovered {
		return nil, fmt.Errorf("onlinebench: frozen baseline (%.3f) kept up with adaptive path (%.3f); drift injection is broken",
			frozenFinal, recovered)
	}
	return &report, nil
}

// OnlineBench measures the online learning subsystem end to end: a
// feedback stream of face/non-face windows whose label mapping inverts
// mid-stream (concept drift), evaluated prequentially — each sample is
// first predicted by the current live model, then handed to the trainer
// as feedback. The adaptive path (registry + feedback trainer) should
// dip at the drift point and recover to within epsilon of its pre-drift
// accuracy, while a frozen copy of the initial model stays degraded.
// Writes BENCH_online.json.
func OnlineBench(w io.Writer, o Options) error {
	section(w, "online learning drift-recovery benchmark")
	report, err := OnlineBenchData(o)
	if err != nil {
		return err
	}
	for _, b := range report.Buckets {
		fmt.Fprintf(w, "[%4d,%4d) adaptive=%.3f frozen=%.3f live=v%d\n",
			b.Start, b.End, b.AdaptiveAcc, b.FrozenAcc, b.LiveVersion)
	}
	fmt.Fprintf(w, "pre-drift=%.3f dip=%.3f recovered=%.3f frozen=%.3f promotions=%d drift_events=%d recovered_within_eps=%v\n",
		report.PreDriftAcc, report.DipAcc, report.RecoveredAcc, report.FrozenFinal,
		report.Promotions, report.DriftEvents, report.Recovered)

	dir := o.OutDir
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, "BENCH_online.json")
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
