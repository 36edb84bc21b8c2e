package main

import (
	"context"
	"fmt"
	"runtime"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/detect"
	"hdface/internal/hdc"
	"hdface/internal/hv"
	"hdface/internal/imgproc"
)

// The detector and classifiers every workload serves are trained at
// set-up, so models and features always match the code under test. Their
// training data come from modelSeed, not from the workload seed: the
// workload seed varies the traffic (scenes, frames, requests), while the
// model stays the same across runs, so a run-to-run change in quality
// means the code changed, not the training draw.
const modelSeed = 0x5eed

// evalSeed generates every workload's quality evaluation set: a fixed
// count of scenes, the leading frames of one clip, or a labelled image
// pool. Quality is scored on that set outside the timed phase, so it
// depends neither on how fast a run goes nor on the workload seed.
const evalSeed = 0xe7a1

// win is the detection window and the working raster of every pipeline.
const win = 48

// hogStride spaces the hyperspace HOG gradient sites (one per 3x3 block,
// the configuration of the detect and stream benches).
const hogStride = 3

// detectorRecipe sizes the face/non-face detector's training.
type detectorRecipe struct {
	D int
	// N is the initial training set size: half jittered faces over
	// clutter, half window crops of clutter canvases.
	N int
	// Mining is how many face-free canvases one hard-negative round
	// sweeps; MiningSize is their edge. The mining sweep stays on the
	// cell lattice (stride 24, the sweep workload's geometry), so it costs
	// a fraction of a stride-4 frame.
	Mining, MiningSize int
}

// trainDetector fits the binary detector: jittered positives (faces pasted
// a few pixels off centre, the offsets a sliding sweep produces) plus
// clutter crops, then one round of hard-negative mining, then a refit on
// the cached features.
func trainDetector(rc detectorRecipe) (*hdface.Pipeline, error) {
	const cw, ch = 192, 144
	r := hv.NewRNG(modelSeed)
	var imgs []*imgproc.Image
	var labels []int
	for i := 0; i < rc.N; i++ {
		if i%2 == 0 {
			face := dataset.RenderFace(win, win, dataset.Emotion(r.Intn(int(dataset.NumEmotions))), r)
			canvas := dataset.RenderNonFace(2*win, 2*win, r)
			canvas.Blend(face, win/2+r.Intn(9)-4, win/2+r.Intn(9)-4, 1)
			imgs = append(imgs, canvas.Crop(win/2, win/2, win, win))
			labels = append(labels, 1)
		} else {
			bg := dataset.RenderNonFace(cw, ch, r)
			imgs = append(imgs, bg.Crop(r.Intn(cw-win), r.Intn(ch-win), win, win))
			labels = append(labels, 0)
		}
	}
	p := hdface.New(hdface.Config{D: rc.D, Seed: modelSeed, Workers: runtime.NumCPU(), WorkingSize: win, Stride: hogStride})
	feats, err := p.FeaturesContext(context.Background(), imgs)
	if err != nil {
		return nil, err
	}
	if err := p.FitFeatures(feats, labels, 2); err != nil {
		return nil, fmt.Errorf("train detector: %w", err)
	}
	scorer, err := p.DetectScorer(nil, win)
	if err != nil {
		return nil, err
	}
	mine := detect.Params{Win: win, Stride: 24, Scales: []float64{1, 1.5, 2}, NMSIoU: -1, Workers: runtime.NumCPU()}
	for i := 0; i < rc.Mining; i++ {
		bg := dataset.RenderNonFace(rc.MiningSize, rc.MiningSize, r)
		boxes, _, err := detect.Sweep(context.Background(), bg, scorer, mine)
		if err != nil {
			return nil, fmt.Errorf("train detector: mining: %w", err)
		}
		var negs []*imgproc.Image
		for _, b := range boxes {
			negs = append(negs, bg.Crop(b.X0, b.Y0, b.X1-b.X0, b.Y1-b.Y0))
			labels = append(labels, 0)
		}
		nf, err := p.FeaturesContext(context.Background(), negs)
		if err != nil {
			return nil, err
		}
		feats = append(feats, nf...)
	}
	if err := p.FitFeatures(feats, labels, 2); err != nil {
		return nil, fmt.Errorf("train detector: refit: %w", err)
	}
	return p, nil
}

// trainEmotion fits the 7-class emotion model the stream scores temporal
// track bundles against, in the detector's feature space.
func trainEmotion(p *hdface.Pipeline, perClass int) (*hdc.Model, error) {
	r := hv.NewRNG(modelSeed ^ 0xe40)
	var imgs []*imgproc.Image
	var labels []int
	for e := 0; e < int(dataset.NumEmotions); e++ {
		for i := 0; i < perClass; i++ {
			imgs = append(imgs, dataset.RenderFace(win, win, dataset.Emotion(e), r))
			labels = append(labels, e)
		}
	}
	feats, err := p.FeaturesContext(context.Background(), imgs)
	if err != nil {
		return nil, err
	}
	return hdc.Train(feats, labels, int(dataset.NumEmotions), hdc.TrainOpts{Epochs: 5, Seed: modelSeed})
}
