package online

import (
	"sync"
	"testing"

	"hdface"
	"hdface/internal/hdc"
	"hdface/internal/hv"
	"hdface/internal/registry"
)

const testD = 256

func testConfig() hdface.Config {
	return hdface.Config{D: testD, WorkingSize: 16, Workers: 1, Seed: 7}
}

// clusterStream builds two class prototypes and a generator of noisy
// members.
type clusterStream struct {
	r      *hv.RNG
	protos []*hv.Vector
	flip   float64
}

func newClusterStream(seed uint64, flip float64) *clusterStream {
	r := hv.NewRNG(seed)
	return &clusterStream{
		r:      r,
		protos: []*hv.Vector{hv.NewRand(r, testD), hv.NewRand(r, testD)},
		flip:   flip,
	}
}

func (c *clusterStream) sample(label int) Sample {
	v := c.protos[label].Clone()
	v.Xor(v, hv.NewRandBiased(c.r, testD, c.flip))
	return Sample{Feature: v, Label: label}
}

// seededRegistry returns an in-memory registry with a model trained on the
// stream's clusters promoted live.
func seededRegistry(t *testing.T, cs *clusterStream, labelOf func(int) int) *registry.Registry {
	t.Helper()
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	var feats []*hv.Vector
	var labels []int
	for i := 0; i < 40; i++ {
		s := cs.sample(i % 2)
		feats = append(feats, s.Feature)
		labels = append(labels, labelOf(s.Label))
	}
	m, err := hdc.Train(feats, labels, 2, hdc.TrainOpts{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Finalize(testConfig().Seed ^ 0xf1a1)
	id, err := reg.Put(testConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote(id); err != nil {
		t.Fatal(err)
	}
	return reg
}

// modelOf returns a version's model.
func modelOf(t *testing.T, v *registry.Version) *hdc.Model {
	t.Helper()
	m, err := v.Model()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func identity(l int) int { return l }
func flipped(l int) int  { return 1 - l }

func TestStepAdaptsToLabelDrift(t *testing.T) {
	cs := newClusterStream(3, 0.1)
	reg := seededRegistry(t, cs, identity)
	tr, err := New(Config{
		Registry:  reg,
		Pipe:      testConfig(),
		BatchSize: 16, WindowSize: 16, HoldoutEvery: 3, MinHoldout: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-drift feedback agrees with the model: no promotion should fire
	// (the shadow gate demands strict improvement).
	for i := 0; i < 64; i++ {
		if id := tr.Step(cs.sample(i % 2)); id != 0 {
			t.Fatalf("promotion %d on agreeing feedback", id)
		}
	}
	// Labels flip: the world changed. Feedback now disagrees with live.
	promoted := uint64(0)
	for i := 0; i < 400 && promoted == 0; i++ {
		s := cs.sample(i % 2)
		s.Label = flipped(s.Label)
		promoted = tr.Step(s)
	}
	if promoted == 0 {
		t.Fatal("no promotion after sustained label drift")
	}
	live := reg.Live()
	if live.ID != promoted {
		t.Fatalf("live is %d, want promoted %d", live.ID, promoted)
	}
	// The promoted model classifies under the new labelling.
	correct := 0
	for i := 0; i < 50; i++ {
		s := cs.sample(i % 2)
		if modelOf(t, live).Predict(s.Feature) == flipped(s.Label) {
			correct++
		}
	}
	if acc := float64(correct) / 50; acc < 0.9 {
		t.Fatalf("promoted model accuracy %v under drifted labels", acc)
	}
	st := tr.Stats()
	if st.Promotions == 0 || st.Rounds == 0 {
		t.Fatalf("stats did not record the adaptation: %+v", st)
	}
}

func TestDriftDetectorFires(t *testing.T) {
	cs := newClusterStream(5, 0.1)
	reg := seededRegistry(t, cs, identity)
	tr, err := New(Config{
		Registry: reg,
		Pipe:     testConfig(),
		// Batch large enough that only drift can trigger a round early.
		// Clean 10%-flip samples carry margins well above 0.2; a 50/50
		// prototype mix collapses them towards 1/sqrt(D).
		BatchSize: 10000, WindowSize: 16, DriftThreshold: 0.2,
		HoldoutEvery: 4, MinHoldout: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Near-ambiguous inputs: equal mix of both prototypes collapses the
	// top-1/top-2 margin.
	mix := newClusterStream(5, 0.5)
	for i := 0; i < 64; i++ {
		tr.Step(mix.sample(i % 2))
	}
	if tr.Stats().DriftEvents == 0 {
		t.Fatal("margin collapse did not register as drift")
	}
}

func TestShadowGateRejectsWorseCandidate(t *testing.T) {
	cs := newClusterStream(7, 0.1)
	reg := seededRegistry(t, cs, identity)
	tr, err := New(Config{
		Registry:  reg,
		Pipe:      testConfig(),
		BatchSize: 8, WindowSize: 16, HoldoutEvery: 3,
		// A serious gate: enough held-out evidence and a real margin, so
		// a lucky candidate cannot squeak past on sampling noise.
		MinHoldout: 16, PromoteEpsilon: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Poisoned feedback: every sample routed to the training batch gets a
	// flipped label, while every HoldoutEvery-th (the ones the trainer
	// diverts to shadow evaluation) stays truthful. Candidates learn the
	// inverted mapping, score near zero on the clean holdout, and the
	// gate must reject them all.
	before := reg.Live().ID
	for i := 1; i <= 200; i++ {
		s := cs.sample(i % 2)
		if i%3 != 0 { // trainer's HoldoutEvery=3 routing, by seen count
			s.Label = 1 - s.Label
		}
		tr.Step(s)
	}
	if reg.Live().ID != before {
		t.Fatal("random-label feedback caused a promotion")
	}
	if tr.Stats().Rounds == 0 {
		t.Fatal("no rounds ran at all — gate never tested")
	}
}

func TestStepIgnoresInvalidSamples(t *testing.T) {
	cs := newClusterStream(11, 0.1)
	reg := seededRegistry(t, cs, identity)
	tr, err := New(Config{Registry: reg, Pipe: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	r := hv.NewRNG(1)
	if id := tr.Step(Sample{Feature: nil, Label: 0}); id != 0 {
		t.Fatal("nil feature promoted something")
	}
	if id := tr.Step(Sample{Feature: hv.NewRand(r, 64), Label: 0}); id != 0 {
		t.Fatal("wrong-D feature promoted something")
	}
	if id := tr.Step(Sample{Feature: hv.NewRand(r, testD), Label: 7}); id != 0 {
		t.Fatal("out-of-range label promoted something")
	}
	if tr.Stats().Seen != 0 {
		t.Fatal("invalid samples counted as seen")
	}
}

func TestEnqueueBackpressureAndClose(t *testing.T) {
	cs := newClusterStream(13, 0.1)
	reg := seededRegistry(t, cs, identity)
	tr, err := New(Config{Registry: reg, Pipe: testConfig(), QueueSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the queue fills and then drops.
	if err := tr.Enqueue(cs.sample(0)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Enqueue(cs.sample(1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Enqueue(cs.sample(0)); err == nil {
		t.Fatal("overfull queue accepted a sample")
	}
	if tr.Stats().Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Stats().Dropped)
	}
	tr.Close()
	if err := tr.Enqueue(cs.sample(0)); err == nil {
		t.Fatal("closed trainer accepted a sample")
	}
	// Close is idempotent and concurrent-safe.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); tr.Close() }()
	}
	wg.Wait()
}

func TestStartDrainsQueueOnClose(t *testing.T) {
	cs := newClusterStream(17, 0.1)
	reg := seededRegistry(t, cs, identity)
	tr, err := New(Config{Registry: reg, Pipe: testConfig(), QueueSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	for i := 0; i < 32; i++ {
		if err := tr.Enqueue(cs.sample(i % 2)); err != nil {
			t.Fatal(err)
		}
	}
	tr.Close() // waits for the consumer: everything enqueued is processed
	if seen := tr.Stats().Seen; seen != 32 {
		t.Fatalf("seen = %d after Close, want 32", seen)
	}
}
