package stoch

import (
	"math"
	"testing"
)

// measureStd runs f repeatedly and returns the empirical standard
// deviation around want.
func measureStd(trials int, want float64, f func() float64) float64 {
	var sq float64
	for i := 0; i < trials; i++ {
		d := f() - want
		sq += d * d
	}
	return math.Sqrt(sq / float64(trials))
}

func TestConstructStdMatchesMonteCarlo(t *testing.T) {
	c := NewCodec(4096, 61)
	for _, a := range []float64{0, 0.5, 0.9} {
		pred := c.ConstructStd(a)
		got := measureStd(300, a, func() float64 { return c.Decode(c.Construct(a)) })
		if got < pred*0.8 || got > pred*1.25 {
			t.Fatalf("a=%v: measured std %v vs predicted %v", a, got, pred)
		}
	}
}

func TestConstructStdEdgeValues(t *testing.T) {
	c := NewCodec(1024, 62)
	if c.ConstructStd(1) != 0 || c.ConstructStd(-1) != 0 {
		t.Fatal("exact endpoint values must have zero variance")
	}
	if c.ConstructStd(5) != 0 {
		t.Fatal("clamped value variance wrong")
	}
}

func TestAvgStdMatchesMonteCarlo(t *testing.T) {
	c := NewCodec(4096, 63)
	a, b, p := 0.6, -0.2, 0.7
	pred := c.AvgStd(p, a, b)
	want := p*a + (1-p)*b
	got := measureStd(300, want, func() float64 {
		return c.Decode(c.WeightedAvg(p, c.Construct(a), c.Construct(b)))
	})
	if got < pred*0.8 || got > pred*1.25 {
		t.Fatalf("measured %v vs predicted %v", got, pred)
	}
}

func TestMulStdMatchesMonteCarlo(t *testing.T) {
	c := NewCodec(4096, 64)
	a, b := 0.5, 0.4
	pred := c.MulStd(a, b)
	got := measureStd(300, a*b, func() float64 {
		return c.Decode(c.Mul(c.Construct(a), c.Construct(b)))
	})
	if got < pred*0.8 || got > pred*1.25 {
		t.Fatalf("measured %v vs predicted %v", got, pred)
	}
}

func TestCompareErrProbMatchesMonteCarlo(t *testing.T) {
	c := NewCodec(1024, 65)
	// Close values where errors are measurable at D=1k.
	a, b := 0.3, 0.24
	pred := c.CompareErrProb(a, b)
	errors := 0.0
	const trials = 600
	for i := 0; i < trials; i++ {
		switch c.Compare(c.Construct(a), c.Construct(b)) {
		case -1:
			errors++
		case 0:
			errors += 0.5
		}
	}
	got := errors / trials
	if math.Abs(got-pred) > 0.08 {
		t.Fatalf("measured error rate %v vs predicted %v", got, pred)
	}
}

func TestCompareErrProbShrinksWithSeparationAndD(t *testing.T) {
	c1 := NewCodec(1024, 66)
	c2 := NewCodec(8192, 66)
	if c1.CompareErrProb(0.3, 0.2) >= c1.CompareErrProb(0.3, 0.28) {
		t.Fatal("wider separation must have lower error probability")
	}
	if c2.CompareErrProb(0.3, 0.25) >= c1.CompareErrProb(0.3, 0.25) {
		t.Fatal("higher D must have lower error probability")
	}
	if c1.CompareErrProb(0.5, 0.5) != 0.5 {
		t.Fatal("equal values must be a coin flip")
	}
}

func TestSqrtMarginStdSanity(t *testing.T) {
	c := NewCodec(4096, 67)
	// Measured sqrt spread should be within a small factor of the model.
	a := 0.5
	pred := c.SqrtMarginStd(a)
	got := measureStd(150, math.Sqrt(a), func() float64 {
		return c.Decode(c.Sqrt(c.Construct(a)))
	})
	if got > pred*4 || got < pred/6 {
		t.Fatalf("sqrt spread %v far from modelled %v", got, pred)
	}
	// Near zero the model must not explode below search resolution.
	if c.SqrtMarginStd(0) <= 0 {
		t.Fatal("degenerate margin at zero")
	}
}

// TestSqrtMarginStdMatchesMonteCarlo checks the square-root error model
// against measurement across values and dimensionalities: the RMS error
// of Decode(Sqrt(Construct(a))) around sqrt(a) must sit within a small
// band of SqrtMarginStd(a) everywhere, so the model's 1/sqrt(D) scaling
// and its 1/sqrt(a) slope are both confirmed, and the search must be
// unbiased to well within one predicted standard deviation. This is the
// reference any change to the search's termination rule is held to.
func TestSqrtMarginStdMatchesMonteCarlo(t *testing.T) {
	const trials = 200
	for _, d := range []int{1024, 4096, 16384} {
		c := NewCodec(d, 68+uint64(d))
		for _, a := range []float64{0.1, 0.25, 0.5, 0.8} {
			root := math.Sqrt(a)
			pred := c.SqrtMarginStd(a)
			var bias float64
			rms := measureStd(trials, root, func() float64 {
				v := c.Decode(c.Sqrt(c.Construct(a)))
				bias += (v - root) / trials
				return v
			})
			if rms < 0.6*pred || rms > 1.6*pred {
				t.Errorf("D=%d a=%v: measured sqrt RMS error %.4f vs modelled %.4f", d, a, rms, pred)
			}
			if math.Abs(bias) > 0.5*pred {
				t.Errorf("D=%d a=%v: sqrt search bias %.4f exceeds half the modelled std %.4f", d, a, bias, pred)
			}
		}
	}
}

func TestRecommendD(t *testing.T) {
	if d := RecommendD(0.016); d != 4096 {
		t.Fatalf("RecommendD(0.016) = %d, want 4096", d)
	}
	if d := RecommendD(0.1); d > 128 {
		t.Fatalf("loose target needs small D, got %d", d)
	}
	// The recommendation must satisfy its own contract.
	target := 0.02
	d := RecommendD(target)
	if math.Sqrt(1/float64(d)) > target {
		t.Fatal("recommended D misses the target")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive target did not panic")
		}
	}()
	RecommendD(0)
}
