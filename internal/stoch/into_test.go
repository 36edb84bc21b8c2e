package stoch

import (
	"testing"

	"hdface/internal/hv"
)

// intoCase runs one op in value-returning form (want) and in
// destination-passing form with a chosen aliasing (got). Both run on
// codecs of the same seed from the same operands, so they must agree bit
// for bit and in every Stats counter.
type intoCase struct {
	name string
	want func(c *Codec, a, b *hv.Vector) *hv.Vector
	got  func(c *Codec, a, b *hv.Vector) *hv.Vector
}

func intoCases() []intoCase {
	fresh := func(c *Codec) *hv.Vector { return hv.New(c.D()) }
	return []intoCase{
		{"Construct", func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.Construct(0.3) },
			func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.ConstructInto(a, 0.3) }},
		{"Neg/dst=a", func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.Neg(a) },
			func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.NegInto(a, a) }},
		{"WeightedAvg/fresh", func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.WeightedAvg(0.3, a, b) },
			func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.WeightedAvgInto(fresh(c), 0.3, a, b) }},
		{"WeightedAvg/dst=a", func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.WeightedAvg(0.3, a, b) },
			func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.WeightedAvgInto(a, 0.3, a, b) }},
		{"WeightedAvg/dst=b", func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.WeightedAvg(0.3, a, b) },
			func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.WeightedAvgInto(b, 0.3, a, b) }},
		{"Sub/dst=a", func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.Sub(a, b) },
			func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.SubInto(a, a, b) }},
		{"Sub/dst=b", func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.Sub(a, b) },
			func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.SubInto(b, a, b) }},
		{"Mul/dst=a", func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.Mul(a, b) },
			func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.MulInto(a, a, b) }},
		{"Mul/dst=b", func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.Mul(a, b) },
			func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.MulInto(b, a, b) }},
		{"Decorrelate/dst=a", func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.Decorrelate(a) },
			func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.DecorrelateInto(a, a) }},
		{"DecorrelateShift/mask", func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.DecorrelateShift(a, 77) },
			func(c *Codec, a, b *hv.Vector) *hv.Vector {
				return c.DecorrelateMaskInto(b, a.Xor(a, c.One()), 77)
			}},
		{"Sqrt/fresh", func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.Sqrt(b) },
			func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.SqrtInto(fresh(c), b) }},
		{"Sqrt/dst=v", func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.Sqrt(b) },
			func(c *Codec, a, b *hv.Vector) *hv.Vector { return c.SqrtInto(b, b) }},
	}
}

func TestIntoMatchesValueForm(t *testing.T) {
	for _, d := range []int{1000, 2048} {
		for _, tc := range intoCases() {
			operands := func(c *Codec) (a, b *hv.Vector) { return c.Construct(-0.4), c.Construct(0.36) }
			cw := NewCodec(d, 9)
			wa, wb := operands(cw)
			want := tc.want(cw, wa, wb).Clone()
			cg := NewCodec(d, 9)
			ga, gb := operands(cg)
			got := tc.got(cg, ga, gb)
			if !got.Equal(want) {
				t.Errorf("D=%d %s: destination-passing form differs from the value form", d, tc.name)
			}
			if cg.Stats != cw.Stats {
				t.Errorf("D=%d %s: stats differ:\n into  %+v\n value %+v", d, tc.name, cg.Stats, cw.Stats)
			}
			// The streams stay in step afterwards, too.
			if !cg.Construct(0).Equal(cw.Construct(0)) {
				t.Errorf("D=%d %s: RNG streams diverged", d, tc.name)
			}
		}
	}
}

func TestIntoOpsAllocateNothing(t *testing.T) {
	c := NewCodec(2048, 10)
	a, b, dst := c.Construct(-0.4), c.Construct(0.36), hv.New(2048)
	mask := hv.New(2048).Xor(a, c.One())
	ops := map[string]func(){
		"ConstructInto":       func() { c.ConstructInto(dst, 0.3) },
		"NegInto":             func() { c.NegInto(dst, a) },
		"WeightedAvgInto":     func() { c.WeightedAvgInto(dst, 0.3, a, b) },
		"SubInto":             func() { c.SubInto(dst, a, b) },
		"MulInto":             func() { c.MulInto(dst, a, b) },
		"DecorrelateInto":     func() { c.DecorrelateInto(dst, a) },
		"DecorrelateMaskInto": func() { c.DecorrelateMaskInto(dst, mask, 77) },
		"SqrtInto":            func() { c.SqrtInto(dst, b) },
		"Compare":             func() { c.Compare(a, b) },
	}
	for name, op := range ops {
		if n := testing.AllocsPerRun(20, op); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}
