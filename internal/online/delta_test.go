package online

import (
	"bytes"
	"math/rand"
	"testing"

	"hdface/internal/hv"
)

// randDelta builds a delta with deterministic pseudo-random evidence.
func randDelta(t *testing.T, replica string, base, epoch uint64, seed uint64, samples int) *Delta {
	t.Helper()
	r := hv.NewRNG(seed)
	d := NewDelta(replica, base, epoch, testD, 2)
	for i := 0; i < samples; i++ {
		label := r.Intn(2)
		d.Add(hv.NewRand(r, testD), label, 1-label)
	}
	return d
}

func deltasEqual(a, b *Delta) bool {
	if a.D != b.D || a.K != b.K {
		return false
	}
	for c := range a.Counts {
		if a.Counts[c] != b.Counts[c] {
			return false
		}
		for i := range a.Acc[c] {
			if a.Acc[c][i] != b.Acc[c][i] {
				return false
			}
		}
	}
	return true
}

// TestMergerCRDTLaws drives the bundling merge through the properties the
// fleet depends on: order-insensitivity (commutativity + associativity of
// the combine), idempotent duplicate delivery, and out-of-order
// supersession by (Epoch, Seq).
func TestMergerCRDTLaws(t *testing.T) {
	const base = 0xabcd
	states := []*Delta{
		randDelta(t, "r0", base, 1, 11, 9),
		randDelta(t, "r1", base, 1, 22, 5),
		randDelta(t, "r2", base, 3, 33, 13),
		randDelta(t, "r3", base, 2, 44, 1),
	}

	bundleOf := func(order []int, dupes bool) *Delta {
		m := NewMerger()
		for _, i := range order {
			m.Offer(states[i])
			if dupes {
				m.Offer(states[i]) // duplicate delivery must be a no-op
			}
		}
		merged, skipped := m.Bundle(base)
		if skipped != 0 {
			t.Fatalf("unexpected skipped=%d", skipped)
		}
		return merged
	}

	want := bundleOf([]int{0, 1, 2, 3}, false)
	perm := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		order := perm.Perm(len(states))
		got := bundleOf(order, trial%2 == 0)
		if !deltasEqual(want, got) {
			t.Fatalf("merge order %v (dupes=%v) changed the bundle", order, trial%2 == 0)
		}
	}

	// Out-of-order arrival: an older (Epoch, Seq) for a replica must not
	// displace a newer one, in either arrival order.
	older := randDelta(t, "r9", base, 1, 55, 3)
	newer := randDelta(t, "r9", base, 2, 66, 4)
	m1, m2 := NewMerger(), NewMerger()
	if !m1.Offer(newer) || m1.Offer(older) {
		t.Fatal("stale offer accepted after newer state")
	}
	if !m2.Offer(older) || !m2.Offer(newer) {
		t.Fatal("newer offer rejected")
	}
	b1, _ := m1.Bundle(base)
	b2, _ := m2.Bundle(base)
	if !deltasEqual(b1, b2) || !deltasEqual(b1, newer) {
		t.Fatal("out-of-order arrival changed the merged state")
	}
	if _, stale := m1.Stats(); stale != 1 {
		t.Fatalf("stale counter = %d, want 1", stale)
	}

	// Same epoch, lower seq is also stale (a re-delivered earlier pull).
	mid := newer.Clone()
	mid.Seq--
	if m2.Offer(mid) {
		t.Fatal("lower-seq same-epoch state accepted")
	}
}

// TestMergerExcludesForeignBases: evidence accumulated against another
// model must never fold into this base.
func TestMergerExcludesForeignBases(t *testing.T) {
	m := NewMerger()
	m.Offer(randDelta(t, "r0", 0xaaaa, 1, 1, 4))
	m.Offer(randDelta(t, "r1", 0xbbbb, 1, 2, 4))
	merged, skipped := m.Bundle(0xaaaa)
	if merged == nil || skipped != 1 {
		t.Fatalf("merged=%v skipped=%d, want evidence from exactly one replica", merged, skipped)
	}
	if merged.Samples() != 4 {
		t.Fatalf("merged samples = %d, want 4", merged.Samples())
	}
	if got, _ := m.Bundle(0xcccc); got != nil {
		t.Fatal("bundle of unknown base returned evidence")
	}
}

func TestDeltaEncodeRoundTrip(t *testing.T) {
	want := randDelta(t, "replica-7", 0xfeed, 5, 99, 17)
	var buf bytes.Buffer
	if err := want.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Replica != want.Replica || got.Base != want.Base ||
		got.Epoch != want.Epoch || got.Seq != want.Seq {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, want)
	}
	if !deltasEqual(want, got) {
		t.Fatal("round-tripped accumulator differs")
	}
}

// TestDecodeDeltaHostile: truncations, bad magic and implausible geometry
// must error without panicking or allocating absurdly.
func TestDecodeDeltaHostile(t *testing.T) {
	var buf bytes.Buffer
	if err := randDelta(t, "r", 1, 1, 3, 4).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	for cut := 0; cut < len(wire); cut += 7 {
		if _, err := DecodeDelta(bytes.NewReader(wire[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}

	bad := append([]byte(nil), wire...)
	bad[0] ^= 0xff
	if _, err := DecodeDelta(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}

	// Hostile geometry: D and K maxed out would imply a multi-terabyte
	// accumulator; the bound must trip before allocation.
	huge := append([]byte(nil), wire...)
	for i := 28; i < 36; i++ { // D and K header fields
		huge[i] = 0xff
	}
	if _, err := DecodeDelta(bytes.NewReader(huge)); err == nil {
		t.Fatal("implausible geometry accepted")
	}
}

// TestApplyDeltaMatchesDirectUpdate: folding a delta into the base model
// must equal applying the same mistake-driven ±1 updates directly to the
// float accumulators — the merge is the training rule, just deferred.
func TestApplyDeltaMatchesDirectUpdate(t *testing.T) {
	cs := newClusterStream(5, 0.1)
	reg := seededRegistry(t, cs, identity)
	base := modelOf(t, reg.Live())
	fp := base.Fingerprint()

	d := NewDelta("r", fp, 1, testD, 2)
	type ev struct {
		f           *hv.Vector
		label, pred int
	}
	var evidence []ev
	for i := 0; i < 12; i++ {
		s := cs.sample(i % 2)
		evidence = append(evidence, ev{s.Feature, s.Label, 1 - s.Label})
		d.Add(s.Feature, s.Label, 1-s.Label)
	}

	cand, err := ApplyDelta(base, d, 1, 42)
	if err != nil {
		t.Fatal(err)
	}

	want := base.Clone()
	for _, e := range evidence {
		for i := 0; i < testD; i++ {
			s := -1.0
			if e.f.Bit(i) == 1 {
				s = 1
			}
			want.Classes[e.label][i] += s
			want.Classes[e.pred][i] -= s
		}
	}
	want.Finalize(42)
	for c := range want.Classes {
		for i := range want.Classes[c] {
			if want.Classes[c][i] != cand.Classes[c][i] {
				t.Fatalf("class %d dim %d: delta %v direct %v", c, i, cand.Classes[c][i], want.Classes[c][i])
			}
		}
		if want.Bin[c].Hamming(cand.Bin[c]) != 0 {
			t.Fatalf("class %d binarised form differs", c)
		}
	}

	// Base integrity: ApplyDelta must not mutate its input.
	if base.Fingerprint() != fp {
		t.Fatal("ApplyDelta mutated the base model")
	}

	// Wrong base: refuse to fold evidence into a model it wasn't
	// accumulated against.
	other := base.Clone()
	other.Classes[0][0] += 1
	if _, err := ApplyDelta(other, d, 1, 42); err == nil {
		t.Fatal("ApplyDelta accepted a mismatched base fingerprint")
	}
}

// TestAdoptGate: a pushed candidate no better than live is adopted (ties
// accepted — it carries other replicas' evidence), while one that tanks
// held-out accuracy is rejected, and a rejected push leaves the live
// model and the local delta untouched.
func TestAdoptGate(t *testing.T) {
	cs := newClusterStream(13, 0.1)
	reg := seededRegistry(t, cs, identity)
	tr, err := New(Config{
		Registry: reg, Pipe: testConfig(), DeltaOnly: true, Replica: "r0",
		HoldoutEvery: 2, MinHoldout: 4, WindowSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		tr.Step(cs.sample(i % 2))
	}
	if tr.Stats().Rounds != 0 {
		t.Fatal("delta-only trainer ran a local refinement round")
	}

	// An anti-model (negated class memory) predicts everything wrong.
	live := reg.Live()
	bad := modelOf(t, live).Clone()
	for c := range bad.Classes {
		for i := range bad.Classes[c] {
			bad.Classes[c][i] = -bad.Classes[c][i]
		}
	}
	bad.Finalize(1)
	id, outcome, err := tr.Adopt(testConfig(), bad)
	if err != nil || outcome != "gate_rejected" || id != 0 {
		t.Fatalf("bad candidate: id=%d outcome=%q err=%v, want gate_rejected", id, outcome, err)
	}
	if reg.Live().ID != live.ID {
		t.Fatal("rejected push still swapped the live model")
	}

	// An identical candidate ties on holdout and must be adopted.
	id, outcome, err = tr.Adopt(testConfig(), modelOf(t, live).Clone())
	if err != nil || outcome != "promoted" || id == 0 {
		t.Fatalf("tie candidate: id=%d outcome=%q err=%v, want promoted", id, outcome, err)
	}
	if reg.Live().ID != id {
		t.Fatal("adoption did not promote the candidate")
	}
	// The delta rebased onto the adopted model.
	if d := tr.Delta(); d == nil || d.Base != modelOf(t, reg.Live()).Fingerprint() || d.Samples() != 0 {
		t.Fatalf("delta after adoption = %+v, want empty accumulator rebased on the new live model", d)
	}
	st := tr.Stats()
	if st.Adoptions != 1 || st.AdoptRejections != 1 {
		t.Fatalf("stats = %+v, want one adoption and one rejection", st)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	cs := newClusterStream(9, 0.1)
	reg := seededRegistry(t, cs, identity)
	m := modelOf(t, reg.Live())
	fp := m.Fingerprint()
	if m.Clone().Fingerprint() != fp {
		t.Fatal("clone fingerprints differently")
	}
	c := m.Clone()
	c.Classes[1][7] += 0.5
	if c.Fingerprint() == fp {
		t.Fatal("accumulator change invisible to fingerprint")
	}
	c2 := m.Clone()
	c2.Bin[0].SetBit(3, 1-c2.Bin[0].Bit(3))
	if c2.Fingerprint() == fp {
		t.Fatal("binarised-bit change invisible to fingerprint")
	}
}
