package tenant

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hdface"
	"hdface/internal/dataset"
	"hdface/internal/hdc"
	"hdface/internal/hv"
	"hdface/internal/obs"
	"hdface/internal/registry"
)

// testPipeline trains a small face/non-face pipeline whose model is
// finalized and detect-capable.
func testPipeline(tb testing.TB, d int, seed uint64) *hdface.Pipeline {
	tb.Helper()
	r := hv.NewRNG(seed)
	var imgs []*hdface.Image
	var labels []int
	for i := 0; i < 16; i++ {
		if i%2 == 1 {
			imgs = append(imgs, dataset.RenderFace(32, 32, dataset.Emotion(r.Intn(7)), r))
			labels = append(labels, 1)
		} else {
			imgs = append(imgs, dataset.RenderNonFace(32, 32, r))
			labels = append(labels, 0)
		}
	}
	p := hdface.New(hdface.Config{D: d, Seed: 17, WorkingSize: 32, Workers: 1})
	if err := p.Fit(imgs, labels, 2); err != nil {
		tb.Fatal(err)
	}
	return p
}

// probeFeatures extracts deterministic probe features from the pipeline.
func probeFeatures(tb testing.TB, p *hdface.Pipeline, n int, seed uint64) []*hv.Vector {
	tb.Helper()
	r := hv.NewRNG(seed)
	var imgs []*hdface.Image
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			imgs = append(imgs, dataset.RenderFace(32, 32, dataset.Emotion(r.Intn(7)), r))
		} else {
			imgs = append(imgs, dataset.RenderNonFace(32, 32, r))
		}
	}
	return p.Features(imgs)
}

// hamScore is one binarised-memory scoring result; equality between two
// hamScores is the byte-identity the compact round-trip guarantees.
type hamScore struct {
	face  bool
	score float64
}

func ham(m *hdc.Model, f *hv.Vector) hamScore {
	face, score := m.ScoreBinaryHamming(f)
	return hamScore{face, score}
}

func TestValidID(t *testing.T) {
	for _, good := range []string{"a", "tenant-1", "Acme_Corp.eu", "x9"} {
		if err := ValidID(good); err != nil {
			t.Errorf("ValidID(%q) = %v", good, err)
		}
	}
	long := make([]byte, maxIDLen+1)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".hidden", "a/b", "a b", "ü", string(long)} {
		if err := ValidID(bad); err == nil {
			t.Errorf("ValidID(%q) accepted", bad)
		}
	}
}

func TestPutPromoteLive(t *testing.T) {
	p := testPipeline(t, 256, 1)
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Live("nobody"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Live on unknown tenant = %v, want ErrUnknownTenant", err)
	}
	id, err := s.Put("acme", p.Config(), p.Model())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Live("acme"); !errors.Is(err, ErrNoLive) {
		t.Fatalf("Live before Promote = %v, want ErrNoLive", err)
	}
	if err := s.Promote("acme", id); err != nil {
		t.Fatal(err)
	}
	v, m, err := s.Model("acme")
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != id || m == nil || m.D != 256 {
		t.Fatalf("Model = (%+v, %+v)", v, m)
	}
	// Unfinalized models are rejected: the compact store exists to carry
	// binarized class memory.
	raw := hdc.NewModel(256, 2)
	if _, err := s.Put("acme", p.Config(), raw); err == nil {
		t.Fatal("unfinalized model accepted")
	}
	// Incompatible configs are rejected: the store shares one pipeline.
	other := p.Config()
	other.D = 512
	om := testPipeline(t, 512, 2).Model()
	if _, err := s.Put("acme2", other, om); err == nil {
		t.Fatal("incompatible config accepted")
	}
	if _, err := s.Put("bad/id", p.Config(), p.Model()); err == nil {
		t.Fatal("invalid tenant id accepted")
	}
}

// TestLazyMatchesEagerV1 is the materialization-correctness contract
// (satellite): Hamming scores from the lazily materialized compact tenant
// model must be byte-identical to an eagerly loaded v1 snapshot of the
// same model, at any concurrency. Run with -race.
func TestLazyMatchesEagerV1(t *testing.T) {
	p := testPipeline(t, 512, 3)
	var v1 bytes.Buffer
	if err := hdface.EncodeSnapshot(&v1, p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	_, eager, err := hdface.DecodeSnapshot(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seed("acme", p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	feats := probeFeatures(t, p, 16, 99)
	want := make([]hamScore, len(feats))
	for i, f := range feats {
		want[i] = ham(eager, f)
	}
	// Many goroutines race the first materialization and score; every
	// distance must match the eager model bit-for-bit, and all workers
	// must observe the same single materialized instance.
	const workers = 8
	models := make([]*hdc.Model, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, m, err := s.Model("acme")
			if err != nil {
				t.Error(err)
				return
			}
			models[w] = m
			for i, f := range feats {
				if got := ham(m, f); got != want[i] {
					t.Errorf("worker %d probe %d: lazy scores %v != eager %v", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w < workers; w++ {
		if models[w] != models[0] {
			t.Fatal("concurrent first users materialized more than one instance")
		}
	}
	st := s.Stats()
	if st.MaterializedCount != 1 {
		t.Fatalf("materialized count = %d, want 1", st.MaterializedCount)
	}
}

func TestLRUEviction(t *testing.T) {
	p := testPipeline(t, 256, 4)
	m := p.Model()
	// One model's materialized footprint, measured in a scratch store.
	probe, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Seed("probe", p.Config(), m); err != nil {
		t.Fatal(err)
	}
	if _, _, err := probe.Model("probe"); err != nil {
		t.Fatal(err)
	}
	one := probe.Stats().MaterializedBytes
	s, err := Open(Config{BudgetBytes: 3 * one})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"t0", "t1", "t2", "t3", "t4", "t5"}
	for _, id := range ids {
		if _, err := s.Seed(id, p.Config(), m); err != nil {
			t.Fatal(err)
		}
	}
	feats := probeFeatures(t, p, 2, 5)
	want := ham(m, feats[0])
	var held *hdc.Model
	for _, id := range ids {
		_, mm, err := s.Model(id)
		if err != nil {
			t.Fatal(err)
		}
		if held == nil {
			held = mm // in-flight reader keeps this across evictions
		}
	}
	st := s.Stats()
	if st.MaterializedBytes > 3*one {
		t.Fatalf("budget overrun: %d > %d", st.MaterializedBytes, 3*one)
	}
	if st.MaterializedCount > 3 {
		t.Fatalf("materialized %d models under a 3-model budget", st.MaterializedCount)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	// The first tenant was evicted; its version demoted but intact.
	v, err := s.Live("t0")
	if err != nil {
		t.Fatal(err)
	}
	if v.Materialized() {
		t.Fatal("LRU head survived tail eviction order")
	}
	// The evicted reader's pointer is still a valid immutable model.
	if got := ham(held, feats[0]); got != want {
		t.Fatal("in-flight model corrupted by eviction")
	}
	// Re-materialization after eviction is exact.
	_, mm, err := s.Model("t0")
	if err != nil {
		t.Fatal(err)
	}
	if got := ham(mm, feats[0]); got != want {
		t.Fatal("re-materialized model differs")
	}
}

func TestPersistenceReload(t *testing.T) {
	p := testPipeline(t, 256, 6)
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alpha", "beta"} {
		if _, err := s.Seed(id, p.Config(), p.Model()); err != nil {
			t.Fatal(err)
		}
	}
	// Second version for alpha, left unpromoted.
	if _, err := s.Put("alpha", p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	feats := probeFeatures(t, p, 2, 7)
	_, m1, err := s.Model("alpha")
	if err != nil {
		t.Fatal(err)
	}
	want := ham(m1, feats[0])

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Fatalf("reloaded %d tenants, want 2", s2.Len())
	}
	if cfg, ok := s2.BaseConfig(); !ok || cfg.D != 256 {
		t.Fatalf("base config lost: %+v %v", cfg, ok)
	}
	v, m2, err := s2.Model("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 1 {
		t.Fatalf("alpha live version %d after reload, want 1", v.ID)
	}
	if got := ham(m2, feats[0]); got != want {
		t.Fatal("reloaded model scores differ")
	}
	infos := s2.Tenants()
	if len(infos) != 2 || infos[0].ID != "alpha" || infos[0].Versions != 2 {
		t.Fatalf("Tenants() = %+v", infos)
	}
}

func TestFeedbackRoundIsolation(t *testing.T) {
	p := testPipeline(t, 256, 8)
	s, err := Open(Config{FeedbackBatch: 4, Epochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"learner", "frozen"} {
		if _, err := s.Seed(id, p.Config(), p.Model()); err != nil {
			t.Fatal(err)
		}
	}
	feats := probeFeatures(t, p, 8, 11)
	var promoted uint64
	for i, f := range feats {
		id, err := s.Feedback("learner", f, i%2)
		if err != nil {
			t.Fatal(err)
		}
		if id != 0 {
			promoted = id
		}
	}
	if promoted == 0 {
		t.Fatal("8 samples at batch 4 never promoted a round")
	}
	lv, _, err := s.Model("learner")
	if err != nil {
		t.Fatal(err)
	}
	if lv.ID != promoted {
		t.Fatalf("learner live = %d, want promoted round %d", lv.ID, promoted)
	}
	// The other tenant's lineage is untouched.
	fv, fm, err := s.Model("frozen")
	if err != nil {
		t.Fatal(err)
	}
	if fv.ID != 1 {
		t.Fatalf("frozen tenant advanced to version %d", fv.ID)
	}
	for c := range p.Model().Bin {
		if !reflect.DeepEqual(fm.Bin[c].Words(), p.Model().Bin[c].Words()) {
			t.Fatal("frozen tenant's class memory changed")
		}
	}
	// Feedback against bad labels / unknown tenants is rejected.
	if _, err := s.Feedback("learner", feats[0], 7); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := s.Feedback("ghost", feats[0], 0); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("feedback to unknown tenant = %v", err)
	}
}

func TestRetention(t *testing.T) {
	p := testPipeline(t, 256, 9)
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seed("acme", p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Put("acme", p.Config(), p.Model()); err != nil {
			t.Fatal(err)
		}
	}
	infos := s.Tenants()
	// Live (v1) and newest (v5) are protected; retention may hold a third
	// transiently but never more than retain+1.
	if infos[0].Versions > 3 {
		t.Fatalf("retention kept %d versions", infos[0].Versions)
	}
	files, err := filepath.Glob(filepath.Join(dir, "acme", "v*.hdfs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != infos[0].Versions {
		t.Fatalf("%d files on disk vs %d versions resident", len(files), infos[0].Versions)
	}
	// Reload still finds the live version.
	s2, err := Open(Config{Dir: dir, Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := s2.Live("acme"); err != nil || v.ID != 1 {
		t.Fatalf("live after retention reload = %+v, %v", v, err)
	}
}

func TestHostileBlobOnDisk(t *testing.T) {
	p := testPipeline(t, 256, 10)
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seed("acme", p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "acme", "v0000000001.hdfs")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A corrupt header must fail at Open (hard error, like the registry).
	bad := append([]byte(nil), blob...)
	bad[3] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("corrupt header accepted at Open")
	}
	// A corrupt payload passes the header index but must error (never
	// panic) at first materialization.
	bad = append([]byte(nil), blob...)
	bad[len(bad)-5] ^= 0xff
	truncated := bad[:len(bad)-40]
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("header-valid blob rejected at Open: %v", err)
	}
	if _, _, err := s2.Model("acme"); err == nil {
		t.Fatal("truncated payload materialized without error")
	}
}

// TestIncompatiblePutCreatesNoTenant: a Put whose config the store rejects
// leaves no empty tenant behind — nothing counted by Len (and so against
// MaxTenants), nothing listed, no directory.
func TestIncompatiblePutCreatesNoTenant(t *testing.T) {
	p := testPipeline(t, 256, 12)
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seed("acme", p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	other := p.Config()
	other.Seed++
	if _, err := s.Put("newco", other, p.Model()); err == nil {
		t.Fatal("incompatible config accepted")
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len after rejected Put = %d, want 1", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "newco")); !os.IsNotExist(err) {
		t.Fatalf("rejected Put left a tenant directory behind (stat err %v)", err)
	}
}

// TestPutIntoEmptyTenantAdoptsConfig: a tenant directory with no versions
// (a first Put whose file write failed) gives Open no config to adopt. A
// Put into that existing tenant must still adopt the store's base config,
// so a later incompatible Put for another tenant is refused.
func TestPutIntoEmptyTenantAdoptsConfig(t *testing.T) {
	p := testPipeline(t, 256, 14)
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "acme"), 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.BaseConfig(); ok {
		t.Fatal("empty tenant directory gave the store a base config")
	}
	if _, err := s.Put("acme", p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	other := p.Config()
	other.Seed++
	if _, err := s.Put("newco", other, p.Model()); err == nil {
		t.Fatal("incompatible config accepted for a second tenant")
	}
}

// TestTenantPromoteLeavesRegistryMetrics: the hdface_registry_* metrics
// describe the single-model registry; promoting a tenant version (each
// tenant is a registry lineage too) must not move them.
func TestTenantPromoteLeavesRegistryMetrics(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	p := testPipeline(t, 256, 13)
	reg, err := registry.Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	id, err := reg.Put(p.Config(), p.Model())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote(id); err != nil {
		t.Fatal(err)
	}
	liveGauge := obs.NewGauge("hdface_registry_live_version", "")
	promotes := obs.NewCounter("hdface_registry_promotes_total", "")
	live0, promotes0 := liveGauge.Value(), promotes.Value()
	if live0 != float64(id) {
		t.Fatalf("registry live gauge = %v after promoting %d", live0, id)
	}

	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Seed("acme", p.Config(), p.Model()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tid, err := s.Put("acme", p.Config(), p.Model())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Promote("acme", tid); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := s.Live("acme"); err != nil || v.ID != 4 {
		t.Fatalf("tenant live = %+v, %v; want version 4", v, err)
	}
	if got := liveGauge.Value(); got != live0 {
		t.Fatalf("hdface_registry_live_version moved on a tenant promote: %v -> %v", live0, got)
	}
	if got := promotes.Value(); got != promotes0 {
		t.Fatalf("hdface_registry_promotes_total moved on a tenant promote: %d -> %d", promotes0, got)
	}
}
