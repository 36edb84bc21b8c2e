package registry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hdface"
	"hdface/internal/hdc"
	"hdface/internal/hv"
)

// testConfig is small enough for fast model construction but realistic
// enough to exercise the snapshot path.
func testConfig() hdface.Config {
	return hdface.Config{D: 256, WorkingSize: 16, Workers: 1, Seed: 7}
}

// modelOf returns a version's model.
func modelOf(tb testing.TB, v *Version) *hdc.Model {
	tb.Helper()
	m, err := v.Model()
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// trainedModel builds a deterministic trained model; vary salt to get
// distinguishable versions.
func trainedModel(tb testing.TB, cfg hdface.Config, salt uint64) *hdc.Model {
	tb.Helper()
	r := hv.NewRNG(cfg.Seed ^ salt)
	var feats []*hv.Vector
	var labels []int
	protoA, protoB := hv.NewRand(r, cfg.D), hv.NewRand(r, cfg.D)
	for i := 0; i < 10; i++ {
		a := protoA.Clone()
		a.Xor(a, hv.NewRandBiased(r, cfg.D, 0.1))
		b := protoB.Clone()
		b.Xor(b, hv.NewRandBiased(r, cfg.D, 0.1))
		feats = append(feats, a, b)
		labels = append(labels, 0, 1)
	}
	m, err := hdc.Train(feats, labels, 2, hdc.TrainOpts{Seed: cfg.Seed ^ salt})
	if err != nil {
		tb.Fatal(err)
	}
	m.Finalize(cfg.Seed)
	return m
}

func TestPutPromoteRollback(t *testing.T) {
	cfg := testConfig()
	r, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Live() != nil {
		t.Fatal("fresh registry has a live version")
	}
	v1, err := r.Put(cfg, trainedModel(t, cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.Put(cfg, trainedModel(t, cfg, 2))
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 || v2 != 2 {
		t.Fatalf("IDs not monotonic from 1: %d, %d", v1, v2)
	}
	if r.Live() != nil {
		t.Fatal("Put must not change the live version")
	}
	if err := r.Promote(v1); err != nil {
		t.Fatal(err)
	}
	if live := r.Live(); live == nil || live.ID != v1 {
		t.Fatalf("live = %v, want version %d", live, v1)
	}
	if err := r.Promote(v2); err != nil {
		t.Fatal(err)
	}
	if live := r.Live(); live.ID != v2 {
		t.Fatalf("live = %d, want %d", live.ID, v2)
	}
	back, err := r.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back != v1 || r.Live().ID != v1 {
		t.Fatalf("rollback landed on %d, want %d", back, v1)
	}
	if _, err := r.Rollback(); err == nil {
		t.Fatal("rollback past the first promotion succeeded")
	}
	if err := r.Promote(99); err == nil {
		t.Fatal("promoting an unknown version succeeded")
	}
}

func TestPutValidation(t *testing.T) {
	cfg := testConfig()
	r, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put(cfg, nil); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := r.Put(cfg, trainedModel(t, cfg, 1)); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	if _, err := r.Put(other, trainedModel(t, other, 1)); err == nil {
		t.Fatal("config-incompatible version accepted")
	}
	// Workers and Train differences are compatible by design.
	alt := cfg
	alt.Workers = 8
	alt.Train.Epochs = 99
	if _, err := r.Put(alt, trainedModel(t, cfg, 3)); err != nil {
		t.Fatalf("throughput-only config change rejected: %v", err)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	r, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := trainedModel(t, cfg, 1), trainedModel(t, cfg, 2)
	v1, _ := r.Put(cfg, m1)
	v2, _ := r.Put(cfg, m2)
	if err := r.Promote(v1); err != nil {
		t.Fatal(err)
	}
	if err := r.Promote(v2); err != nil {
		t.Fatal(err)
	}

	// A second registry opened on the same dir sees the same state.
	r2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if live := r2.Live(); live == nil || live.ID != v2 {
		t.Fatalf("reloaded live = %v, want %d", live, v2)
	}
	got, err := r2.Get(v1)
	if err != nil {
		t.Fatalf("version %d lost across reload", v1)
	}
	gm := modelOf(t, got)
	for c := range m1.Classes {
		for i := range m1.Classes[c] {
			if gm.Classes[c][i] != m1.Classes[c][i] {
				t.Fatalf("version %d accumulator %d/%d differs after reload", v1, c, i)
			}
		}
	}
	// Rollback history survived too.
	back, err := r2.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if back != v1 {
		t.Fatalf("reloaded rollback landed on %d, want %d", back, v1)
	}
	// IDs stay monotonic across restart.
	v3, err := r2.Put(cfg, trainedModel(t, cfg, 3))
	if err != nil {
		t.Fatal(err)
	}
	if v3 != v2+1 {
		t.Fatalf("post-reload Put got ID %d, want %d", v3, v2+1)
	}
}

func TestRetentionGC(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	r, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := uint64(1); i <= 5; i++ {
		id, err := r.Put(cfg, trainedModel(t, cfg, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Promote(id); err != nil {
			t.Fatal(err)
		}
		last = id
	}
	list := r.List()
	if len(list) > 3 { // retain=2 plus history-protected entries
		t.Fatalf("GC kept %d versions: %v", len(list), list)
	}
	if live := r.Live(); live == nil || live.ID != last {
		t.Fatal("GC disturbed the live version")
	}
	// The live version's file must still exist.
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf(versionPattern, last))); err != nil {
		t.Fatalf("live version file GC'd: %v", err)
	}
}

// TestPromoteLeavesGCToPut: with retain >= 2, retention deletion happens in
// Put, never in the Promote that follows it. A Promote is a hot swap, and
// its only disk work is the LIVE write.
func TestPromoteLeavesGCToPut(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	const retain = 3
	r, err := Open(dir, retain)
	if err != nil {
		t.Fatal(err)
	}
	m := trainedModel(t, cfg, 1)
	for i := 0; i < 3*retain; i++ {
		id, err := r.Put(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		before := len(r.List())
		if before > retain {
			t.Fatalf("put %d: %d versions after Put, retain=%d", i, before, retain)
		}
		if err := r.Promote(id); err != nil {
			t.Fatal(err)
		}
		if after := len(r.List()); after != before {
			t.Fatalf("put %d: Promote changed the version count %d -> %d", i, before, after)
		}
	}
	// Rollback depth after a Promote is still retain-1 steps.
	for i := 0; i < retain-1; i++ {
		if _, err := r.Rollback(); err != nil {
			t.Fatalf("rollback %d: %v", i, err)
		}
	}
}

func TestLiveIsLockFreeUnderChurn(t *testing.T) {
	cfg := testConfig()
	r, err := Open("", 0)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := r.Put(cfg, trainedModel(t, cfg, 1))
	v2, _ := r.Put(cfg, trainedModel(t, cfg, 2))
	if err := r.Promote(v1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := r.Live()
				if v == nil {
					t.Error("live became nil mid-churn")
					return
				}
				if v.ID != v1 && v.ID != v2 {
					t.Errorf("live ID %d is neither promoted version", v.ID)
					return
				}
				if m, err := v.Model(); err != nil || m.D != cfg.D {
					t.Error("half-published version observed")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := r.Promote(v2); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// --- corruption handling: errors, never panics or silent fallbacks ---

func writeRegistryVersion(t *testing.T, dir string, id uint64, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(versionPattern, id)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func validBlob(t *testing.T) []byte {
	t.Helper()
	cfg := testConfig()
	var buf bytes.Buffer
	if err := hdface.EncodeSnapshot(&buf, cfg, trainedModel(t, cfg, 1)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOpenRejectsTruncatedVersion(t *testing.T) {
	dir := t.TempDir()
	blob := validBlob(t)
	writeRegistryVersion(t, dir, 1, blob[:len(blob)/2])
	if _, err := Open(dir, 0); err == nil {
		t.Fatal("truncated version file opened without error")
	}
}

func TestOpenRejectsBitFlippedVersion(t *testing.T) {
	blob := validBlob(t)
	// Flip a byte at several depths: magic, config, model payload. Every
	// corruption must surface as an error or parse into a structurally
	// valid model — silently adopting garbage is the failure mode.
	for _, off := range []int{0, 20, len(blob) / 2, len(blob) - 2} {
		dir := t.TempDir()
		corrupt := append([]byte(nil), blob...)
		corrupt[off] ^= 0xff
		r, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		_ = r
		writeRegistryVersion(t, dir, 1, corrupt)
		r2, err := Open(dir, 0)
		if err != nil {
			continue // rejected: good
		}
		v, err := r2.Get(1)
		var m *hdc.Model
		if err == nil {
			m, err = v.Model()
		}
		if err != nil || m.D <= 0 || m.K < 2 {
			t.Fatalf("offset %d: corruption accepted as invalid model", off)
		}
	}
}

func TestOpenRejectsVersionGapInHistory(t *testing.T) {
	dir := t.TempDir()
	writeRegistryVersion(t, dir, 2, validBlob(t))
	// LIVE references version 1, which does not exist on disk.
	if err := os.WriteFile(filepath.Join(dir, liveFile), []byte("1\n2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0); err == nil {
		t.Fatal("LIVE referencing a missing version opened without error")
	}
	// Garbage in LIVE is also an error, not an empty history.
	if err := os.WriteFile(filepath.Join(dir, liveFile), []byte("not-a-number\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0); err == nil {
		t.Fatal("garbage LIVE file opened without error")
	}
}

func TestOpenRejectsBadVersionFilename(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "v123.hdfs"), validBlob(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 0); err == nil {
		t.Fatal("malformed version filename opened without error")
	}
}

func TestOpenRejectsUntrainedSnapshot(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := hdface.EncodeSnapshot(&buf, testConfig(), nil); err != nil {
		t.Fatal(err)
	}
	writeRegistryVersion(t, dir, 1, buf.Bytes())
	if _, err := Open(dir, 0); err == nil {
		t.Fatal("model-less snapshot accepted as a registry version")
	}
}

// FuzzOpen extends the snapshot fuzz corpus to registry loading: arbitrary
// bytes dropped in as a version file must produce an error or a valid
// registry — never a panic and never a silently absent version.
func FuzzOpen(f *testing.F) {
	cfg := testConfig()
	var buf bytes.Buffer
	r := hv.NewRNG(1)
	feats := []*hv.Vector{hv.NewRand(r, cfg.D), hv.NewRand(r, cfg.D)}
	m, err := hdc.Train(feats, []int{0, 1}, 2, hdc.TrainOpts{})
	if err != nil {
		f.Fatal(err)
	}
	m.Finalize(1)
	if err := hdface.EncodeSnapshot(&buf, cfg, m); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	bitflip := append([]byte(nil), valid...)
	bitflip[len(bitflip)/2] ^= 0x01
	f.Add(bitflip)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(versionPattern, 1)), data, 0o644); err != nil {
			t.Skip()
		}
		reg, err := Open(dir, 0)
		if err != nil {
			return
		}
		v, err := reg.Get(1)
		if err != nil {
			t.Fatal("Open succeeded but silently dropped the version")
		}
		if m, err := v.Model(); err != nil || m.D <= 0 || m.K < 2 {
			t.Fatalf("structurally invalid model loaded: %+v, %v", m, err)
		}
	})
}

// TestFailedLiveWriteKeepsHistory: a LIVE write that fails must leave the
// in-memory promote history exactly as it was, so memory never drifts from
// what a restart would load. Two writers can fail: Promote with a full
// history (which would drop its oldest entry) and the retention trim GC
// runs after a Put.
func TestFailedLiveWriteKeepsHistory(t *testing.T) {
	cfg := testConfig()
	m := trainedModel(t, cfg, 1)
	put := func(r *Registry) uint64 {
		t.Helper()
		id, err := r.Put(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	promote := func(r *Registry, ids ...uint64) {
		t.Helper()
		for _, id := range ids {
			if err := r.Promote(id); err != nil {
				t.Fatal(err)
			}
		}
	}

	dir := t.TempDir()
	r, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := put(r), put(r)
	for i := 0; i < maxHistory/2; i++ {
		promote(r, a, b)
	}
	full := append([]uint64(nil), r.history...)
	c := put(r)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := r.Promote(c); err == nil {
		t.Fatal("Promote succeeded with its directory gone")
	}
	if !reflect.DeepEqual(r.history, full) {
		t.Fatalf("history after failed promote = %v, want %v", r.history, full)
	}
	if live := r.Live(); live == nil || live.ID != b {
		t.Fatalf("live after failed promote = %+v, want version %d", live, b)
	}

	// Retention trim: four history entries over two versions with retain=2;
	// the third Put pushes GC to trim the history, and that write fails
	// because LIVE has become a directory.
	dir = t.TempDir()
	if r, err = Open(dir, 2); err != nil {
		t.Fatal(err)
	}
	a, b = put(r), put(r)
	promote(r, a, b, a, b)
	before := append([]uint64(nil), r.history...)
	if err := os.Remove(filepath.Join(dir, liveFile)); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, liveFile), 0o755); err != nil {
		t.Fatal(err)
	}
	put(r)
	if !reflect.DeepEqual(r.history, before) {
		t.Fatalf("history after failed GC trim = %v, want %v", r.history, before)
	}
}
