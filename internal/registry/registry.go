// Package registry is a versioned store for trained hdface models built on
// the hdface-model snapshot formats. Versions carry only the trained class
// memory (the hypervector bases are rematerialised from Config.Seed by
// whoever serves them), so storing, promoting and rolling back models is
// nearly free: a version file for a D=4096 binary classifier is a few tens
// of kilobytes.
//
// A registry runs in one of two payload modes, chosen by whether it has a
// materialization Cache. Without one (Open, the single-model path) every
// version is decoded at Open, Put keeps the exact float model it was given
// and files are written as hdface-model/v1. With one (Cache.Open, one
// tenant lineage among thousands) Open indexes headers only, Put writes the
// compact hdface-model/v2 blob, and a version's class memory is decoded on
// first use and may be evicted under the cache's byte budget.
//
// The live version sits behind an atomic.Pointer: readers on the serving
// hot path call Live with no locks and can never observe a half-swapped
// model — a promote or rollback publishes a fully constructed *Version in
// one pointer store. All mutation (Put/Promote/Rollback) serialises on a
// mutex; persistence writes durably (temp file, fsync, rename) so a crash
// mid-write never leaves a torn version where a daemon expects one.
package registry

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hdface"
	"hdface/internal/atomicfile"
	"hdface/internal/hdc"
	"hdface/internal/obs"
	"hdface/internal/obs/trace"
)

// versionPattern names version files inside a registry dir. The zero
// padding keeps lexical and numeric order identical, which makes the dir
// listing human-auditable.
const versionPattern = "v%010d.hdfs"

// liveFile records the promote history, one ASCII version ID per line,
// last line = currently live. Keeping the history (not just the head)
// on disk is what lets Rollback survive a daemon restart.
const liveFile = "LIVE"

// maxHistory bounds the promote history; older entries fall off the front.
// Sixteen levels of rollback is far beyond any operational need.
const maxHistory = 16

// The hdface_registry_* metrics describe the single-model registry only; a
// registry with a Cache (a tenant lineage) leaves them alone.
var (
	obsLiveVersion = obs.NewGauge("hdface_registry_live_version",
		"Currently live model version ID (0 = none).")
	obsVersions = obs.NewGauge("hdface_registry_versions",
		"Number of model versions currently retained.")
	obsPromotes = obs.NewCounter("hdface_registry_promotes_total",
		"Model promotions (including rollback re-promotions).")
	obsRollbacks = obs.NewCounter("hdface_registry_rollbacks_total",
		"Model rollbacks.")
	obsGCDeleted = obs.NewCounter("hdface_registry_gc_deleted_total",
		"Model versions deleted by retention GC.")
)

// Version is one immutable trained model. The model must not be mutated
// after Put: the serving hot path reads it concurrently with no locks.
type Version struct {
	// ID is the monotonically increasing version number, unique within
	// one registry for its whole lifetime (IDs of deleted versions are
	// never reused).
	ID uint64

	cache *Cache // nil: eager, mat is set at construction and never cleared
	blob  []byte // lazy versions: the encoded snapshot, always resident

	// Materialization gate: mat is the published decoded model (nil =
	// not materialized); matMu serialises decoding so concurrent first
	// users decode once. A sync.Once cannot be reset after eviction,
	// hence the mutex + double-checked atomic pointer.
	matMu sync.Mutex
	mat   atomic.Pointer[hdc.Model]

	// LRU bookkeeping, guarded by cache.mu.
	lruPrev, lruNext *Version
	inLRU            bool
	matBytes         int64
}

// Model returns the version's trained classifier. An eager version returns
// it directly; a lazy one decodes its blob on first use (once per version
// and eviction, however many callers race) and errors, never panics, on a
// corrupt payload.
func (v *Version) Model() (*hdc.Model, error) {
	if m := v.mat.Load(); m != nil {
		if v.cache != nil {
			v.cache.touch(v)
		}
		return m, nil
	}
	v.matMu.Lock()
	defer v.matMu.Unlock()
	if m := v.mat.Load(); m != nil {
		v.cache.touch(v)
		return m, nil
	}
	_, m, err := hdface.DecodeSnapshotAuto(bytes.NewReader(v.blob))
	if err != nil {
		return nil, fmt.Errorf("registry: version %d: %w", v.ID, err)
	}
	if m == nil {
		return nil, fmt.Errorf("registry: version %d holds no trained model", v.ID)
	}
	v.matBytes = materializedBytes(m)
	v.mat.Store(m)
	v.cache.insert(v)
	obsMaterializations.Inc()
	return m, nil
}

// BlobBytes returns the size of a lazy version's always-resident blob (0
// for an eager version, which keeps only its decoded model).
func (v *Version) BlobBytes() int { return len(v.blob) }

// Materialized reports whether the decoded model is currently in memory.
func (v *Version) Materialized() bool { return v.mat.Load() != nil }

// Info describes one stored version for listings.
type Info struct {
	ID   uint64 `json:"id"`
	Live bool   `json:"live"`
}

// Registry stores versions, tracks the promote history and publishes the
// live version through an atomic pointer.
type Registry struct {
	mu       sync.Mutex
	dir      string // "" = in-memory only
	retain   int    // max versions kept; <=0 = unlimited
	cache    *Cache // nil = eager single-model registry
	cfg      hdface.Config
	haveCfg  bool
	versions map[uint64]*Version
	history  []uint64 // promote order; last = live
	nextID   uint64
	live     atomic.Pointer[Version]
}

// Open creates a single-model registry. With dir == "" it is purely
// in-memory. With a directory it loads every v*.hdfs version file and the
// LIVE history; any version file that fails to parse is a hard error — a
// corrupt registry must be repaired by an operator, never silently served
// around. retain bounds how many versions are kept on disk (<= 0 keeps
// all).
func Open(dir string, retain int) (*Registry, error) {
	return open(dir, retain, nil)
}

func open(dir string, retain int, cache *Cache) (*Registry, error) {
	r := &Registry{
		dir:      dir,
		retain:   retain,
		cache:    cache,
		versions: make(map[uint64]*Version),
	}
	if dir == "" {
		r.publish()
		return r, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "v") || !strings.HasSuffix(name, ".hdfs") {
			continue
		}
		id, err := parseVersionName(name)
		if err != nil {
			return nil, fmt.Errorf("registry: bad version file %q: %w", name, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("registry: %w", err)
		}
		v, cfg, err := r.decodeVersion(id, data)
		if err != nil {
			return nil, fmt.Errorf("registry: version %d: %w", id, err)
		}
		if !r.haveCfg {
			r.cfg, r.haveCfg = cfg, true
		} else if err := Compatible(r.cfg, cfg); err != nil {
			return nil, fmt.Errorf("registry: version %d: %w", id, err)
		}
		r.versions[id] = v
		if id > r.nextID {
			r.nextID = id
		}
	}
	if err := r.loadHistory(); err != nil {
		return nil, err
	}
	for _, v := range r.versions {
		r.account(v)
	}
	r.publish()
	return r, nil
}

// decodeVersion builds a version from its file: fully decoded for an eager
// registry, header-validated only for a lazy one (a corrupt payload then
// surfaces at first materialization).
func (r *Registry) decodeVersion(id uint64, data []byte) (*Version, hdface.Config, error) {
	v := &Version{ID: id, cache: r.cache}
	if r.cache != nil {
		cfg, hasModel, _, err := hdface.SnapshotInfo(bytes.NewReader(data))
		if err == nil && !hasModel {
			err = errors.New("snapshot holds no trained model")
		}
		v.blob = data
		return v, cfg, err
	}
	cfg, m, err := hdface.DecodeSnapshotAuto(bytes.NewReader(data))
	if err == nil && m == nil {
		err = errors.New("snapshot holds no trained model")
	}
	v.mat.Store(m)
	return v, cfg, err
}

func parseVersionName(name string) (uint64, error) {
	digits := strings.TrimSuffix(strings.TrimPrefix(name, "v"), ".hdfs")
	if len(digits) != 10 {
		return 0, fmt.Errorf("want v<10 digits>.hdfs")
	}
	id, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, err
	}
	if id == 0 {
		return 0, fmt.Errorf("version 0 is reserved")
	}
	return id, nil
}

// loadHistory reads the LIVE promote history. A history line referencing a
// version that is not on disk (a "version gap", e.g. a deleted or torn
// version file) is a hard error: silently serving some other version would
// be worse than refusing to start.
func (r *Registry) loadHistory() error {
	data, err := os.ReadFile(filepath.Join(r.dir, liveFile))
	if os.IsNotExist(err) {
		return nil // valid: nothing promoted yet
	}
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		id, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return fmt.Errorf("registry: LIVE entry %q: %w", line, err)
		}
		if _, ok := r.versions[id]; !ok {
			return fmt.Errorf("registry: LIVE references version %d which is not in the registry", id)
		}
		r.history = append(r.history, id)
	}
	return nil
}

// Config returns the config shared by every stored version, and whether
// the registry holds one yet (it adopts the config of the first Put, or
// of the on-disk versions at Open).
func (r *Registry) Config() (hdface.Config, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg, r.haveCfg
}

// Compatible reports whether two configs produce interchangeable models:
// everything that shapes feature extraction must match. Workers is purely
// a throughput knob and Train only shapes how a model was fitted, so both
// are ignored.
func Compatible(a, b hdface.Config) error {
	a.Workers, b.Workers = 0, 0
	a.Train, b.Train = hdc.TrainOpts{}, hdc.TrainOpts{}
	if a != b {
		return fmt.Errorf("registry: config mismatch: %+v vs %+v", a, b)
	}
	return nil
}

// Put stores a new version and returns its ID. The registry takes
// ownership of the model: it must not be mutated afterwards. Put does not
// change which version is live — call Promote for that.
func (r *Registry) Put(cfg hdface.Config, m *hdc.Model) (uint64, error) {
	if m == nil {
		return 0, fmt.Errorf("registry: Put: nil model")
	}
	if m.D != cfg.D {
		return 0, fmt.Errorf("registry: Put: model D=%d != config D=%d", m.D, cfg.D)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.haveCfg {
		r.cfg, r.haveCfg = cfg, true
	} else if err := Compatible(r.cfg, cfg); err != nil {
		return 0, err
	}
	id := r.nextID + 1
	v := &Version{ID: id, cache: r.cache}
	var buf bytes.Buffer
	var err error
	switch {
	case r.cache != nil:
		err = hdface.EncodeSnapshotV2(&buf, cfg, m)
		v.blob = buf.Bytes()
	case r.dir != "":
		err = hdface.EncodeSnapshot(&buf, cfg, m)
		v.mat.Store(m)
	default:
		v.mat.Store(m)
	}
	if err != nil {
		return 0, fmt.Errorf("registry: encode version %d: %w", id, err)
	}
	if r.dir != "" {
		if err := r.write(fmt.Sprintf(versionPattern, id), buf.Bytes()); err != nil {
			return 0, err
		}
	}
	r.nextID = id
	r.versions[id] = v
	r.account(v)
	r.gcLocked()
	return id, nil
}

// account records a newly indexed version in the cache, or in the
// single-model gauge. Caller holds mu (or is Open).
func (r *Registry) account(v *Version) {
	if r.cache != nil {
		r.cache.add(v)
	} else {
		obsVersions.Set(float64(len(r.versions)))
	}
}

// ErrUnknownVersion reports a version ID the registry never allocated.
var ErrUnknownVersion = errors.New("registry: unknown version")

// ErrNoLive reports a registry with nothing promoted yet.
var ErrNoLive = errors.New("registry: no live version")

// GoneError reports a version that once existed but has since been deleted
// by retention GC — the race a caller hits when it holds an ID across a Put
// burst. It is distinguishable from ErrUnknownVersion so callers can tell
// "retry with a fresher ID" from "this ID is garbage".
type GoneError struct{ ID uint64 }

func (e *GoneError) Error() string {
	return fmt.Sprintf("registry: version %d was deleted by retention GC", e.ID)
}

// lookupLocked resolves an ID to a version or a typed error: *GoneError for
// an allocated-then-GC'd ID, ErrUnknownVersion otherwise. Caller holds mu.
func (r *Registry) lookupLocked(id uint64) (*Version, error) {
	if v, ok := r.versions[id]; ok {
		return v, nil
	}
	if id >= 1 && id <= r.nextID {
		return nil, &GoneError{ID: id}
	}
	return nil, fmt.Errorf("%w: %d", ErrUnknownVersion, id)
}

// Get returns a stored version. A nil error guarantees a non-nil version;
// otherwise the error is *GoneError when the ID was valid but the version
// lost the race against retention GC, or wraps ErrUnknownVersion when the
// ID was never allocated.
func (r *Registry) Get(id uint64) (*Version, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookupLocked(id)
}

// Promote makes version id live. The swap is atomic: in-flight readers
// keep the version they already loaded, new readers see the promoted one.
// Promoting a GC'd version reports *GoneError, like Get.
func (r *Registry) Promote(id uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.lookupLocked(id); err != nil {
		return fmt.Errorf("registry: Promote: %w", err)
	}
	var from uint64
	if cur := r.live.Load(); cur != nil {
		if cur.ID == id {
			return nil // already live; keep history clean
		}
		from = cur.ID
	}
	h := append(r.history[:len(r.history):len(r.history)], id)
	if err := r.setHistory(r.capHistory(h)); err != nil {
		return err
	}
	r.publish()
	r.gcLocked() // deletes only when Put could not make room (e.g. retain 1)
	if r.cache == nil {
		obsPromotes.Inc()
		swapTrace("promote", from, id)
	}
	return nil
}

// swapTrace records a live-slot swap as a short trace so /debug/traces
// shows when the serving model changed — the event that explains a
// score discontinuity mid-trajectory. No-op while tracing is disabled.
func swapTrace(op string, from, to uint64) {
	tr := trace.New("registry_swap", "")
	if tr == nil {
		return
	}
	tr.SetAttr("op", op)
	tr.SetAttr("from_version", strconv.FormatUint(from, 10))
	tr.SetAttr("to_version", strconv.FormatUint(to, 10))
	tr.Finish()
}

// Rollback pops the promote history, making the previously live version
// live again. It returns the version that is live after the rollback.
func (r *Registry) Rollback() (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.history) < 2 {
		return 0, fmt.Errorf("registry: Rollback: no previous version to roll back to")
	}
	popped := r.history[len(r.history)-1]
	if err := r.setHistory(r.history[:len(r.history)-1]); err != nil {
		return 0, err
	}
	r.publish()
	live := r.history[len(r.history)-1]
	if r.cache == nil {
		obsRollbacks.Inc()
		swapTrace("rollback", popped, live)
	}
	return live, nil
}

// Live returns the current live version, or nil if nothing has been
// promoted. It is lock-free and safe from any goroutine; the returned
// version is immutable.
func (r *Registry) Live() *Version {
	return r.live.Load()
}

// LiveModel returns the live version and its materialized model, or
// ErrNoLive when nothing has been promoted.
func (r *Registry) LiveModel() (*Version, *hdc.Model, error) {
	v := r.live.Load()
	if v == nil {
		return nil, nil, ErrNoLive
	}
	m, err := v.Model()
	if err != nil {
		return nil, nil, err
	}
	return v, m, nil
}

// List returns stored versions in ascending ID order.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	liveID := uint64(0)
	if v := r.live.Load(); v != nil {
		liveID = v.ID
	}
	out := make([]Info, 0, len(r.versions))
	for id := range r.versions {
		out = append(out, Info{ID: id, Live: id == liveID})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// publish rebuilds the live pointer from the history tail. Caller holds mu
// (or is the not-yet-shared constructor).
func (r *Registry) publish() {
	var v *Version
	if len(r.history) > 0 {
		v = r.versions[r.history[len(r.history)-1]]
	}
	r.live.Store(v)
	if r.cache == nil {
		id := uint64(0)
		if v != nil {
			id = v.ID
		}
		obsLiveVersion.Set(float64(id))
	}
}

// capHistory bounds a promote history: at maxHistory always, and one
// below the retention bound while the versions overflow it. An unbounded
// history would protect every version ever promoted from GC; leaving one
// slot below retain lets the GC that runs in Put (history plus the newest
// version protected) delete, so a Promote that follows finds the versions
// within bounds and deletes nothing itself. Caller holds mu.
func (r *Registry) capHistory(h []uint64) []uint64 {
	keep := maxHistory
	if r.retain > 0 && len(r.versions) > r.retain {
		keep = min(keep, max(r.retain-1, 1))
	}
	if len(h) > keep {
		h = h[len(h)-keep:]
	}
	return h
}

// setHistory persists h as the LIVE history and adopts it. On a failed
// write the in-memory history is left exactly as it was, so memory never
// drifts from what a restart would load. Caller holds mu; h must not share
// a backing array that setHistory's callers still mutate.
func (r *Registry) setHistory(h []uint64) error {
	if r.dir != "" {
		var buf bytes.Buffer
		for _, id := range h {
			fmt.Fprintf(&buf, "%d\n", id)
		}
		if err := r.write(liveFile, buf.Bytes()); err != nil {
			return err
		}
	}
	r.history = h
	return nil
}

// gcLocked enforces the retention bound: delete the oldest versions that
// are neither live nor in the (retention-trimmed) rollback history until
// at most retain remain. Caller holds mu.
func (r *Registry) gcLocked() {
	if r.retain <= 0 || len(r.versions) <= r.retain {
		return
	}
	// The trimmed LIVE file is written before any version file is deleted,
	// so a crash in between never leaves a dangling history entry (which
	// Open treats as a hard error).
	if h := r.capHistory(r.history); len(h) < len(r.history) {
		if err := r.setHistory(h); err != nil {
			return // skip GC rather than risk a version gap
		}
	}
	protected := make(map[uint64]bool, len(r.history)+1)
	for _, id := range r.history {
		protected[id] = true
	}
	// The newest version is always kept: a Put immediately followed by
	// Promote must never find its candidate GC'd in between.
	protected[r.nextID] = true
	ids := make([]uint64, 0, len(r.versions))
	for id := range r.versions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if len(r.versions) <= r.retain {
			break
		}
		if protected[id] {
			continue
		}
		v := r.versions[id]
		delete(r.versions, id)
		if r.dir != "" {
			// Best-effort: a leftover file is re-deleted on a later GC
			// pass or flagged at the next Open.
			os.Remove(filepath.Join(r.dir, fmt.Sprintf(versionPattern, id)))
		}
		if r.cache != nil {
			r.cache.remove(v)
		} else {
			obsGCDeleted.Inc()
		}
	}
	if r.cache == nil {
		obsVersions.Set(float64(len(r.versions)))
	}
}

// write persists one file under the registry dir durably.
func (r *Registry) write(name string, data []byte) error {
	if err := atomicfile.WriteFile(filepath.Join(r.dir, name), data); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return nil
}

// MigrateV2 rewrites every hdface-model/v1 version file under dir in the
// compact v2 format, durably and in place, returning how many files were
// migrated and how many were already compact. It must not race an open
// registry on the same dir — run it offline or before Open. Models are
// re-encoded exactly as stored: binarised memory bit-for-bit, float
// accumulators quantised to int16 steps.
func MigrateV2(dir string) (migrated, skipped int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, fmt.Errorf("registry: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "v") || !strings.HasSuffix(name, ".hdfs") {
			continue
		}
		if _, err := parseVersionName(name); err != nil {
			return migrated, skipped, fmt.Errorf("registry: bad version file %q: %w", name, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return migrated, skipped, fmt.Errorf("registry: %w", err)
		}
		if _, _, compact, err := hdface.SnapshotInfo(bytes.NewReader(data)); err != nil {
			return migrated, skipped, fmt.Errorf("registry: %s: %w", name, err)
		} else if compact {
			skipped++
			continue
		}
		cfg, m, err := hdface.DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return migrated, skipped, fmt.Errorf("registry: %s: %w", name, err)
		}
		var buf bytes.Buffer
		if err := hdface.EncodeSnapshotV2(&buf, cfg, m); err != nil {
			return migrated, skipped, fmt.Errorf("registry: %s: %w", name, err)
		}
		if err := atomicfile.WriteFile(filepath.Join(dir, name), buf.Bytes()); err != nil {
			return migrated, skipped, fmt.Errorf("registry: %w", err)
		}
		migrated++
	}
	return migrated, skipped, nil
}
