// Package tenant is a compact multi-tenant model store: thousands of
// per-tenant trained detectors resident in a single serving daemon.
//
// It leans on the paper's holographic property the same way snapshots do,
// but pushed to its limit: a trained model is fully determined by its
// Config (whose Seed rematerializes every hypervector basis) plus its
// class memory. Each tenant is one registry.Registry lineage, opened lazy
// through the store's shared registry.Cache: versions stay resident as
// compact hdface-model/v2 blobs — a few KB each — and their class memory is
// materialized on first use and evicted under one store-wide byte budget.
// In-flight readers keep the immutable *hdc.Model they already loaded.
//
// Versioning, promote, rollback history, retention GC and durable writes
// are the registry's; on disk a tenant is a registry directory under
// Config.Dir. The store adds tenant routing, one shared base config, and
// per-tenant feedback rounds.
package tenant

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"hdface"
	"hdface/internal/hdc"
	"hdface/internal/hv"
	"hdface/internal/obs"
	"hdface/internal/registry"
)

var (
	obsTenants = obs.NewGauge("hdface_tenant_tenants",
		"Number of tenants resident in the store.")
	obsSwaps = obs.NewCounter("hdface_tenant_swaps_total",
		"Per-tenant live-slot swaps (promotes).")
	obsFeedback = obs.NewCounter("hdface_tenant_feedback_total",
		"Per-tenant feedback samples accepted.")
	obsRounds = obs.NewCounter("hdface_tenant_rounds_total",
		"Per-tenant online-learning rounds (batch trained + promoted).")
)

// Typed errors, so serve can map them to precise HTTP statuses. ErrNoLive
// is the registry's: a tenant is a registry lineage.
var (
	ErrUnknownTenant = errors.New("tenant: unknown tenant")
	ErrNoLive        = registry.ErrNoLive
	ErrTooMany       = errors.New("tenant: tenant limit reached")
	ErrBadFeedback   = errors.New("tenant: bad feedback sample")
)

const maxIDLen = 64

// Config shapes a Store.
type Config struct {
	// Dir is the persistence root (one subdirectory per tenant); "" keeps
	// the store purely in-memory.
	Dir string
	// BudgetBytes bounds the total materialized class memory; least
	// recently used models are demoted back to their compact blobs when
	// the budget overflows. <= 0 means the 256 MiB default.
	BudgetBytes int64
	// Retain bounds versions kept per tenant (older non-live versions are
	// deleted). <= 0 means the default of 4.
	Retain int
	// FeedbackBatch is the number of feedback samples that triggers an
	// online-learning round for a tenant. <= 0 means the default of 16.
	FeedbackBatch int
	// Epochs is the number of refinement passes per round. <= 0 means 3.
	Epochs int
	// MaxTenants bounds the tenant count. <= 0 means the default of 65536.
	MaxTenants int
	// TrainOpts shapes the per-round Update passes.
	TrainOpts hdc.TrainOpts
}

func (c Config) withDefaults() Config {
	if c.BudgetBytes <= 0 {
		c.BudgetBytes = 256 << 20
	}
	if c.Retain <= 0 {
		c.Retain = 4
	}
	if c.FeedbackBatch <= 0 {
		c.FeedbackBatch = 16
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 1 << 16
	}
	return c
}

// Store holds every tenant. Reads on the scoring path take only the
// tenants RWMutex read lock plus (on a cache hit) the short LRU lock.
type Store struct {
	cfg   Config
	cache *registry.Cache

	mu      sync.RWMutex // guards tenants map and base config adoption
	tenants map[string]*Tenant
	baseCfg hdface.Config
	haveCfg bool
}

// Tenant is one isolated model lineage: its own registry, feedback batch
// and counters.
type Tenant struct {
	id  string
	reg *registry.Registry

	mu          sync.Mutex // feedback batch and rounds
	batchFeats  []*hv.Vector
	batchLabels []int

	requests atomic.Int64
	feedback atomic.Int64
	rounds   atomic.Int64
	swaps    atomic.Int64
}

// ValidID reports whether a tenant ID is acceptable: 1-64 chars of
// [A-Za-z0-9._-], not starting with a dot (IDs name directories, so this
// also rules out path traversal and hidden files).
func ValidID(id string) error {
	if id == "" || len(id) > maxIDLen {
		return fmt.Errorf("tenant: id must be 1-%d characters", maxIDLen)
	}
	if id[0] == '.' {
		return errors.New("tenant: id must not start with a dot")
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("tenant: id contains invalid character %q", r)
		}
	}
	return nil
}

// Open creates a store, loading every persisted tenant when cfg.Dir is
// set. Only blob headers are decoded at open — config validation and
// compatibility, not class memory — so opening thousands of versions is
// cheap; a corrupt payload surfaces on first materialization instead.
func Open(cfg Config) (*Store, error) {
	s := &Store{cfg: cfg.withDefaults(), tenants: make(map[string]*Tenant)}
	s.cache = registry.NewCache(s.cfg.BudgetBytes)
	if cfg.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		if err := ValidID(id); err != nil {
			return nil, fmt.Errorf("tenant: directory %q: %w", id, err)
		}
		reg, err := s.cache.Open(filepath.Join(cfg.Dir, id), s.cfg.Retain)
		if err != nil {
			return nil, fmt.Errorf("tenant: %s: %w", id, err)
		}
		if rc, ok := reg.Config(); ok {
			if err := s.adoptConfig(rc); err != nil {
				return nil, fmt.Errorf("tenant: %s: %w", id, err)
			}
		}
		s.tenants[id] = &Tenant{id: id, reg: reg}
	}
	obsTenants.Set(float64(len(s.tenants)))
	return s, nil
}

// adoptConfig records the first config seen and requires every later one
// to be interchangeable with it (same bases, same feature extraction): the
// whole store shares one pipeline, only class memory differs per tenant.
// Caller holds s.mu (or is Open).
func (s *Store) adoptConfig(cfg hdface.Config) error {
	if !s.haveCfg {
		s.baseCfg, s.haveCfg = cfg, true
		return nil
	}
	return registry.Compatible(s.baseCfg, cfg)
}

// BaseConfig returns the config shared by every stored version, and
// whether the store holds one yet.
func (s *Store) BaseConfig() (hdface.Config, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.baseCfg, s.haveCfg
}

// tenant resolves an ID with only the read lock.
func (s *Store) tenant(id string) (*Tenant, error) {
	s.mu.RLock()
	t := s.tenants[id]
	s.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("%w %q", ErrUnknownTenant, id)
	}
	return t, nil
}

// getOrCreate resolves or creates a tenant for a version of config cfg.
// The config is adopted as, or checked against, the store's before
// anything is created, so a rejected Put leaves no tenant (and no
// directory) behind, and every path into the store, an existing tenant's
// included, agrees on one base config.
func (s *Store) getOrCreate(id string, cfg hdface.Config) (*Tenant, error) {
	if err := ValidID(id); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.adoptConfig(cfg); err != nil {
		return nil, err
	}
	if t, ok := s.tenants[id]; ok {
		return t, nil
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, fmt.Errorf("%w (%d)", ErrTooMany, s.cfg.MaxTenants)
	}
	dir := ""
	if s.cfg.Dir != "" {
		dir = filepath.Join(s.cfg.Dir, id)
	}
	reg, err := s.cache.Open(dir, s.cfg.Retain)
	if err != nil {
		return nil, fmt.Errorf("tenant: %s: %w", id, err)
	}
	t := &Tenant{id: id, reg: reg}
	s.tenants[id] = t
	obsTenants.Set(float64(len(s.tenants)))
	return t, nil
}

// Put stores a new version for a tenant (creating the tenant on first
// use) and returns its ID. The model must be finalized: the compact form
// exists to carry binarized class memory to the serving hot path. Put
// does not change which version is live — call Promote for that.
func (s *Store) Put(tenantID string, cfg hdface.Config, m *hdc.Model) (uint64, error) {
	if m == nil {
		return 0, errors.New("tenant: Put: nil model")
	}
	if m.Bin == nil {
		return 0, errors.New("tenant: Put: model not finalized (no binarized class memory)")
	}
	if m.D != cfg.D {
		return 0, fmt.Errorf("tenant: Put: model D=%d != config D=%d", m.D, cfg.D)
	}
	t, err := s.getOrCreate(tenantID, cfg)
	if err != nil {
		return 0, err
	}
	return t.reg.Put(cfg, m)
}

// Promote makes a stored version the tenant's live model. The swap itself
// is one atomic pointer store; scoring requests are never blocked by it
// (they read the live slot lock-free and keep whatever model pointer they
// already hold).
func (s *Store) Promote(tenantID string, id uint64) error {
	t, err := s.tenant(tenantID)
	if err != nil {
		return err
	}
	return t.promote(id)
}

func (t *Tenant) promote(id uint64) error {
	if err := t.reg.Promote(id); err != nil {
		return fmt.Errorf("tenant: %s: %w", t.id, err)
	}
	t.swaps.Add(1)
	obsSwaps.Inc()
	return nil
}

// Seed is Put followed by Promote: the way a new tenant is born from a
// base model (typically the registry's live version).
func (s *Store) Seed(tenantID string, cfg hdface.Config, m *hdc.Model) (uint64, error) {
	id, err := s.Put(tenantID, cfg, m)
	if err != nil {
		return 0, err
	}
	return id, s.Promote(tenantID, id)
}

// Registry resolves a tenant's model lineage for one request, counting
// the request against the tenant.
func (s *Store) Registry(tenantID string) (*registry.Registry, error) {
	t, err := s.tenant(tenantID)
	if err != nil {
		return nil, err
	}
	t.requests.Add(1)
	return t.reg, nil
}

// Live returns the tenant's live version without materializing it.
func (s *Store) Live(tenantID string) (*registry.Version, error) {
	t, err := s.tenant(tenantID)
	if err != nil {
		return nil, err
	}
	v := t.reg.Live()
	if v == nil {
		return nil, fmt.Errorf("tenant: %s: %w", tenantID, ErrNoLive)
	}
	return v, nil
}

// Model resolves the tenant's live version and materializes it, counting
// one scoring request against the tenant.
func (s *Store) Model(tenantID string) (*registry.Version, *hdc.Model, error) {
	reg, err := s.Registry(tenantID)
	if err != nil {
		return nil, nil, err
	}
	v, m, err := reg.LiveModel()
	if err != nil {
		return nil, nil, fmt.Errorf("tenant: %s: %w", tenantID, err)
	}
	return v, m, nil
}

// Feedback records one labelled sample for a tenant. Once the tenant's
// batch fills, a round runs synchronously: clone the live model, refine it
// over the batch, finalize, store and promote the result. The returned ID
// is non-zero when a new version went live.
func (s *Store) Feedback(tenantID string, f *hv.Vector, label int) (uint64, error) {
	t, err := s.tenant(tenantID)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	_, m, err := t.reg.LiveModel()
	if err != nil {
		return 0, fmt.Errorf("tenant: %s: %w", tenantID, err)
	}
	if f == nil || f.D() != m.D {
		return 0, fmt.Errorf("%w: feature dimensionality mismatch", ErrBadFeedback)
	}
	if label < 0 || label >= m.K {
		return 0, fmt.Errorf("%w: label %d outside [0, %d)", ErrBadFeedback, label, m.K)
	}
	t.batchFeats = append(t.batchFeats, f)
	t.batchLabels = append(t.batchLabels, label)
	t.feedback.Add(1)
	obsFeedback.Inc()
	if len(t.batchFeats) < s.cfg.FeedbackBatch {
		return 0, nil
	}
	cand := m.Clone()
	for e := 0; e < s.cfg.Epochs; e++ {
		mistakes, err := cand.Update(t.batchFeats, t.batchLabels, s.cfg.TrainOpts)
		if err != nil {
			return 0, fmt.Errorf("tenant: %s: round: %w", tenantID, err)
		}
		if mistakes == 0 {
			break
		}
	}
	cfg, _ := t.reg.Config()
	cand.Finalize(cfg.FinalizeSeed())
	t.batchFeats = t.batchFeats[:0]
	t.batchLabels = t.batchLabels[:0]
	id, err := t.reg.Put(cfg, cand)
	if err != nil {
		return 0, err
	}
	if err := t.promote(id); err != nil {
		return 0, err
	}
	t.rounds.Add(1)
	obsRounds.Inc()
	return id, nil
}

// Info describes one tenant for listings and per-tenant counters.
type Info struct {
	ID           string `json:"id"`
	Versions     int    `json:"versions"`
	LiveVersion  uint64 `json:"live_version"`
	Materialized bool   `json:"materialized"`
	BlobBytes    int64  `json:"blob_bytes"`
	Requests     int64  `json:"requests"`
	Feedback     int64  `json:"feedback"`
	Rounds       int64  `json:"rounds"`
	Swaps        int64  `json:"swaps"`
}

// Tenants lists every tenant in ID order.
func (s *Store) Tenants() []Info {
	ts := s.snapshot()
	out := make([]Info, 0, len(ts))
	for _, t := range ts {
		versions := t.reg.List()
		info := Info{
			ID:       t.id,
			Versions: len(versions),
			Requests: t.requests.Load(),
			Feedback: t.feedback.Load(),
			Rounds:   t.rounds.Load(),
			Swaps:    t.swaps.Load(),
		}
		for _, vi := range versions {
			if v, err := t.reg.Get(vi.ID); err == nil {
				info.BlobBytes += int64(v.BlobBytes())
			}
		}
		if v := t.reg.Live(); v != nil {
			info.LiveVersion = v.ID
			info.Materialized = v.Materialized()
		}
		out = append(out, info)
	}
	return out
}

// snapshot returns the tenants in ID order.
func (s *Store) snapshot() []*Tenant {
	s.mu.RLock()
	ts := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.RUnlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
	return ts
}

// Stats summarises the store.
type Stats struct {
	Tenants           int   `json:"tenants"`
	Versions          int   `json:"versions"`
	BlobBytes         int64 `json:"blob_bytes"`
	MaterializedCount int   `json:"materialized"`
	MaterializedBytes int64 `json:"materialized_bytes"`
	BudgetBytes       int64 `json:"budget_bytes"`
	Evictions         int64 `json:"evictions"`
}

// Stats returns store-wide totals.
func (s *Store) Stats() Stats {
	cs := s.cache.Stats()
	return Stats{
		Tenants:           s.Len(),
		Versions:          cs.Versions,
		BlobBytes:         cs.BlobBytes,
		MaterializedCount: cs.Materialized,
		MaterializedBytes: cs.MaterializedBytes,
		BudgetBytes:       s.cfg.BudgetBytes,
		Evictions:         cs.Evictions,
	}
}

// Len returns the tenant count.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.tenants)
}
