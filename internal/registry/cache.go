package registry

import (
	"sync"
	"sync/atomic"

	"hdface/internal/hdc"
	"hdface/internal/obs"
)

// Only the tenant store gives registries a cache, so the cache's metrics
// keep their hdface_tenant_* names.
var (
	obsBlobs = obs.NewGauge("hdface_tenant_versions",
		"Total model versions resident (compact blobs) across all tenants.")
	obsMaterialized = obs.NewGauge("hdface_tenant_materialized_bytes",
		"Bytes of lazily materialized class memory currently cached.")
	obsMaterializations = obs.NewCounter("hdface_tenant_materializations_total",
		"Cold materializations of a compact blob into a scoring model.")
	obsEvictions = obs.NewCounter("hdface_tenant_evictions_total",
		"Materialized models evicted under the LRU byte budget.")
)

// Cache is the residency layer shared by a family of lazy registries: it
// counts their always-resident blobs and bounds their materialized class
// memory with one byte budget. Materialized versions sit in an LRU, most
// recently used first. Eviction demotes a version back to its blob by
// clearing the published model pointer — readers that already loaded the
// pointer keep a valid immutable model; the next reader pays a
// re-materialization. The list is intrusive (links live on Version), so
// touch/insert/remove are O(1) under one short mutex.
type Cache struct {
	mu         sync.Mutex
	budget     int64
	head, tail *Version // head = most recently used
	count      int
	bytes      int64
	evictions  atomic.Int64

	blobs, blobBytes atomic.Int64
}

// NewCache returns a cache that keeps at most budget bytes of class memory
// materialized.
func NewCache(budget int64) *Cache { return &Cache{budget: budget} }

// Open opens a lazy registry whose versions materialize through c: Open
// validates version headers only, Put stores compact hdface-model/v2 blobs,
// and class memory is decoded on first use. Otherwise it is registry.Open.
func (c *Cache) Open(dir string, retain int) (*Registry, error) {
	return open(dir, retain, c)
}

// CacheStats summarises a cache.
type CacheStats struct {
	Versions          int   // lazy versions resident as blobs
	BlobBytes         int64 // their total size
	Materialized      int   // versions whose class memory is decoded
	MaterializedBytes int64
	Evictions         int64
}

// Stats returns the cache's totals.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Versions:          int(c.blobs.Load()),
		BlobBytes:         c.blobBytes.Load(),
		Materialized:      c.count,
		MaterializedBytes: c.bytes,
		Evictions:         c.evictions.Load(),
	}
}

// add counts a new resident blob.
func (c *Cache) add(v *Version) {
	c.blobBytes.Add(int64(len(v.blob)))
	obsBlobs.Set(float64(c.blobs.Add(1)))
}

// touch moves v to the head. A version evicted between the caller's
// pointer load and the touch is left alone.
func (c *Cache) touch(v *Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !v.inLRU || c.head == v {
		return
	}
	c.unlink(v)
	c.pushFront(v)
}

// insert links a freshly materialized version at the head and evicts from
// the tail while over budget. The incoming version is never evicted, even
// when it alone exceeds the budget — a model in active use must stay.
func (c *Cache) insert(v *Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v.inLRU {
		return
	}
	c.pushFront(v)
	c.count++
	c.bytes += v.matBytes
	for c.bytes > c.budget && c.tail != nil && c.tail != v {
		c.evictLocked(c.tail)
	}
	obsMaterialized.Set(float64(c.bytes))
}

// remove forgets v (version deleted by retention GC). Safe to call for
// versions that were never materialized.
func (c *Cache) remove(v *Version) {
	c.blobBytes.Add(-int64(len(v.blob)))
	obsBlobs.Set(float64(c.blobs.Add(-1)))
	c.mu.Lock()
	defer c.mu.Unlock()
	if !v.inLRU {
		return
	}
	c.unlink(v)
	c.count--
	c.bytes -= v.matBytes
	v.mat.Store(nil)
	obsMaterialized.Set(float64(c.bytes))
}

// evictLocked demotes one version; caller holds c.mu.
func (c *Cache) evictLocked(v *Version) {
	c.unlink(v)
	c.count--
	c.bytes -= v.matBytes
	v.mat.Store(nil)
	c.evictions.Add(1)
	obsEvictions.Inc()
}

func (c *Cache) pushFront(v *Version) {
	v.inLRU = true
	v.lruPrev = nil
	v.lruNext = c.head
	if c.head != nil {
		c.head.lruPrev = v
	}
	c.head = v
	if c.tail == nil {
		c.tail = v
	}
}

func (c *Cache) unlink(v *Version) {
	if v.lruPrev != nil {
		v.lruPrev.lruNext = v.lruNext
	} else {
		c.head = v.lruNext
	}
	if v.lruNext != nil {
		v.lruNext.lruPrev = v.lruPrev
	} else {
		c.tail = v.lruPrev
	}
	v.lruPrev, v.lruNext = nil, nil
	v.inLRU = false
}

// materializedBytes estimates the decoded footprint: float accumulators,
// binarized words, slice headers.
func materializedBytes(m *hdc.Model) int64 {
	words := int64((m.D + 63) / 64)
	b := int64(m.K) * int64(m.D) * 8 // Classes
	if m.Bin != nil {
		b += int64(m.K) * words * 8
	}
	return b + 512
}
