package registry

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"hdface/internal/hdc"
)

// TestGCRacesPromoteRollback hammers a tightly-retained, disk-backed
// registry with concurrent Put+Promote, Rollback and reader goroutines.
// The contract under fire: retention GC must never delete the live
// version or any promote-history ancestor (so Rollback always lands on a
// version that still exists), Live() is never a dangling pointer, and the
// directory left behind reopens cleanly — no history entry pointing at a
// deleted file. A Promote may legitimately lose its candidate to GC when
// competing promoters churn versions past the retention bound between its
// Put and its Promote; that must surface as a clean error, never as a
// corrupt registry. Run with -race.
func TestGCRacesPromoteRollback(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	const retain = 3
	r, err := Open(dir, retain)
	if err != nil {
		t.Fatal(err)
	}

	// Models are built up front: construction dominates the loop body and
	// the race we want lives in the registry, not in hdc.Train.
	const promoters, rounds = 4, 25
	pool := make([]*hdc.Model, promoters*rounds)
	for i := range pool {
		pool[i] = trainedModel(t, cfg, uint64(i+1))
	}

	var (
		churners  sync.WaitGroup
		writers   sync.WaitGroup
		stop      atomic.Bool
		promoteOK atomic.Int64
		gcLost    atomic.Int64
	)

	for p := 0; p < promoters; p++ {
		writers.Add(1)
		go func(p int) {
			defer writers.Done()
			for i := 0; i < rounds; i++ {
				id, err := r.Put(cfg, pool[p*rounds+i])
				if err != nil {
					t.Errorf("promoter %d: Put: %v", p, err)
					return
				}
				if err := r.Promote(id); err != nil {
					// The only legitimate failure mode: the candidate
					// was GC'd between Put and Promote by a competing
					// promoter's churn — reported as a typed *GoneError.
					var gone *GoneError
					if !errors.As(err, &gone) {
						t.Errorf("promoter %d: Promote(%d): %v", p, id, err)
						return
					}
					gcLost.Add(1)
					continue
				}
				promoteOK.Add(1)
			}
		}(p)
	}

	// Rollback churner: pops promote history while GC trims it.
	churners.Add(1)
	go func() {
		defer churners.Done()
		for !stop.Load() {
			if id, err := r.Rollback(); err == nil {
				// The version Rollback landed on must exist for as long
				// as it stays live — GC protecting history ancestors is
				// the whole point. (Once further promotes push it out of
				// the trimmed history it may be collected; only flag the
				// miss if it is still the live version.)
				if _, err := r.Get(id); err != nil {
					if lv := r.Live(); lv != nil && lv.ID == id {
						t.Errorf("live rollback target %d GC'd", id)
						return
					}
				}
			}
		}
	}()

	// Readers: the serving hot path's lock-free live loads under churn.
	for g := 0; g < 2; g++ {
		churners.Add(1)
		go func() {
			defer churners.Done()
			for !stop.Load() {
				if v := r.Live(); v != nil {
					if m, err := v.Model(); err != nil || m == nil {
						t.Error("live version with nil model")
						return
					}
					// A version must never be GC'd out of the map while
					// still published. Between our Live() and Get() the
					// slot may swap and the old version legally collect
					// (in-flight readers keep their pointer), so only
					// flag the miss when v is still the live version.
					if _, err := r.Get(v.ID); err != nil && r.Live() == v {
						t.Errorf("live version %d missing from store", v.ID)
						return
					}
				}
				r.List()
			}
		}()
	}

	writers.Wait()
	stop.Store(true)
	churners.Wait()

	if t.Failed() {
		return
	}
	if promoteOK.Load() == 0 {
		t.Fatal("no Promote ever succeeded — the stress exercised nothing")
	}

	// The directory must reopen cleanly: no history entry referencing a
	// deleted version file, no corrupt snapshot from racing writes, and
	// the same live version an operator saw before the restart.
	r2, err := Open(dir, retain)
	if err != nil {
		t.Fatalf("registry did not survive the stress: %v", err)
	}
	live := r.Live()
	if live == nil {
		t.Fatal("no live version after a round of successful promotes")
	}
	relive := r2.Live()
	if relive == nil || relive.ID != live.ID {
		t.Fatalf("reopened live = %+v, want version %d", relive, live.ID)
	}
	t.Logf("promoted=%d gc-lost=%d live=%d", promoteOK.Load(), gcLost.Load(), live.ID)
}
