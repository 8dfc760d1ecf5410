// The prepared-pipeline cache: an LRU of replica pools keyed by matrix,
// solver hierarchy, machine, partition strategy and backend, with a pattern
// index through which a pool is adopted by a system whose values differ but
// whose sparsity pattern does not.

package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"hash/fnv"

	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/ipu"
)

// Key identifies one prepared pipeline: the exact matrix (fingerprint over
// structure and values), the solver hierarchy (hash of its canonical JSON),
// the simulated machine and the partition strategy. Two solves sharing a Key
// can share a compiled program.
type Key struct {
	Matrix   uint64
	Config   uint64
	Machine  ipu.Config
	Strategy core.PartitionStrategy
	Backend  string // canonical backend name; sim and native replicas never mix
}

// configHash digests the solver-relevant blocks of a configuration via their
// canonical JSON (field order is fixed by the struct definitions).
func configHash(c config.Config) uint64 {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	_ = enc.Encode(struct {
		S config.SolverConfig    `json:"s"`
		M *config.MPIRConfig     `json:"m"`
		R *config.RecoveryConfig `json:"r"`
	}{c.Solver, c.MPIR, c.Recovery})
	return h.Sum64()
}

// entry is one cache slot: a pool of idle Prepared replicas for a key. idle
// is buffered to ReplicasPerKey and created never exceeds that, so returning
// a replica never blocks — even after the entry was evicted, which lets
// in-flight jobs drain against evicted entries without coordination.
type entry struct {
	key     Key
	pkey    Key // pattern key, indexing the entry for values-only adoption
	idle    chan *core.Prepared
	created int // replicas built (guarded by Service.mu)
	elem    *list.Element
}

// addLocked makes an empty pool for the system's key the most recently used
// entry. It evicts nothing: the LRU tail goes once the new pool holds a
// replica (see acquire), so a prepare that fails never costs a warm pool.
// Callers hold s.mu.
func (s *Service) addLocked(sys *system) *entry {
	ent := &entry{key: sys.key, pkey: sys.pkey(), idle: make(chan *core.Prepared, s.opts.ReplicasPerKey)}
	ent.elem = s.lru.PushFront(ent)
	s.cache[ent.key] = ent
	s.patterns[ent.pkey] = ent
	return ent
}

// dropLocked removes an entry from the cache, the LRU and the pattern index.
// Replicas checked out of it still release into its buffered channel and are
// garbage collected with it. Callers hold s.mu.
func (s *Service) dropLocked(ent *entry) {
	s.lru.Remove(ent.elem)
	delete(s.cache, ent.key)
	if s.patterns[ent.pkey] == ent {
		delete(s.patterns, ent.pkey)
	}
}

// acquire hands out a Prepared replica for the system's key: an idle cached
// replica (hit), a newly built one when the pool is below ReplicasPerKey
// (miss — the expensive prepare runs outside the lock), or it blocks until a
// replica frees up or the context expires.
func (s *Service) acquire(ctx context.Context, sys *system) (*core.Prepared, *entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	ent, ok := s.cache[sys.key]
	if ok {
		s.lru.MoveToFront(ent.elem)
	} else {
		ent = s.addLocked(sys)
	}
	select {
	case p := <-ent.idle:
		s.mu.Unlock()
		s.stats.hits.Add(1)
		return p, ent, nil
	default:
	}
	if ent.created < s.opts.ReplicasPerKey {
		ent.created++
		s.mu.Unlock()
		s.stats.misses.Add(1)
		p, err := s.prepareSys(sys)
		s.mu.Lock()
		defer s.mu.Unlock()
		if err != nil {
			// An entry left with no replica is removed, so a system that
			// cannot be prepared leaves the cache as it found it.
			if ent.created--; ent.created == 0 && s.cache[sys.key] == ent {
				s.dropLocked(ent)
			}
			return nil, nil, err
		}
		for s.lru.Len() > s.opts.CacheCapacity {
			s.dropLocked(s.lru.Back().Value.(*entry))
			s.stats.evictions.Add(1)
		}
		return p, ent, nil
	}
	s.mu.Unlock()
	// Every replica of this key is busy: wait for one.
	select {
	case p := <-ent.idle:
		s.stats.hits.Add(1)
		return p, ent, nil
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
}

// release returns a replica to its entry's pool. The buffered channel (cap =
// ReplicasPerKey ≥ created) guarantees the send never blocks, and evicted
// entries still accept their replicas so blocked acquirers drain; once no
// job references an evicted entry it is garbage collected wholesale.
func (s *Service) release(ent *entry, p *core.Prepared) {
	ent.idle <- p
}

// prepareSys builds one replica with the system's effective execution knobs:
// the tuned partition strategy and backend when a race decision is active,
// the service defaults otherwise. A prepare that panics returns a
// *PanicError, so its callers' error paths give back the pool slot and drop
// an entry left without a replica.
func (s *Service) prepareSys(sys *system) (p *core.Prepared, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, &PanicError{Val: r}
		}
	}()
	strategy := sys.strategy
	if strategy == "" {
		strategy = s.opts.Strategy
	}
	return core.Prepare(s.opts.Machine, sys.m, sys.cfg, strategy,
		core.WithTelemetry(s.opts.Telemetry), core.WithBackend(sys.backend))
}

// maybeAdopt is the values-only refresh path of registration and PATCH: when
// a cached pool exists for the system's pattern key but not its exact key, it
// re-keys that pool onto sys, refreshing the idle replicas' numeric payloads
// in place. It reports how many replicas were refreshed (0 when the path is
// disabled, the exact key is already cached, or no donor exists).
func (s *Service) maybeAdopt(sys *system) int {
	if s.opts.DisableRefresh {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	if _, ok := s.cache[sys.key]; ok {
		return 0 // the exact pool is already resident
	}
	donor, ok := s.patterns[sys.pkey()]
	if !ok {
		return 0
	}
	return s.adoptLocked(donor, sys)
}

// adoptLocked retires the donor pool and moves its idle replicas onto the
// system's key by refreshing their numeric payloads in place — per-tile
// values, preconditioner refactorization inputs, ABFT checksums — while the
// partition, halo schedule and compiled instruction streams are reused
// verbatim. Replicas checked out by in-flight jobs stay with the retired
// donor: they release into its buffered channel and are garbage collected
// with it, and their pool slots are not transferred, so later acquires
// prepare fresh replicas on demand. Callers hold s.mu.
func (s *Service) adoptLocked(donor *entry, sys *system) int {
	s.dropLocked(donor)
	ent := s.addLocked(sys)
	limit := s.opts.RefreshWarmReplicas
	refreshed := 0
	for limit <= 0 || refreshed < limit {
		select {
		case p := <-donor.idle:
			if err := p.UpdateValues(sys.m); err != nil {
				// The pattern key guarantees structural equality, so a
				// mismatch here is a defect; drop the replica and let a cold
				// prepare fill the slot rather than serve stale values.
				continue
			}
			ent.created++
			ent.idle <- p
			refreshed++
			s.stats.refreshed.Inc()
		default:
			return refreshed
		}
	}
	return refreshed
}
