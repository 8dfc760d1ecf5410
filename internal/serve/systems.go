// Registered systems and their one write path: registration (with WAL replay
// and registry import), values-only PATCH, re-tuning and deregistration all
// build the system's next state privately, then hand it to publish, which
// checks, persists and installs it.

package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/sparse"
	"ipusparse/internal/tune"
)

// system is one registered linear system: the matrix is retained so evicted
// pipelines can be re-prepared on demand and so every returned answer can be
// residual-verified against the true operator. A published system is
// immutable: a PATCH or a tune decision publishes a successor.
type system struct {
	id         string
	m          *sparse.Matrix
	cfg        config.Config // effective config (tuned preconditioner applied)
	base       config.Config // registered config before tuning overrides
	key        Key
	pattern    uint64  // sparsity-pattern fingerprint (values excluded)
	backend    string  // canonical execution-backend name for this system
	solver     string  // solver name, filled at registration
	verifyTol  float64 // effective residual-verification threshold
	generation int     // values generation, 1 at registration, +1 per PATCH
	ones       *onesVec

	// Tuning state. strategy is the effective partition strategy (the
	// service default until a race overrides it); tune is the cached race
	// decision; lat is the per-system latency window the background retune
	// scanner watches — shared across value generations so a PATCH does not
	// reset regression detection.
	strategy core.PartitionStrategy
	tune     *tune.Decision
	lat      *latWindow
}

// mergeEngine is the engine block a per-system config runs with. The block is
// host-side deployment (backend, parallelism, trace), not part of the solver
// hierarchy: each field the system leaves zero takes the service's value.
func mergeEngine(sys, svc *config.EngineConfig) *config.EngineConfig {
	if sys == nil {
		return svc
	}
	if svc == nil {
		return sys
	}
	e := *sys
	if e.Parallelism == 0 {
		e.Parallelism = svc.Parallelism
	}
	if e.Backend == "" {
		e.Backend = svc.Backend
	}
	if e.Trace == "" {
		e.Trace = svc.Trace
	}
	return &e
}

// servedBackend is the execution backend the service runs a configuration
// on: its engine.backend, native when that is empty.
func servedBackend(c config.Config) string {
	if be := c.EngineBackend(); be != "" {
		return be
	}
	return config.BackendNative
}

// onesVec is b = A·1 for one values generation, computed on first use and
// shared by every request; nothing downstream writes a right-hand side.
type onesVec struct {
	once sync.Once
	b    []float64
}

// newSystem builds a registration's system with the service's default
// execution knobs.
func (s *Service) newSystem(id string, m *sparse.Matrix, c config.Config, backend string, generation int) *system {
	return &system{
		id:   id,
		m:    m,
		cfg:  c,
		base: c,
		key: Key{
			Matrix:   m.Fingerprint(),
			Config:   configHash(c),
			Machine:  s.opts.Machine,
			Strategy: s.opts.Strategy,
			Backend:  backend,
		},
		pattern:    m.PatternFingerprint(),
		backend:    backend,
		verifyTol:  verifyTolFor(s.opts.VerifyTolerance, c),
		generation: generation,
		ones:       new(onesVec),
		strategy:   s.opts.Strategy,
		lat:        newLatWindow(),
	}
}

// successor copies sys for its next publication under the same ID. Given new
// values m (fingerprint fp) it is the next values generation; given sys.m it
// is the same generation, for a tune decision to be applied to.
func (sys *system) successor(m *sparse.Matrix, fp uint64) *system {
	next := *sys
	if m != sys.m {
		next.m, next.key.Matrix, next.ones = m, fp, new(onesVec)
		next.generation++
	}
	return &next
}

// pkey is the system's pattern key: its cache key with the full matrix
// fingerprint replaced by the values-free pattern digest. Two systems sharing
// a pkey run the same compiled program modulo numeric payloads, so a pipeline
// prepared for one can be refreshed in place for the other.
func (sys *system) pkey() Key {
	k := sys.key
	k.Matrix = sys.pattern
	return k
}

// publish is the one write to the set of served systems. Under the writer
// lock it confirms id still maps to expect (nil: unregistered), appends next's
// record to the WAL (a tombstone when next is nil) and installs next (or
// deletes id). The lock covers only those three steps: prepares, adoptions
// and tuning races happen before it, and the solve path takes s.mu alone. So
// the WAL's record order is the order s.systems changed, and a publish that
// fails has persisted nothing.
func (s *Service) publish(id string, expect, next *system) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	closed, cur, reg := s.closed, s.systems[id], s.registry
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if cur != expect {
		return fmt.Errorf("%w: %s changed concurrently", ErrNotFound, id)
	}
	if reg != nil {
		rec := RegistrationRecord{ID: id, Deleted: true}
		if next != nil {
			rec = newRegistrationRecord(next)
		}
		if err := reg.append(rec); err != nil {
			return fmt.Errorf("serve: persisting %s: %w", id, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if next == nil {
		delete(s.systems, id)
	} else {
		s.systems[id] = next
	}
	return nil
}

// SystemInfo describes a registered system. The ID is stable for the
// system's lifetime: values-only updates bump Generation instead of re-keying.
type SystemInfo struct {
	ID         string `json:"id"`
	N          int    `json:"n"`
	NNZ        int    `json:"nnz"`
	Solver     string `json:"solver"`
	Backend    string `json:"backend,omitempty"`
	Pattern    string `json:"pattern,omitempty"`    // sparsity-pattern fingerprint
	Generation int    `json:"generation,omitempty"` // values generation (1 = as registered)
	Tuned      bool   `json:"tuned,omitempty"`      // a race decision is active
}

// SystemDetail is the full resource view of one system (GET
// /v1/systems/{id}): the summary plus the cached tuning decision.
type SystemDetail struct {
	SystemInfo
	Tune *tune.Decision `json:"tune,omitempty"`
}

func infoFor(sys *system) SystemInfo {
	return SystemInfo{
		ID:         sys.id,
		N:          sys.m.N,
		NNZ:        sys.m.NNZ(),
		Solver:     sys.solver,
		Backend:    sys.backend,
		Pattern:    sys.m.PatternFingerprintString(),
		Generation: sys.generation,
		Tuned:      sys.tune != nil,
	}
}

// SystemDetail returns the full resource view of one registered system.
func (s *Service) SystemDetail(id string) (SystemDetail, error) {
	sys, err := s.lookup(id)
	if err != nil {
		return SystemDetail{}, err
	}
	return SystemDetail{SystemInfo: infoFor(sys), Tune: sys.tune}, nil
}

// Register adds a system to the service and warms the cache with one
// prepared replica, so registration validates the configuration and the
// first solve is already amortized. The context bounds the warm-up: a caller
// that goes away cancels its half-built replica wait. A nil cfg uses the
// service's default solver configuration. Registering the same matrix again
// is idempotent. With a crash-safe registry attached, the registration is
// appended to the WAL before it is acknowledged.
func (s *Service) Register(ctx context.Context, m *sparse.Matrix, cfg *config.Config) (SystemInfo, error) {
	return s.register(ctx, m, cfg, regMeta{})
}

// regMeta carries replay/import context into register: the stable system ID
// and generation when they differ from a fresh registration's (the matrix
// values have moved past generation 1), the tuning decision riding the record,
// and whether a race is suppressed (WAL replay never re-races).
type regMeta struct {
	id         string
	generation int
	tun        *tune.Decision
	noRace     bool
}

func (s *Service) register(ctx context.Context, m *sparse.Matrix, cfg *config.Config, meta regMeta) (SystemInfo, error) {
	c := s.opts.Solver
	if cfg != nil {
		c = *cfg
		c.Engine = mergeEngine(cfg.Engine, s.opts.Solver.Engine)
	}
	if err := c.Validate(); err != nil {
		return SystemInfo{}, err
	}
	// Capability gate before the expensive warm-up prepare: a config that
	// requests simulator-only features on this replica's backend is rejected
	// here, at registration time, with the typed error the HTTP layer maps to
	// a 400 — never on the first solve. Names are canonicalized (simulator →
	// sim) so equivalent spellings share replicas.
	be, err := config.ResolveBackend(servedBackend(c), c.EngineTrace() != "")
	if err != nil {
		return SystemInfo{}, err
	}
	id := meta.id
	if id == "" {
		id = m.FingerprintString()
	}
	generation := meta.generation
	if generation <= 0 {
		generation = 1
	}
	sys := s.newSystem(id, m, c, be, generation)
	if meta.tun != nil {
		s.applyDecision(sys, meta.tun)
	}

	s.mu.Lock()
	old, err := s.systems[sys.id], s.admitLocked()
	s.mu.Unlock()
	if err != nil {
		return SystemInfo{}, err
	}
	if old != nil {
		if old.key == sys.key && old.generation >= sys.generation {
			return infoFor(old), nil
		}
		// Re-registration under the stable ID (an import carrying newer
		// values, or a same-pattern re-register): keep the ID, advance the
		// generation and carry the latency window forward.
		if sys.generation <= old.generation {
			sys.generation = old.generation + 1
		}
		sys.lat = old.lat
		if meta.tun == nil && old.tune != nil {
			// No decision rides the new record: keep serving the old one.
			s.applyDecision(sys, old.tune)
		}
	}

	// Registration-time autotune: race candidate execution configurations for
	// this pattern and serve with the measured winner. WAL replay and imports
	// carrying a decision skip the race — decisions survive kill -9 and ride
	// cluster migration.
	if s.opts.Tune && sys.tune == nil && !meta.noRace {
		if d, err := s.race(ctx, sys); err == nil {
			s.applyDecision(sys, d)
		}
	}

	// Values-only refresh path: a cached pool prepared for a different matrix
	// with this system's exact sparsity pattern (and solver hierarchy,
	// machine, backend) is adopted by refreshing its numeric payloads in
	// place, so the warm-up below finds hot replicas instead of paying a cold
	// Prepare.
	s.maybeAdopt(sys)

	// Warm the cache outside the lock: preparing is the expensive phase. The
	// caller's context bounds the warm-up wait; Close additionally cancels
	// in-flight work through the service-lifetime base context.
	p, ent, err := s.acquire(ctx, sys)
	if err != nil {
		return SystemInfo{}, err
	}
	sys.solver = p.Info().Solver
	s.release(ent, p)

	if err := s.publish(sys.id, old, sys); err != nil {
		// A concurrent registration of the same system got there first: its
		// answer is this one's too.
		if cur, lerr := s.lookup(sys.id); lerr == nil && cur.key == sys.key && cur.generation >= sys.generation {
			return infoFor(cur), nil
		}
		return SystemInfo{}, err
	}
	return infoFor(sys), nil
}

// verifyTolFor widens the service's verification threshold for systems whose
// configured solve tolerance is looser than it: an honest answer at the
// configured tolerance must never be classified as corrupt.
func verifyTolFor(base float64, c config.Config) float64 {
	tol := c.Solver.Tolerance
	if c.MPIR != nil && c.MPIR.Tolerance > 0 {
		tol = c.MPIR.Tolerance
	}
	if t := 100 * tol; t > base {
		return t
	}
	return base
}

// Systems lists the registered systems.
func (s *Service) Systems() []SystemInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SystemInfo, 0, len(s.systems))
	for _, sys := range s.systems {
		out = append(out, infoFor(sys))
	}
	return out
}

// lookup returns the registered system, or ErrNotFound or ErrClosed.
func (s *Service) lookup(id string) (*system, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	sys, ok := s.systems[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return sys, nil
}

// UpdateInfo reports a values-only refresh: the updated registration and how
// many prepared replicas were refreshed in place rather than re-prepared.
type UpdateInfo struct {
	SystemInfo
	// Refreshed counts cached replicas whose numeric payloads were rewritten
	// in place; 0 means the pool had been evicted (or its replicas were all
	// busy) and the update warm-prepared instead.
	Refreshed int `json:"refreshed"`
}

// UpdateSystem applies a values-only matrix update to a registered system
// (PATCH semantics): the new matrix must keep the registered sparsity pattern
// exactly — a structural change is rejected with core.ErrPatternMismatch
// (HTTP 409) — and the solver configuration is untouched. The system's ID is
// stable: the update bumps its values generation instead of re-keying, so
// clients keep solving against the handle they registered. Idle cached
// replicas are refreshed in place instead of re-prepared, and with a
// crash-safe registry attached the updated record (same ID, new values, next
// generation) hits the WAL (fsynced) before acknowledgement, so a restarted
// service recovers exactly the updated values at the updated generation.
// Updating with the currently registered values is an idempotent no-op. A
// solve racing the update may observe either values generation; a write that
// changed the system first (another PATCH, a re-tune, a DELETE) fails the
// update with ErrNotFound.
func (s *Service) UpdateSystem(ctx context.Context, id string, m *sparse.Matrix) (UpdateInfo, error) {
	if s.opts.DisableRefresh {
		return UpdateInfo{}, ErrRefreshDisabled
	}
	sys, err := s.lookup(id)
	if err != nil {
		return UpdateInfo{}, err
	}
	if m == nil {
		return UpdateInfo{}, errors.New("serve: update needs a matrix")
	}
	if err := m.Validate(); err != nil {
		return UpdateInfo{}, err
	}
	if got := m.PatternFingerprint(); got != sys.pattern {
		s.stats.refreshMismatch.Inc()
		return UpdateInfo{}, fmt.Errorf("%w: system %s is prepared for pattern %s, update carries %s",
			core.ErrPatternMismatch, sys.id, sys.m.PatternFingerprintString(), m.PatternFingerprintString())
	}
	fp := m.Fingerprint()
	if fp == sys.key.Matrix {
		return UpdateInfo{SystemInfo: infoFor(sys)}, nil
	}
	s.mu.Lock()
	err = s.admitLocked()
	s.mu.Unlock()
	if err != nil {
		return UpdateInfo{}, err
	}

	next := sys.successor(m, fp)
	refreshed := s.maybeAdopt(next)
	if refreshed == 0 {
		// The pool was evicted or fully checked out: warm-prepare so the
		// first post-update solve is amortized, exactly as registration does.
		p, ent, err := s.acquire(ctx, next)
		if err != nil {
			return UpdateInfo{}, err
		}
		s.release(ent, p)
	}
	if err := s.publish(id, sys, next); err != nil {
		return UpdateInfo{}, err
	}
	return UpdateInfo{SystemInfo: infoFor(next), Refreshed: refreshed}, nil
}

// Deregister removes a registered system: with a crash-safe registry
// attached, a tombstone record hits the WAL before the removal is
// acknowledged, so the deletion survives a restart; then its cache pool is
// evicted unless another system shares the key. In-flight solves finish;
// subsequent solves fail with ErrNotFound.
func (s *Service) Deregister(ctx context.Context, id string) error {
	sys, err := s.lookup(id)
	if err != nil {
		return err
	}
	if err := s.publish(id, sys, nil); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, other := range s.systems {
		if other.key == sys.key {
			return nil
		}
	}
	if ent, ok := s.cache[sys.key]; ok {
		s.dropLocked(ent)
	}
	return nil
}
