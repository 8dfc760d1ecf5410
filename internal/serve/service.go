// Package serve turns the two-phase core API into a long-running solver
// service: registered systems are prepared once (partition, upload, symbolic
// scheduling) and the compiled pipelines are pooled in an LRU cache, so every
// subsequent right-hand side pays only the execution cost. A bounded job
// queue with admission control and a worker pool bound the service's
// concurrency; per-job deadlines propagate through context.Context.
package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"ipusparse/internal/backend"
	"ipusparse/internal/breaker"
	"ipusparse/internal/config"
	"ipusparse/internal/core"
	"ipusparse/internal/fault"
	"ipusparse/internal/ipu"
	"ipusparse/internal/microbench"
	"ipusparse/internal/sparse"
	"ipusparse/internal/telemetry"
	"ipusparse/internal/tune"
)

// Typed service errors; the HTTP layer maps them to status codes.
var (
	// ErrOverloaded rejects a job because the queue is full (admission
	// control: better an immediate 429 than unbounded latency).
	ErrOverloaded = errors.New("serve: job queue full")
	// ErrNotFound rejects a solve against an unregistered system.
	ErrNotFound = errors.New("serve: unknown system")
	// ErrClosed rejects work submitted after Close started draining.
	ErrClosed = errors.New("serve: service closed")
	// ErrDraining rejects new work while the service drains: queued jobs
	// still complete, but admission is closed so a router can fail the
	// request over to a replica shard instead of queueing behind a drain.
	ErrDraining = errors.New("serve: service draining")
	// ErrCircuitOpen sheds a solve because the system's circuit breaker is
	// open: it has failed repeatedly and is cooling down before a probe.
	ErrCircuitOpen = errors.New("serve: circuit open")
	// ErrBodyTooLarge rejects an HTTP request whose body exceeds the
	// configured limit.
	ErrBodyTooLarge = errors.New("serve: request body too large")
	// ErrRefreshDisabled rejects a values-only update while the refresh path
	// is configured off (serve.refresh.enabled = false).
	ErrRefreshDisabled = errors.New("serve: values-only refresh disabled")
)

// Options configures a Service. The zero value of each field selects the
// default noted on it.
type Options struct {
	CacheCapacity  int                    // prepared-pipeline LRU entries (default 8)
	ReplicasPerKey int                    // concurrent Prepared replicas per key (default 2)
	QueueDepth     int                    // job queue bound (default 64)
	Workers        int                    // solve worker pool size (default 4)
	DefaultTimeout time.Duration          // per-job deadline when the caller sets none (default 30s)
	Machine        ipu.Config             // simulated machine (default 64-tile single-chip Mk2)
	Strategy       core.PartitionStrategy // partition strategy (default contiguous)
	Solver         config.Config          // solver configuration for registered systems

	// Backend selects the execution backend for prepared replicas: "native"
	// (the serving default — flat host-speed kernels, no cycle accounting) or
	// "sim"/"simulator" (cycle-accurate; required for fault campaigns and
	// device tracing). Per-system configs override it through their
	// engine.backend key. On the native backend CyclesPerSolve reads zero.
	Backend string

	// Resilience layer.
	MaxBodyBytes     int64         // HTTP request-body bound (default 8 MiB)
	VerifyTolerance  float64       // residual-verification threshold (default 1e-4)
	RetryMax         int           // extra attempts after a retryable failure (default 2, -1 disables)
	RetryBase        time.Duration // first retry backoff, doubled with jitter (default 5ms)
	HedgeAfter       time.Duration // hedged-solve floor delay (0 disables hedging)
	BreakerThreshold int           // consecutive failures that open a breaker (default 5, -1 disables)
	BreakerCooldown  time.Duration // open-breaker cooldown before a half-open probe (default 1s)
	StateDir         string        // crash-safe registry directory ("" disables persistence)
	Chaos            *fault.Chaos  // service-level chaos campaign (nil disables)

	// Tune enables the registration-time autotuner: every newly registered
	// pattern races candidate execution configurations (partition strategy ×
	// preconditioner knob × engine parallelism × backend) under TuneBudget and
	// serves with the measured winner. Decisions persist in the registry WAL
	// and ride cluster export/import, so a restart or migration never re-races.
	Tune bool
	// TuneBudget bounds one race (default 2s).
	TuneBudget time.Duration
	// TuneSolves is the warm solve count per raced candidate (default 3).
	TuneSolves int
	// RetuneThreshold re-races a tuned system in the background when its
	// recent p99 latency exceeds threshold × the decision's measured winner
	// latency (default 3.0; 0 keeps the default, negative disables).
	RetuneThreshold float64
	// RetuneInterval is the regression-scan period (default 5s).
	RetuneInterval time.Duration

	// DisableRefresh turns the values-only refresh path off: pattern-matching
	// registrations cold-prepare and UpdateSystem is rejected.
	DisableRefresh bool
	// RefreshWarmReplicas bounds how many idle replicas one adoption
	// refreshes in place (0 = all; the remainder re-prepares on demand).
	RefreshWarmReplicas int

	// Telemetry receives every service, pipeline, engine and machine metric
	// (default: a private registry, exposed on /metrics and /stats). Live
	// gauges (queue depth, cache size, breaker counts) are rebound to the
	// most recently constructed service — don't share one registry across
	// concurrently running services.
	Telemetry *telemetry.Registry
}

// OptionsFromConfig derives service options from a configuration file: the
// solver/mpir/recovery blocks become the per-system solver configuration and
// the serve block sizes the service itself.
func OptionsFromConfig(c config.Config) Options {
	o := Options{Solver: config.Config{
		Solver:   c.Solver,
		MPIR:     c.MPIR,
		Recovery: c.Recovery,
		Fault:    c.Fault,
		Engine:   c.Engine,
	}}
	o.Backend = c.EngineBackend()
	if s := c.Serve; s != nil {
		o.CacheCapacity = s.CacheCapacity
		o.ReplicasPerKey = s.ReplicasPerKey
		o.QueueDepth = s.QueueDepth
		o.Workers = s.Workers
		o.DefaultTimeout = time.Duration(s.DefaultTimeoutMs) * time.Millisecond
		o.Strategy = core.PartitionStrategy(s.Partition)
		o.MaxBodyBytes = s.MaxBodyBytes
		o.VerifyTolerance = s.VerifyTolerance
		o.RetryMax = s.RetryMax
		o.RetryBase = time.Duration(s.RetryBaseMs) * time.Millisecond
		o.HedgeAfter = time.Duration(s.HedgeAfterMs) * time.Millisecond
		o.BreakerThreshold = s.BreakerThreshold
		o.BreakerCooldown = time.Duration(s.BreakerCooldownMs) * time.Millisecond
		o.StateDir = s.StateDir
		if ch := s.Chaos; ch != nil && ch.Rate > 0 {
			o.Chaos = fault.NewChaos(ch.Plan())
		}
		if r := s.Refresh; r != nil {
			if r.Enabled != nil && !*r.Enabled {
				o.DisableRefresh = true
			}
			o.RefreshWarmReplicas = r.WarmReplicas
		}
		if t := s.Tune; t != nil {
			o.Tune = t.Enabled
			o.TuneBudget = time.Duration(t.BudgetMs) * time.Millisecond
			o.TuneSolves = t.Solves
			o.RetuneThreshold = t.RetuneThreshold
			o.RetuneInterval = time.Duration(t.RetuneIntervalMs) * time.Millisecond
		}
		if s.Tiles > 0 || s.Chips > 0 {
			mc := ipu.Mk2M2000()
			if s.Tiles > 0 {
				mc.TilesPerChip = s.Tiles
			}
			if s.Chips > 0 {
				mc.Chips = s.Chips
			}
			o.Machine = mc
		}
	}
	return o
}

func (o *Options) fill() {
	if o.CacheCapacity <= 0 {
		o.CacheCapacity = 8
	}
	if o.ReplicasPerKey <= 0 {
		o.ReplicasPerKey = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.Machine == (ipu.Config{}) {
		mc := ipu.Mk2M2000()
		mc.TilesPerChip = 64
		mc.Chips = 1
		o.Machine = mc
	}
	if o.Strategy == "" {
		o.Strategy = core.PartitionContiguous
	}
	if o.Backend == "" {
		o.Backend = "native"
	}
	if o.Solver.Solver.Type == "" {
		o.Solver = config.Default()
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.VerifyTolerance <= 0 {
		// True (host-recomputed) residuals of converged working-precision
		// solves land around 1e-6; corrupted answers miss by orders of
		// magnitude, so 1e-4 separates them with margin on both sides.
		o.VerifyTolerance = 1e-4
	}
	if o.RetryMax == 0 {
		o.RetryMax = 2
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 5 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = time.Second
	}
	if o.TuneBudget <= 0 {
		o.TuneBudget = 2 * time.Second
	}
	if o.TuneSolves <= 0 {
		o.TuneSolves = 3
	}
	if o.RetuneThreshold == 0 {
		o.RetuneThreshold = 3.0
	}
	if o.RetuneInterval <= 0 {
		o.RetuneInterval = 5 * time.Second
	}
	if o.Telemetry == nil {
		o.Telemetry = telemetry.NewRegistry()
	}
}

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

// system is one registered linear system: the matrix is retained so evicted
// pipelines can be re-prepared on demand and so every returned answer can be
// residual-verified against the true operator.
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

	// Tuning state. strategy/par are the effective execution knobs (the
	// service defaults until a race overrides them); tune is the cached race
	// decision; lat is the per-system latency window the background retune
	// scanner watches — shared across value generations so a PATCH does not
	// reset regression detection.
	strategy core.PartitionStrategy
	par      int
	tune     *tune.Decision
	lat      *latWindow

	// ones is b = A·1, computed on first use. A system is immutable (a PATCH
	// or a tune decision builds a new one), so every request shares the
	// vector; nothing downstream writes a right-hand side.
	onesOnce sync.Once
	ones     []float64
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

// job is one queued solve.
type job struct {
	ctx  context.Context
	sys  *system
	b    []float64
	done chan jobResult // buffered: the worker never blocks on a gone caller
}

type jobResult struct {
	res *core.Result
	err error
}

// Service is the solver service: registry, prepared-pipeline cache, job
// queue, worker pool and the supervision layer around them (retry, hedging,
// circuit breaking, replica quarantine, residual verification, crash-safe
// registry persistence).
type Service struct {
	opts Options

	// baseCtx is the service-lifetime context: warm-up prepares and replica
	// rebuilds run under it, so Close cancels them instead of leaking work.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	closed   bool
	draining bool
	systems  map[string]*system
	cache    map[Key]*entry
	patterns map[Key]*entry // pattern key → most recent entry, for adoption
	lru      *list.List     // front = most recently used
	breakers map[string]*breaker.Breaker

	registry *registry // crash-safe registration log (nil without a StateDir)

	jobs chan *job
	wg   sync.WaitGroup
	aux  sync.WaitGroup // hedge attempts and replica rebuilds in flight

	jitterMu sync.Mutex
	jitter   *rand.Rand

	// corruptHook, when set by tests, mutates each successful solution
	// before residual verification — simulating silent device corruption.
	corruptHook func(x []float64)

	// calOnce lazily runs the quick microbenchmark battery the first time a
	// race needs the cost model; cal stays nil when the battery fails.
	calOnce sync.Once
	cal     *microbench.Calibration

	stats statsCollector
}

// New starts a service with its worker pool running. Registrations are not
// persisted even when opts.StateDir is set — use Open for a crash-safe
// service.
func New(opts Options) *Service {
	opts.fill()
	s := &Service{
		opts:     opts,
		systems:  make(map[string]*system),
		cache:    make(map[Key]*entry),
		patterns: make(map[Key]*entry),
		lru:      list.New(),
		breakers: make(map[string]*breaker.Breaker),
		jobs:     make(chan *job, opts.QueueDepth),
		jitter:   rand.New(rand.NewSource(1)),
		stats:    newStatsCollector(opts.Telemetry),
	}
	// Live gauges computed at scrape time. GaugeFunc rebinding is last-wins
	// per name, so on a shared registry these track the most recently
	// constructed service (see Options.Telemetry).
	opts.Telemetry.GaugeFunc("serve_queue_depth",
		"Jobs queued, not yet picked up.",
		func() float64 { return float64(len(s.jobs)) })
	opts.Telemetry.GaugeFunc("serve_cache_size",
		"Resident prepared-pipeline cache entries.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.lru.Len())
		})
	opts.Telemetry.GaugeFunc("serve_breakers_open",
		"Systems currently shedding load.",
		func() float64 { return float64(s.openBreakers()) })
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	if opts.Tune && opts.RetuneThreshold > 0 {
		s.aux.Add(1)
		go s.retuneLoop()
	}
	return s
}

// Open starts a crash-safe service: when opts.StateDir is set, the
// registration WAL and snapshot under it are replayed (each recovered system
// is re-prepared exactly as a fresh registration would be), the state is
// compacted into a new snapshot, and every subsequent registration is
// appended to the WAL before it is acknowledged.
func Open(opts Options) (*Service, error) {
	s := New(opts)
	if s.opts.StateDir == "" {
		return s, nil
	}
	reg, recs, err := openRegistry(s.opts.StateDir)
	if err != nil {
		s.Close()
		return nil, err
	}
	reg.errs = s.stats.walErrors
	for _, rec := range recs {
		m, err := rec.Matrix()
		if err != nil {
			s.Close()
			reg.close()
			return nil, fmt.Errorf("serve: replaying %s: %w", rec.ID, err)
		}
		if _, err := s.register(s.baseCtx, m, rec.configPtr(),
			regMeta{id: rec.ID, generation: rec.Generation, tun: rec.Tune, noRace: true}); err != nil {
			s.Close()
			reg.close()
			return nil, fmt.Errorf("serve: replaying %s: %w", rec.ID, err)
		}
	}
	// Registry attaches only after replay, so replayed registrations are not
	// re-appended; compaction folds the old WAL into a fresh snapshot.
	s.mu.Lock()
	s.registry = reg
	s.mu.Unlock()
	if err := s.compact(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
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
	s.mu.Lock()
	defer s.mu.Unlock()
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
		if c.Engine == nil {
			// Engine parallelism is a host-side deployment knob, not part of
			// the solver hierarchy: per-system configs inherit the service's.
			c.Engine = s.opts.Solver.Engine
		}
	}
	if err := c.Validate(); err != nil {
		return SystemInfo{}, err
	}
	// Per-system engine.backend overrides the service backend; names are
	// canonicalized (simulator → sim) so equivalent spellings share replicas.
	beName := s.opts.Backend
	if c.Engine != nil && c.Engine.Backend != "" {
		beName = c.Engine.Backend
	}
	be, err := backend.ByName(beName)
	if err != nil {
		return SystemInfo{}, err
	}
	// Capability gate before the expensive warm-up prepare: a config that
	// requests simulator-only features on this replica's backend is rejected
	// here, at registration time, with the typed error the HTTP layer maps to
	// a 400 — never on the first solve.
	if err := backend.CheckConfig(be, &c); err != nil {
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
	sys := &system{
		id:   id,
		m:    m,
		cfg:  c,
		base: c,
		key: Key{
			Matrix:   m.Fingerprint(),
			Config:   configHash(c),
			Machine:  s.opts.Machine,
			Strategy: s.opts.Strategy,
			Backend:  be.Name(),
		},
		pattern:    m.PatternFingerprint(),
		backend:    be.Name(),
		verifyTol:  verifyTolFor(s.opts.VerifyTolerance, c),
		generation: generation,
		strategy:   s.opts.Strategy,
		lat:        newLatWindow(),
	}
	if meta.tun != nil {
		s.applyDecision(sys, meta.tun)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SystemInfo{}, ErrClosed
	}
	if s.draining {
		s.mu.Unlock()
		return SystemInfo{}, ErrDraining
	}
	if old, ok := s.systems[sys.id]; ok {
		if old.key == sys.key && old.generation >= sys.generation {
			info := infoFor(old)
			s.mu.Unlock()
			return info, nil
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
			s.mu.Unlock()
			s.applyDecision(sys, old.tune)
			s.mu.Lock()
		}
	}
	reg := s.registry
	s.mu.Unlock()

	// Registration-time autotune: race candidate execution configurations for
	// this pattern and serve with the measured winner. WAL replay and imports
	// carrying a decision skip the race — decisions survive kill -9 and ride
	// cluster migration.
	if s.opts.Tune && sys.tune == nil && !meta.noRace {
		if d, err := s.race(sys); err == nil {
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

	// Durability before acknowledgement: the record hits the WAL (fsynced)
	// before the system becomes visible, so an acknowledged registration
	// survives a crash.
	if reg != nil {
		if err := reg.append(newRegistrationRecord(sys)); err != nil {
			return SystemInfo{}, fmt.Errorf("serve: persisting registration: %w", err)
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SystemInfo{}, ErrClosed
	}
	s.systems[sys.id] = sys
	s.mu.Unlock()
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

// lookup returns the registered system (nil if unknown) and whether the
// service accepts work.
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

// Solve queues one right-hand side against a registered system and waits for
// the result or the context. A full queue rejects immediately with
// ErrOverloaded; without a caller deadline the service default applies.
func (s *Service) Solve(ctx context.Context, id string, b []float64) (*core.Result, error) {
	sys, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	j, err := s.enqueue(ctx, sys, b)
	if err != nil {
		return nil, err
	}
	return s.await(ctx, j)
}

// BatchItem is the per-RHS outcome of SolveBatch.
type BatchItem struct {
	Result *core.Result
	Err    error
}

// SolveBatch queues every right-hand side of the batch at once (they run
// concurrently across workers and replicas) and gathers per-item outcomes.
// Admission control applies per item: with a full queue, later items fail
// with ErrOverloaded while admitted ones still run.
func (s *Service) SolveBatch(ctx context.Context, id string, rhs [][]float64) ([]BatchItem, error) {
	sys, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	items := make([]BatchItem, len(rhs))
	queued := make([]*job, len(rhs))
	for i, b := range rhs {
		j, err := s.enqueue(ctx, sys, b)
		if err != nil {
			items[i].Err = err
			continue
		}
		queued[i] = j
	}
	for i, j := range queued {
		if j == nil {
			continue
		}
		items[i].Result, items[i].Err = s.await(ctx, j)
	}
	return items, nil
}

func (s *Service) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, s.opts.DefaultTimeout)
}

func (s *Service) enqueue(ctx context.Context, sys *system, b []float64) (*job, error) {
	j := &job{ctx: ctx, sys: sys, b: b, done: make(chan jobResult, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	select {
	case s.jobs <- j:
		s.mu.Unlock()
		return j, nil
	default:
		s.mu.Unlock()
		s.stats.rejected.Add(1)
		return nil, ErrOverloaded
	}
}

func (s *Service) await(ctx context.Context, j *job) (*core.Result, error) {
	select {
	case r := <-j.done:
		return r.res, r.err
	case <-ctx.Done():
		// The worker sees the same context and abandons or finishes the job;
		// done is buffered so it never blocks on us.
		return nil, ctx.Err()
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		j.done <- s.execute(j)
	}
}

// execute runs one job through the supervision layer: circuit-breaker gate,
// then the retry/hedge loop of supervised, recording the outcome on the
// system's breaker.
func (s *Service) execute(j *job) jobResult {
	if err := j.ctx.Err(); err != nil {
		return jobResult{err: err}
	}
	br := s.breakerFor(j.sys.id)
	if br != nil && !br.Allow() {
		s.stats.breakerRejected.Add(1)
		return jobResult{err: fmt.Errorf("%w: %s", ErrCircuitOpen, j.sys.id)}
	}
	start := time.Now()
	res, err := s.supervised(j.ctx, j.sys, j.b)
	if br != nil {
		if err == nil {
			br.Success()
		} else if !errors.Is(err, ErrClosed) {
			br.Failure()
		}
	}
	if err != nil {
		return jobResult{err: err}
	}
	wall := time.Since(start)
	s.stats.recordSolve(wall, res.Machine.TotalCycles)
	if j.sys.lat != nil {
		j.sys.lat.add(wall.Seconds())
	}
	return jobResult{res: res}
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
		ent = &entry{key: sys.key, pkey: sys.pkey(), idle: make(chan *core.Prepared, s.opts.ReplicasPerKey)}
		ent.elem = s.lru.PushFront(ent)
		s.cache[sys.key] = ent
		s.patterns[ent.pkey] = ent
		for s.lru.Len() > s.opts.CacheCapacity {
			tail := s.lru.Back()
			old := tail.Value.(*entry)
			s.lru.Remove(tail)
			delete(s.cache, old.key)
			if s.patterns[old.pkey] == old {
				delete(s.patterns, old.pkey)
			}
			s.stats.evictions.Add(1)
		}
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
		if err != nil {
			s.mu.Lock()
			ent.created--
			s.mu.Unlock()
			return nil, nil, err
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
// the tuned partition strategy, backend and engine parallelism when a race
// decision is active, the service defaults otherwise.
func (s *Service) prepareSys(sys *system) (*core.Prepared, error) {
	strategy := sys.strategy
	if strategy == "" {
		strategy = s.opts.Strategy
	}
	opts := []core.Option{core.WithTelemetry(s.opts.Telemetry), core.WithBackend(sys.backend)}
	if sys.par > 0 {
		opts = append(opts, core.WithParallelism(sys.par))
	}
	return core.Prepare(s.opts.Machine, sys.m, sys.cfg, strategy, opts...)
}

// maybeAdopt re-keys a cached pipeline pool onto sys when one exists for its
// pattern key but not its exact key, refreshing the idle replicas' numeric
// payloads in place. It reports how many replicas were refreshed (0 when the
// path is disabled, the exact key is already cached, or no donor exists).
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
	_, refreshed := s.adoptLocked(donor, sys)
	return refreshed
}

// adoptLocked retires the donor pool and moves its idle replicas onto the
// system's key by refreshing their numeric payloads in place — per-tile
// values, preconditioner refactorization inputs, ABFT checksums — while the
// partition, halo schedule and compiled instruction streams are reused
// verbatim. Replicas checked out by in-flight jobs stay with the retired
// donor: they release into its buffered channel and are garbage collected
// with it, and their pool slots are not transferred, so later acquires
// prepare fresh replicas on demand. Callers hold s.mu.
func (s *Service) adoptLocked(donor *entry, sys *system) (*entry, int) {
	s.lru.Remove(donor.elem)
	delete(s.cache, donor.key)
	if s.patterns[donor.pkey] == donor {
		delete(s.patterns, donor.pkey)
	}
	ent := &entry{key: sys.key, pkey: sys.pkey(), idle: make(chan *core.Prepared, s.opts.ReplicasPerKey)}
	ent.elem = s.lru.PushFront(ent)
	s.cache[sys.key] = ent
	s.patterns[ent.pkey] = ent
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
			return ent, refreshed
		}
	}
	return ent, refreshed
}

// UpdateInfo reports a values-only refresh: the updated registration and how
// many prepared replicas were refreshed in place rather than re-prepared.
type UpdateInfo struct {
	SystemInfo
	// Previous is the system ID the update targeted. The ID is stable across
	// updates, so Previous always equals ID; it is retained for callers of
	// the PR-9 re-keying contract.
	Previous string `json:"previous"`
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
// solve racing the update may observe either values generation.
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
	// Re-run the capability gate: the config was admitted at registration,
	// but the check is cheap and keeps the refresh path honest if the gate
	// ever tightens between releases.
	be, err := backend.ByName(sys.backend)
	if err != nil {
		return UpdateInfo{}, err
	}
	if err := backend.CheckConfig(be, &sys.cfg); err != nil {
		return UpdateInfo{}, err
	}

	if m.Fingerprint() == sys.key.Matrix {
		return UpdateInfo{SystemInfo: infoFor(sys), Previous: sys.id}, nil
	}
	next := &system{
		id:         sys.id,
		m:          m,
		cfg:        sys.cfg,
		base:       sys.base,
		key:        sys.key,
		pattern:    sys.pattern,
		backend:    sys.backend,
		solver:     sys.solver,
		verifyTol:  sys.verifyTol,
		generation: sys.generation + 1,
		strategy:   sys.strategy,
		par:        sys.par,
		tune:       sys.tune,
		lat:        sys.lat,
	}
	next.key.Matrix = m.Fingerprint()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return UpdateInfo{}, ErrClosed
	}
	if s.draining {
		s.mu.Unlock()
		return UpdateInfo{}, ErrDraining
	}
	if cur, ok := s.systems[id]; !ok || cur != sys {
		// A concurrent update replaced this generation first.
		s.mu.Unlock()
		return UpdateInfo{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	refreshed := 0
	if _, ok := s.cache[next.key]; !ok {
		if donor, ok := s.patterns[next.pkey()]; ok {
			_, refreshed = s.adoptLocked(donor, next)
		}
	}
	reg := s.registry
	s.mu.Unlock()

	if refreshed == 0 {
		// The pool was evicted or fully checked out: warm-prepare so the
		// first post-update solve is amortized, exactly as registration does.
		p, ent, err := s.acquire(ctx, next)
		if err != nil {
			return UpdateInfo{}, err
		}
		s.release(ent, p)
	}

	// Durability before acknowledgement, as at registration: the updated
	// record (same ID, next generation, new values) is fsynced into the WAL
	// before the update becomes visible.
	if reg != nil {
		if err := reg.append(newRegistrationRecord(next)); err != nil {
			return UpdateInfo{}, fmt.Errorf("serve: persisting update: %w", err)
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return UpdateInfo{}, ErrClosed
	}
	if cur, ok := s.systems[id]; !ok || cur != sys {
		s.mu.Unlock()
		return UpdateInfo{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.systems[id] = next
	s.mu.Unlock()
	return UpdateInfo{
		SystemInfo: infoFor(next),
		Previous:   sys.id,
		Refreshed:  refreshed,
	}, nil
}

// Deregister removes a registered system: its cache pool is evicted (unless
// another system shares the key) and, with a crash-safe registry attached, a
// tombstone record hits the WAL before the removal is acknowledged, so the
// deletion survives a restart. In-flight solves finish; subsequent solves
// fail with ErrNotFound.
func (s *Service) Deregister(ctx context.Context, id string) error {
	sys, err := s.lookup(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	reg := s.registry
	s.mu.Unlock()
	if reg != nil {
		if err := reg.append(RegistrationRecord{ID: id, Deleted: true}); err != nil {
			return fmt.Errorf("serve: persisting deregistration: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if cur, ok := s.systems[id]; !ok || cur != sys {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(s.systems, id)
	shared := false
	for _, other := range s.systems {
		if other.key == sys.key {
			shared = true
			break
		}
	}
	if !shared {
		if ent, ok := s.cache[sys.key]; ok {
			s.lru.Remove(ent.elem)
			delete(s.cache, ent.key)
			if s.patterns[ent.pkey] == ent {
				delete(s.patterns, ent.pkey)
			}
		}
	}
	return nil
}

// QueueDepth reports the number of queued jobs not yet picked up.
func (s *Service) QueueDepth() int { return len(s.jobs) }

// Drain closes admission without stopping the workers: new registrations and
// solves are rejected with ErrDraining while queued and in-flight jobs run to
// completion. /readyz reports "draining" (503) from this point, so a
// health-probing router stops sending work and fails new requests over to
// replica shards. Drain is idempotent and does not block; follow with Close
// (or Shutdown) to stop the service.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether admission is closed while in-flight work drains.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.closed
}

// Close stops admission and drains the queue: queued jobs still execute,
// then the workers exit. In-flight registration warm-ups and replica
// rebuilds are canceled through the service-lifetime context; with a
// crash-safe registry attached, the final state is snapshotted before the
// WAL closes. Close blocks until the drain completes.
func (s *Service) Close() error {
	return s.Shutdown(context.Background())
}

// Shutdown is Close with a hard deadline: it stops admission and waits for
// the queue to drain until the context expires. On expiry it returns the
// context's error with workers abandoned mid-job — the caller is expected to
// be exiting the process, so a solve that never returns cannot hang the
// drain forever. A nil error means the drain completed cleanly.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	reg := s.registry
	s.mu.Unlock()
	s.cancel()
	close(s.jobs)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		s.aux.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// The drain deadline landed first: leave the stragglers behind. The
		// WAL already carries every acknowledged registration, so skipping
		// compaction (and the registry close racing a straggler append) is
		// safe — replay merges snapshot and WAL idempotently.
		return ctx.Err()
	}
	if reg != nil {
		// Best-effort compaction: the WAL alone already carries the state.
		_ = s.compact()
		reg.close()
	}
	return nil
}
