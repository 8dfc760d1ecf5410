// Serving-side autotuning: registration-time candidate races (internal/tune)
// whose decisions persist in the registry WAL and ride cluster migration
// records, a forced re-race endpoint, and a background scanner that re-races
// a system when its observed p99 latency regresses past a configurable
// multiple of the decision's measured winner latency.

package serve

import (
	"context"
	"sort"
	"sync"
	"time"

	"ipusparse/internal/core"
	"ipusparse/internal/tune"
)

// retuneMinSamples is the latency-window occupancy required before the
// regression scanner trusts its p99 estimate.
const retuneMinSamples = 20

// latWindow is a fixed-size ring of recent per-solve wall latencies, one per
// system. It is shared across a system's value generations so a PATCH does
// not reset regression detection.
type latWindow struct {
	mu  sync.Mutex
	buf [128]float64
	n   int // total samples since the last reset
}

func newLatWindow() *latWindow { return &latWindow{} }

func (w *latWindow) add(sec float64) {
	w.mu.Lock()
	w.buf[w.n%len(w.buf)] = sec
	w.n++
	w.mu.Unlock()
}

func (w *latWindow) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// p99 estimates the 99th percentile of the resident samples.
func (w *latWindow) p99() float64 {
	w.mu.Lock()
	k := w.n
	if k > len(w.buf) {
		k = len(w.buf)
	}
	vals := make([]float64, k)
	copy(vals, w.buf[:k])
	w.mu.Unlock()
	if k == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[(99*(k-1))/100]
}

func (w *latWindow) reset() {
	w.mu.Lock()
	w.n = 0
	w.mu.Unlock()
}

// race runs one candidate race for the system against its registered (base)
// configuration and records the race telemetry. A done ctx stops the race
// before its next candidate with ctx.Err(); an abandoned race is not counted.
func (s *Service) race(ctx context.Context, sys *system) (*tune.Decision, error) {
	start := time.Now()
	d, err := tune.Race(ctx, s.opts.Machine, sys.m, sys.base, tune.Options{
		Budget:  s.opts.TuneBudget,
		Solves:  s.opts.TuneSolves,
		Default: tune.Candidate{Strategy: string(s.opts.Strategy)},
	})
	if err != nil && ctx.Err() != nil {
		return nil, err
	}
	s.stats.tuneRaces.Inc()
	s.stats.tuneRaceSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	strat := d.Winner.Strategy
	if strat == "" {
		strat = string(core.PartitionContiguous)
	}
	s.stats.tuneWins.With(strat).Inc()
	return d, nil
}

// applyDecision rewrites the system's effective execution knobs from a race
// decision: partition strategy and the tuned preconditioner applied over the
// registered base configuration. The cache key follows, so tuned and untuned
// pipelines never share a pool. The system must not be
// published yet (callers mutate a private copy).
func (s *Service) applyDecision(sys *system, d *tune.Decision) {
	sys.tune = d
	w := d.Winner
	sys.cfg = tune.ApplyPrecond(sys.base, w.Precond)
	if w.Strategy != "" {
		sys.strategy = core.PartitionStrategy(w.Strategy)
	}
	sys.verifyTol = verifyTolFor(s.opts.VerifyTolerance, sys.cfg)
	sys.key.Config = configHash(sys.cfg)
	sys.key.Strategy = sys.strategy
}

// TuneDecision returns the system's cached race decision (nil when the
// system has never been tuned).
func (s *Service) TuneDecision(id string) (*tune.Decision, error) {
	sys, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return sys.tune, nil
}

// ForceTune re-races the system now — the POST /v1/systems/{id}/tune path
// and the regression scanner both land here. The fresh decision is applied,
// persisted to the WAL before the swap is acknowledged, and the system's
// latency window resets so the scanner judges the new configuration on its
// own samples. A write that changed the system during the race (a PATCH, a
// DELETE) wins: the decision is dropped and ForceTune fails with ErrNotFound.
// A ctx that is done before the race finishes (a disconnected client, Close)
// stops it and publishes nothing.
func (s *Service) ForceTune(ctx context.Context, id string) (*tune.Decision, error) {
	sys, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	d, err := s.race(ctx, sys)
	if err != nil {
		return nil, err
	}
	retune := sys.tune != nil
	if retune {
		d.Retunes = sys.tune.Retunes + 1
	}
	next := sys.successor(sys.m, sys.key.Matrix)
	s.applyDecision(next, d)

	if next.key != sys.key {
		// The winner changed the pipeline recipe: warm the new pool before the
		// swap so the first post-tune solve is amortized.
		if p, ent, err := s.acquire(ctx, next); err == nil {
			s.release(ent, p)
		}
	}
	if err := s.publish(id, sys, next); err != nil {
		return nil, err
	}
	if retune {
		s.stats.tuneRetunes.Inc()
	}
	next.lat.reset()
	return d, nil
}

// retuneLoop is the background regression scanner: every RetuneInterval it
// compares each tuned system's recent p99 latency against RetuneThreshold ×
// the decision's measured winner latency and re-races the regressed ones.
func (s *Service) retuneLoop() {
	defer s.aux.Done()
	t := time.NewTicker(s.opts.RetuneInterval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
		}
		for _, id := range s.regressedSystems() {
			if s.baseCtx.Err() != nil {
				return
			}
			_, _ = s.ForceTune(s.baseCtx, id)
		}
	}
}

// regressedSystems snapshots the IDs whose observed p99 has run past the
// retune threshold.
func (s *Service) regressedSystems() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for id, sys := range s.systems {
		if sys.tune == nil || sys.lat == nil || sys.tune.WinnerSec <= 0 {
			continue
		}
		if sys.lat.count() < retuneMinSamples {
			continue
		}
		if sys.lat.p99() > s.opts.RetuneThreshold*sys.tune.WinnerSec {
			ids = append(ids, id)
		}
	}
	return ids
}
