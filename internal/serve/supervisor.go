// Replica supervision: every solve attempt runs a pooled Prepared replica
// under panic isolation, its answer is residual-verified against the true
// operator, failures are classified through the typed error taxonomy of the
// fault and solver layers, corrupting failures quarantine the replica (a
// fresh one is rebuilt asynchronously from the cached recipe), and the
// supervisor retries with exponential backoff + jitter — optionally hedging
// a second replica when the first runs past the observed latency tail.

package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"ipusparse/internal/core"
	"ipusparse/internal/fault"
	"ipusparse/internal/graph"
	"ipusparse/internal/solver"
	"ipusparse/internal/sparse"
)

// PanicError reports a replica that died mid-solve; the supervisor caught
// the panic, quarantined the replica and (budget permitting) retried.
type PanicError struct {
	Val any // recovered panic value
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: replica panicked: %v", e.Val)
}

// VerifyError reports an answer that failed the host-side residual check: a
// silently corrupted solve that was retried, never served.
type VerifyError struct {
	Computed float64 // host-recomputed true relative residual
	Reported float64 // residual the solver claimed
	Tol      float64 // threshold the computed residual exceeded
}

// Error implements error.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("serve: residual verification failed: computed %.3e > tol %.3e (solver reported %.3e)",
		e.Computed, e.Tol, e.Reported)
}

// failClass buckets a solve-attempt failure for the supervisor.
type failClass int

const (
	// failFatal failures are returned to the caller immediately: expired
	// deadlines, shutdown, malformed requests — retrying cannot help.
	failFatal failClass = iota
	// failTransient failures are retried on the same replica pool; the
	// replica that saw them is healthy (e.g. a transient host error).
	failTransient
	// failCorrupt failures are retried AND quarantine the replica: its
	// device memory may be poisoned (panic mid-solve, Krylov breakdown,
	// engine-surfaced faults, residual-verification failure).
	failCorrupt
)

// classify buckets an attempt error using the typed taxonomy built up by the
// fault and solver layers.
func classify(err error) failClass {
	var pe *PanicError
	var ve *VerifyError
	switch {
	case errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled),
		errors.Is(err, ErrClosed),
		errors.Is(err, ErrDraining),
		errors.Is(err, ErrOverloaded):
		return failFatal
	case errors.Is(err, fault.ErrChaosHost):
		return failTransient
	case errors.As(err, &pe), errors.As(err, &ve):
		return failCorrupt
	default:
		// Engine-surfaced faults (dropped exchanges, exhausted host retries)
		// may have left tile memory poisoned mid-program.
		if _, ok := graph.AsStepError(err); ok {
			return failCorrupt
		}
		if _, ok := solver.IsBreakdown(err); ok {
			return failCorrupt
		}
		// Unknown errors (validation, shape mismatches) are deterministic:
		// retrying would repeat them.
		return failFatal
	}
}

// supervised is the retry loop: attempts (hedged when configured) run until
// one succeeds, the failure is fatal, or the budget is spent. Backoff doubles
// per attempt with ±50% jitter and always yields to the caller's deadline.
func (s *Service) supervised(ctx context.Context, sys *system, b []float64) (*core.Result, error) {
	attempts := 1
	if s.opts.RetryMax > 0 {
		attempts += s.opts.RetryMax
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			s.stats.retries.Add(1)
			if err := s.backoff(ctx, a); err != nil {
				return nil, lastErr
			}
		}
		res, err := s.hedged(ctx, sys, b)
		if err == nil {
			return res, nil
		}
		if classify(err) == failFatal {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// backoff sleeps the a-th retry delay (exponential, jittered) or returns the
// context's error if the deadline lands first.
func (s *Service) backoff(ctx context.Context, attempt int) error {
	d := s.opts.RetryBase << (attempt - 1)
	if max := 500 * time.Millisecond; d > max {
		d = max
	}
	s.jitterMu.Lock()
	// Jitter in [0.5, 1.5): desynchronizes retry storms across callers.
	d = time.Duration(float64(d) * (0.5 + s.jitter.Float64()))
	s.jitterMu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// hedged runs one attempt, firing a second replica when the first has not
// answered within the hedge delay (the observed p99 solve latency, floored
// by HedgeAfter). The first success wins. Both attempts run under a child
// context canceled when hedged returns, so the straggler is released the
// moment a winner is decided (not when the whole request finishes) and a
// client disconnect cancels the primary and the hedge together — stalled
// replicas stop holding pool slots the instant they can no longer win.
func (s *Service) hedged(ctx context.Context, sys *system, b []float64) (*core.Result, error) {
	type outcome struct {
		res   *core.Result
		err   error
		hedge bool
	}
	if s.opts.HedgeAfter <= 0 {
		return s.attempt(ctx, sys, b)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, 2)
	s.aux.Add(1)
	go func() {
		defer s.aux.Done()
		res, err := s.attempt(actx, sys, b)
		ch <- outcome{res: res, err: err}
	}()
	t := time.NewTimer(s.hedgeDelay())
	defer t.Stop()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-t.C:
	}
	// The primary is slow: fire the hedge and take the first finisher,
	// preferring whichever succeeds.
	s.stats.hedges.Add(1)
	s.aux.Add(1)
	go func() {
		defer s.aux.Done()
		res, err := s.attempt(actx, sys, b)
		ch <- outcome{res: res, err: err, hedge: true}
	}()
	first := <-ch
	if first.err == nil {
		if first.hedge {
			s.stats.hedgeWins.Add(1)
		}
		return first.res, nil
	}
	second := <-ch
	if second.err == nil && second.hedge {
		s.stats.hedgeWins.Add(1)
	}
	return second.res, second.err
}

// hedgeDelay is the observed p99 solve latency (estimated from the latency
// histogram), floored by the configured HedgeAfter (which alone applies until
// samples accumulate).
func (s *Service) hedgeDelay() time.Duration {
	p99 := time.Duration(s.stats.latency.Quantile(0.99) * float64(time.Second))
	if p99 > s.opts.HedgeAfter {
		return p99
	}
	return s.opts.HedgeAfter
}

// attempt runs one solve on one replica: acquire, consult the chaos
// campaign, execute under panic isolation, residual-verify the answer, then
// release the replica — or quarantine it when the failure class says its
// memory can no longer be trusted.
func (s *Service) attempt(ctx context.Context, sys *system, b []float64) (*core.Result, error) {
	p, ent, err := s.acquire(ctx, sys)
	if err != nil {
		return nil, err
	}
	crash := false
	if c := s.opts.Chaos; c != nil {
		switch d := c.Decide(sys.id); d.Kind {
		case fault.ChaosStall:
			// A slow replica: hold it through the stall so hedges and
			// deadlines, not the pool, route around it.
			t := time.NewTimer(d.Stall)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				s.release(ent, p)
				return nil, ctx.Err()
			}
		case fault.ChaosHostError:
			s.release(ent, p)
			return nil, fmt.Errorf("%w (system %s)", fault.ErrChaosHost, sys.id)
		case fault.ChaosBreakdown:
			s.release(ent, p)
			return nil, &solver.ErrBreakdown{Solver: "chaos", Reason: "injected-storm"}
		case fault.ChaosCrash:
			crash = true
		}
	}
	res, err := runReplica(p, b, crash)
	if err == nil {
		if s.corruptHook != nil {
			s.corruptHook(res.X)
		}
		err = s.verifyResult(sys, res, b)
	}
	if err == nil {
		s.release(ent, p)
		return res, nil
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		s.stats.panics.Add(1)
	}
	if classify(err) == failCorrupt {
		s.quarantine(sys, ent)
	} else {
		s.release(ent, p)
	}
	return nil, err
}

// runReplica executes the prepared pipeline under panic isolation, so a
// dying replica surfaces as a typed error instead of taking the worker (and
// the service) down with it.
func runReplica(p *core.Prepared, b []float64, crash bool) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Val: r}
		}
	}()
	if crash {
		panic("chaos: injected replica crash")
	}
	return p.Solve(b)
}

// quarantine drops a suspect replica and rebuilds a fresh one from the
// cached recipe asynchronously, so the pool heals without blocking the
// failing request's retry. The replica's pool slot stays reserved while the
// rebuild runs; if the rebuild fails (or the service is closing), the slot
// is surrendered and a later acquire re-prepares on demand.
func (s *Service) quarantine(sys *system, ent *entry) {
	s.stats.quarantined.Add(1)
	s.aux.Add(1)
	go func() {
		defer s.aux.Done()
		if s.baseCtx.Err() != nil {
			s.surrenderSlot(ent)
			return
		}
		p, err := s.prepareSys(sys)
		if err != nil {
			s.surrenderSlot(ent)
			return
		}
		s.stats.rebuilt.Add(1)
		ent.idle <- p
	}()
}

func (s *Service) surrenderSlot(ent *entry) {
	s.mu.Lock()
	ent.created--
	s.mu.Unlock()
}

// verifyResult recomputes the returned answer's true relative residual
// ‖b−Ax‖₂/‖b‖₂ on the host — an O(nnz) check against the original operator,
// independent of every device buffer a fault could have poisoned. A
// non-finite solution always fails; a solution the solver claims converged
// fails when the true residual exceeds the system's verification threshold.
func (s *Service) verifyResult(sys *system, res *core.Result, b []float64) error {
	relres, finite := trueResidual(sys.m, res.X, b)
	if !finite {
		s.stats.verifyFailed.Add(1)
		if res.Stats.Converged {
			s.stats.sdcEscapes.Add(1)
		}
		return &VerifyError{Computed: math.Inf(1), Reported: res.Stats.RelRes, Tol: sys.verifyTol}
	}
	if res.Stats.Converged && relres > sys.verifyTol {
		// A wrong answer the solver claimed converged: the corruption passed
		// every in-loop ABFT guard and only this independent oracle caught
		// it. sdc-smoke (and the resilience gates) assert this stays zero.
		s.stats.verifyFailed.Add(1)
		s.stats.sdcEscapes.Add(1)
		return &VerifyError{Computed: relres, Reported: res.Stats.RelRes, Tol: sys.verifyTol}
	}
	s.stats.verified.Add(1)
	return nil
}

// trueResidual computes ‖b−Ax‖₂/‖b‖₂ in float64 (‖b−Ax‖₂ itself for an
// all-zero b); finite is false when the solution contains NaN or Inf.
func trueResidual(m *sparse.Matrix, x, b []float64) (relres float64, finite bool) {
	var rn, bn float64
	for i, bi := range b[:m.N] {
		d := bi - m.RowDot(i, x)
		rn += d * d
		bn += bi * bi
	}
	if math.IsNaN(rn) || math.IsInf(rn, 0) {
		return 0, false
	}
	if bn > 0 {
		return math.Sqrt(rn / bn), true
	}
	return math.Sqrt(rn), true
}
