// The job queue: solves are admitted into one bounded FIFO and executed by a
// fixed worker pool, each job under the supervision layer of supervisor.go.

package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ipusparse/internal/core"
)

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

// QueueDepth reports the number of queued jobs not yet picked up.
func (s *Service) QueueDepth() int { return len(s.jobs) }

func (s *Service) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, s.opts.DefaultTimeout)
}

func (s *Service) enqueue(ctx context.Context, sys *system, b []float64) (*job, error) {
	j := &job{ctx: ctx, sys: sys, b: b, done: make(chan jobResult, 1)}
	s.mu.Lock()
	if err := s.admitLocked(); err != nil {
		s.mu.Unlock()
		return nil, err
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
