package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ipusparse/internal/fault"
	"ipusparse/internal/sparse"
)

// TestChaosCampaignZeroWrongAnswers runs a seeded chaos campaign spanning
// every fault kind against a supervised service: every answer that comes back
// must pass residual verification, availability must stay high because
// retries and quarantines absorb the injected failures, and the supervision
// counters must show every armed kind fired and every mechanism (retry,
// caught panic, quarantine, rebuild) ran.
func TestChaosCampaignZeroWrongAnswers(t *testing.T) {
	opts := testOptions()
	opts.Workers = 4
	opts.ReplicasPerKey = 2
	opts.QueueDepth = 256
	opts.RetryMax = 6
	opts.RetryBase = time.Millisecond
	opts.BreakerThreshold = -1 // isolate the retry path from breaker shedding
	opts.Chaos = fault.NewChaos(fault.ChaosPlan{
		Seed: 42,
		Rate: 0.25,
		Kinds: []fault.ChaosKind{
			fault.ChaosCrash, fault.ChaosStall, fault.ChaosBreakdown, fault.ChaosHostError,
		},
		StallDuration: time.Millisecond,
	})
	s := New(opts)
	defer s.Close()

	m := sparse.Poisson2D(9, 9)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := onesRHS(m)

	const total = 100
	var wg sync.WaitGroup
	errs := make(chan error, total)
	for k := 0; k < total; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			scale := float64(1 + k%5)
			b := make([]float64, len(base))
			for i := range b {
				b[i] = scale * base[i]
			}
			res, err := s.Solve(context.Background(), info.ID, b)
			if err != nil {
				errs <- err
				return
			}
			// A served answer must be the right answer: x = scale * ones.
			for i, v := range res.X {
				if d := v - scale; d > 1e-5*scale || d < -1e-5*scale {
					errs <- fmt.Errorf("solve %d served a wrong answer: x[%d]=%g want %g", k, i, v, scale)
					return
				}
			}
			errs <- nil
		}(k)
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		if err != nil {
			failed++
			t.Logf("failed solve: %v", err)
		}
	}
	// At rate 0.25 with 6 retries a request fails only when every attempt
	// draws a fault (p ≈ 6e-5); one scheduling-dependent straggler is
	// tolerated, more means the supervision layer is not absorbing faults.
	if failed > 1 {
		t.Errorf("%d/%d solves failed; want ≥99%% availability under chaos", failed, total)
	}

	st := s.Stats()
	if st.Retries == 0 {
		t.Error("campaign fired but no retries were recorded")
	}
	for _, k := range opts.Chaos.Plan().Kinds {
		if opts.Chaos.Count(k) == 0 {
			t.Errorf("chaos campaign injected no %v", k)
		}
	}
	if st.Panics == 0 || st.Quarantined == 0 {
		t.Errorf("injected crashes left panics = %d, quarantined = %d", st.Panics, st.Quarantined)
	}
	// A quarantined replica is rebuilt asynchronously, off the request path.
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().Rebuilt == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no quarantined replica was rebuilt")
		}
		time.Sleep(time.Millisecond)
	}
	if st.VerifyFailed != 0 {
		t.Errorf("verifyFailed = %d; chaos kinds here fail loudly, never corrupt silently", st.VerifyFailed)
	}
	if st.Verified == 0 {
		t.Error("no answer was residual-verified")
	}
	t.Logf("chaos stats: %+v (injected %d)", st, len(opts.Chaos.Events()))
}

// TestVerifyCatchesCorruption corrupts every solution before verification and
// requires the supervisor to reject the answer (typed VerifyError), never
// serving it, while quarantining the replicas that produced it.
func TestVerifyCatchesCorruption(t *testing.T) {
	opts := testOptions()
	opts.RetryMax = 1
	opts.RetryBase = time.Millisecond
	opts.BreakerThreshold = -1
	s := New(opts)
	defer s.Close()

	m := sparse.Poisson2D(8, 8)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.corruptHook = func(x []float64) { x[0] += 1e3 } // silent device corruption

	_, err = s.Solve(context.Background(), info.ID, onesRHS(m))
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("corrupted solve returned %v, want VerifyError", err)
	}
	st := s.Stats()
	if st.VerifyFailed == 0 || st.Quarantined == 0 {
		t.Errorf("stats %+v: want verifyFailed and quarantined > 0", st)
	}
	if st.Solved != 0 {
		t.Errorf("a corrupted answer was served (solved=%d)", st.Solved)
	}

	// Heal the device: the same system must solve again, through replicas the
	// quarantine rebuilt (or fresh ones re-prepared on demand).
	s.corruptHook = nil
	res, err := s.Solve(context.Background(), info.ID, onesRHS(m))
	if err != nil {
		t.Fatalf("solve after healing: %v", err)
	}
	if !res.Stats.Converged {
		t.Fatal("solve after healing did not converge")
	}
}

// TestBreakerOpensAndRecovers drives a system into repeated failure until its
// circuit opens (ErrCircuitOpen shed, no device work), then heals it and
// checks the half-open probe closes the circuit.
func TestBreakerOpensAndRecovers(t *testing.T) {
	opts := testOptions()
	opts.RetryMax = -1 // one attempt per request: failures hit the breaker fast
	opts.BreakerThreshold = 2
	opts.BreakerCooldown = 20 * time.Millisecond
	s := New(opts)
	defer s.Close()

	m := sparse.Poisson2D(7, 7)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := onesRHS(m)
	s.corruptHook = func(x []float64) { x[0] += 1e3 }

	for i := 0; i < opts.BreakerThreshold; i++ {
		if _, err := s.Solve(context.Background(), info.ID, b); err == nil {
			t.Fatalf("corrupted solve %d unexpectedly succeeded", i)
		}
	}
	if _, err := s.Solve(context.Background(), info.ID, b); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("after %d failures: err = %v, want ErrCircuitOpen", opts.BreakerThreshold, err)
	}
	st := s.Stats()
	if st.BreakerOpens == 0 || st.BreakerRejected == 0 || st.BreakersOpen != 1 {
		t.Errorf("breaker stats %+v", st)
	}

	// Heal and wait out the cooldown: the next request is the half-open probe;
	// its success closes the circuit for the ones after it.
	s.corruptHook = nil
	time.Sleep(opts.BreakerCooldown + 5*time.Millisecond)
	for i := 0; i < 2; i++ {
		if _, err := s.Solve(context.Background(), info.ID, b); err != nil {
			t.Fatalf("solve %d after cooldown: %v", i, err)
		}
	}
	if st := s.Stats(); st.BreakersOpen != 0 {
		t.Errorf("circuit still open after successful probe: %+v", st)
	}
}

// TestHedgeFiresOnStall injects exactly one long stall; the hedged second
// attempt must answer long before the stall clears.
func TestHedgeFiresOnStall(t *testing.T) {
	opts := testOptions()
	opts.RetryMax = -1
	opts.BreakerThreshold = -1
	opts.ReplicasPerKey = 2
	opts.HedgeAfter = 5 * time.Millisecond
	opts.Chaos = fault.NewChaos(fault.ChaosPlan{
		Seed:          1,
		Rate:          1,
		Kinds:         []fault.ChaosKind{fault.ChaosStall},
		MaxEvents:     1,
		StallDuration: 2 * time.Second,
	})
	s := New(opts)
	defer s.Close()

	m := sparse.Poisson2D(7, 7)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := s.Solve(context.Background(), info.ID, onesRHS(m))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("hedged solve did not converge")
	}
	if wall := time.Since(start); wall > time.Second {
		t.Errorf("hedged solve took %v; the hedge should beat the 2s stall", wall)
	}
	st := s.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Errorf("hedges=%d hedgeWins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
}

// TestRetryClassification checks the error taxonomy drives the retry
// decision: transient and corrupt failures retry, fatal ones do not.
func TestRetryClassification(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want failClass
	}{
		{context.DeadlineExceeded, failFatal},
		{context.Canceled, failFatal},
		{ErrClosed, failFatal},
		{ErrOverloaded, failFatal},
		{fmt.Errorf("wrapped: %w", fault.ErrChaosHost), failTransient},
		{&PanicError{Val: "boom"}, failCorrupt},
		{&VerifyError{Computed: 1, Tol: 1e-4}, failCorrupt},
		{errors.New("core: 3 right-hand-side values for 49 rows"), failFatal},
	} {
		if got := classify(tc.err); got != tc.want {
			t.Errorf("classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestShutdownRaces closes the service while registrations and solves are in
// flight; under -race this exercises the service-lifetime context against the
// warm-up path. Every outcome must be a clean success or a typed rejection.
func TestShutdownRaces(t *testing.T) {
	opts := testOptions()
	opts.Workers = 2
	s := New(opts)

	m := sparse.Poisson2D(8, 8)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := onesRHS(m)

	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, err := s.Solve(context.Background(), info.ID, b)
			errs <- err
			// Registrations race Close through the warm-up path.
			_, err = s.Register(context.Background(), sparse.Poisson2D(5+g%3, 6), nil)
			errs <- err
		}(g)
	}
	done := make(chan struct{})
	go func() {
		_ = s.Close()
		close(done)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil || errors.Is(err, ErrClosed) || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) {
			continue
		}
		t.Errorf("racing shutdown produced %v", err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
}

// TestChaosBatchPerRHSAccounting pins the chaos accounting contract of
// SolveBatch: the campaign is consulted once per right-hand side per attempt
// — each batch item is its own supervised job — not once per batch. With
// rate 1 and a budget of exactly len(batch) events, every item's first
// attempt draws one injected host error and its retry succeeds, so the event
// count equals the batch size and every item still gets a verified answer.
func TestChaosBatchPerRHSAccounting(t *testing.T) {
	const batchSize = 5
	opts := testOptions()
	opts.RetryMax = 3
	opts.RetryBase = time.Millisecond
	opts.BreakerThreshold = -1
	opts.Chaos = fault.NewChaos(fault.ChaosPlan{
		Seed:      7,
		Rate:      1,
		Kinds:     []fault.ChaosKind{fault.ChaosHostError},
		MaxEvents: batchSize,
	})
	s := New(opts)
	defer s.Close()

	m := sparse.Poisson2D(9, 9)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([][]float64, batchSize)
	for i := range rhs {
		rhs[i] = onesRHS(m)
	}
	items, err := s.SolveBatch(context.Background(), info.ID, rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("batch item %d failed: %v", i, it.Err)
		}
		if !it.Result.Stats.Converged {
			t.Fatalf("batch item %d did not converge", i)
		}
	}
	if got := opts.Chaos.Count(fault.ChaosHostError); got != batchSize {
		t.Fatalf("chaos consulted %d times, want one per RHS (%d): accounting is not per-RHS", got, batchSize)
	}
	if st := s.Stats(); st.Retries < batchSize {
		t.Fatalf("retries = %d, want ≥ %d (each RHS retried past its injected fault)", st.Retries, batchSize)
	}
}
