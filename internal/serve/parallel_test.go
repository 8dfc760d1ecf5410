package serve

import (
	"context"
	"math"
	"sync"
	"testing"

	"ipusparse/internal/config"
	"ipusparse/internal/sparse"
)

// TestServiceParallelEngineReplicas drives concurrent solves through three
// replicas of one system under a service engine block asking for host
// parallelism, which registration drops: every replica runs native. Under
// -race this exercises the replicas from several goroutines at once; the
// assertions require every solve to return the same solution bits and cycle
// count.
func TestServiceParallelEngineReplicas(t *testing.T) {
	opts := testOptions()
	opts.ReplicasPerKey = 3
	opts.Workers = 4
	opts.QueueDepth = 256
	opts.Solver.Engine = &config.EngineConfig{Parallelism: 4}
	s := New(opts)
	defer s.Close()

	m := sparse.Poisson3D(6, 6, 6)
	info, err := s.Register(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := onesRHS(m)
	want, err := s.Solve(context.Background(), info.ID, b)
	if err != nil {
		t.Fatal(err)
	}

	const gors, per = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, gors)
	wg.Add(gors)
	for g := 0; g < gors; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				res, err := s.Solve(context.Background(), info.ID, b)
				if err != nil {
					errs <- err
					return
				}
				for j := range res.X {
					if math.Float64bits(res.X[j]) != math.Float64bits(want.X[j]) {
						t.Errorf("x[%d] bits diverged across replicas", j)
						return
					}
				}
				if res.Machine.TotalCycles != want.Machine.TotalCycles {
					t.Errorf("cycles %d, want %d", res.Machine.TotalCycles, want.Machine.TotalCycles)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
