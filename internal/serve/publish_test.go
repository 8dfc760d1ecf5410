package serve

import (
	"context"
	"reflect"
	"testing"
	"time"

	"ipusparse/internal/sparse"
)

// sysState is what a crash-safe service must recover of one system: its
// values generation and the fingerprint of the matrix it serves.
type sysState struct {
	Generation int
	Matrix     uint64
}

func liveState(s *Service) map[string]sysState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]sysState, len(s.systems))
	for id, sys := range s.systems {
		out[id] = sysState{Generation: sys.generation, Matrix: sys.key.Matrix}
	}
	return out
}

// requireRecovered closes s, reopens its state directory and requires the
// recovered systems to be exactly the ones s served before Close.
func requireRecovered(t *testing.T, s *Service, opts Options) {
	t.Helper()
	live := liveState(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := liveState(s2); !reflect.DeepEqual(got, live) {
		t.Fatalf("recovered %+v, served %+v before Close", got, live)
	}
}

// awaitMiss blocks until the service has started more than n cold prepares.
func awaitMiss(t *testing.T, s *Service, n uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().CacheMisses <= n {
		if time.Now().After(deadline) {
			t.Fatal("no cold prepare started")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentWritersPersistWhatTheyInstall races the write paths of a
// crash-safe service against each other. Whatever interleaving wins, the
// losing call answers an error, and a reopened service recovers exactly the
// IDs, generations and matrices the live one served before Close: a call that
// failed persisted nothing, and a tombstone holds.
func TestConcurrentWritersPersistWhatTheyInstall(t *testing.T) {
	ctx := context.Background()
	// Each PATCH below finds its pool evicted (CacheCapacity 1 and a second
	// registration), so it cold-prepares: the window the other writer lands in.
	setup := func(t *testing.T) (*Service, Options, *sparse.Matrix, SystemInfo) {
		opts := testOptions()
		opts.StateDir = t.TempDir()
		opts.CacheCapacity = 1
		opts.TuneBudget = 300 * time.Millisecond
		opts.TuneSolves = 1
		s, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		m := sparse.Poisson3D(16, 16, 16)
		info, err := s.Register(ctx, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Register(ctx, sparse.Poisson2D(6, 6), nil); err != nil {
			t.Fatal(err)
		}
		return s, opts, m, info
	}
	patch := func(s *Service, id string, m *sparse.Matrix) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := s.UpdateSystem(ctx, id, m)
			done <- err
		}()
		return done
	}

	t.Run("delete-during-patch-prepare", func(t *testing.T) {
		s, opts, m, info := setup(t)
		defer s.Close()
		misses := s.Stats().CacheMisses
		patched := patch(s, info.ID, drift(m, 1))
		awaitMiss(t, s, misses)
		if err := s.Deregister(ctx, info.ID); err != nil {
			t.Fatalf("DELETE during the PATCH's prepare: %v", err)
		}
		if err := <-patched; err == nil {
			t.Fatal("PATCH of a system deleted under it was acknowledged")
		}
		if _, ok := liveState(s)[info.ID]; ok {
			t.Fatal("deleted system still served")
		}
		requireRecovered(t, s, opts)
	})

	t.Run("two-patches-one-generation", func(t *testing.T) {
		s, opts, m, info := setup(t)
		defer s.Close()
		a, b := patch(s, info.ID, drift(m, 1)), patch(s, info.ID, drift(m, 2))
		errA, errB := <-a, <-b
		if (errA == nil) == (errB == nil) {
			t.Fatalf("two PATCHes of generation %d: errors %v and %v, want exactly one", info.Generation, errA, errB)
		}
		if got := liveState(s)[info.ID].Generation; got != info.Generation+1 {
			t.Fatalf("generation %d after one successful PATCH of %d", got, info.Generation)
		}
		requireRecovered(t, s, opts)
	})

	t.Run("tune-during-patch", func(t *testing.T) {
		s, opts, m, info := setup(t)
		defer s.Close()
		misses := s.Stats().CacheMisses
		patched := patch(s, info.ID, drift(m, 1))
		awaitMiss(t, s, misses)
		_, tuneErr := s.ForceTune(ctx, info.ID)
		patchErr := <-patched
		if (tuneErr == nil) == (patchErr == nil) {
			t.Fatalf("ForceTune racing a PATCH: errors %v and %v, want exactly one", tuneErr, patchErr)
		}
		requireRecovered(t, s, opts)
	})
}
