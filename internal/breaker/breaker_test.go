package breaker

import (
	"testing"
	"time"
)

// TestBreakerHalfOpenFailureReopens verifies a failed probe re-opens the
// circuit for another full cooldown.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	br := New(1, time.Hour, nil, nil)
	br.Failure()
	if br.State() != Open {
		t.Fatalf("state %v after threshold failures, want open", br.State())
	}
	if br.Allow() {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	br.mu.Lock()
	br.openedAt = time.Now().Add(-2 * time.Hour) // cooldown elapsed
	br.mu.Unlock()
	if !br.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if br.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	br.Failure()
	if br.Allow() {
		t.Fatal("breaker admitted a request right after a failed probe")
	}
	br.mu.Lock()
	br.openedAt = time.Now().Add(-2 * time.Hour)
	br.mu.Unlock()
	if !br.Allow() {
		t.Fatal("re-cooled breaker refused the second probe")
	}
	br.Success()
	if got := br.State(); got != Closed {
		t.Fatalf("state %v after successful probe, want closed", got)
	}
}

// TestHooks checks the two optional hooks: the gauge sees the closed state at
// construction and every transition after it, opens counts open transitions
// only, and sub-threshold failures move neither.
func TestHooks(t *testing.T) {
	var gauge []float64
	opens := 0
	br := New(2, time.Hour, func() { opens++ }, func(v float64) { gauge = append(gauge, v) })
	br.Failure()
	if opens != 0 || br.State() != Closed {
		t.Fatalf("one failure under threshold 2: opens=%d state=%v", opens, br.State())
	}
	br.Failure()
	br.mu.Lock()
	br.openedAt = time.Now().Add(-2 * time.Hour)
	br.mu.Unlock()
	if !br.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	br.Success()
	want := []float64{0, 2, 1, 0} // closed, open, half-open, closed
	if opens != 1 || len(gauge) != len(want) {
		t.Fatalf("opens=%d gauge=%v, want 1 and %v", opens, gauge, want)
	}
	for i := range want {
		if gauge[i] != want[i] {
			t.Fatalf("gauge=%v, want %v", gauge, want)
		}
	}
}
