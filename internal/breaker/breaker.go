// Package breaker is the one circuit breaker of the serving stack: the solve
// service keeps one per registered system, the cluster router one per shard.
package breaker

import (
	"sync"
	"time"
)

// State is the classic three-state circuit breaker.
type State int

const (
	Closed   State = iota // normal operation
	Open                  // shedding load, cooling down
	HalfOpen              // admitting a single probe
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// gaugeValue maps a state onto the *_breaker_state gauge scale: 0 closed,
// 1 half-open, 2 open.
func (s State) gaugeValue() float64 {
	switch s {
	case HalfOpen:
		return 1
	case Open:
		return 2
	}
	return 0
}

// Breaker shields one target (a system's solves, a shard's requests):
// threshold consecutive failures open it, an open breaker sheds every request
// until the cooldown elapses, then one probe is admitted (half-open) — its
// success closes the circuit, its failure re-opens it for another cooldown.
// Callers decide what counts as a failure; the router, for one, reports only
// transport-level failures, never an application-level 400.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	opens     func()        // open-transition counter hook
	gauge     func(float64) // state-gauge hook, called on every transition

	mu       sync.Mutex
	state    State
	fails    int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// New returns a closed breaker. Both hooks are optional: opens is called on
// every transition to open, gauge receives the state (0 closed, 1 half-open,
// 2 open) once now, so the series exists before the first transition, and
// again on every transition.
func New(threshold int, cooldown time.Duration, opens func(), gauge func(float64)) *Breaker {
	b := &Breaker{threshold: threshold, cooldown: cooldown, opens: opens, gauge: gauge}
	b.setState(Closed)
	return b
}

// setState transitions the state and notifies the gauge hook (callers hold
// b.mu).
func (b *Breaker) setState(st State) {
	b.state = st
	if b.gauge != nil {
		b.gauge(st.gaugeValue())
	}
}

// Allow reports whether a request may proceed, transitioning open → half-open
// after the cooldown and admitting exactly one probe at a time.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.setState(HalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a served request and closes the circuit.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.setState(Closed)
	b.fails = 0
	b.probing = false
}

// Failure records a failed request: it re-opens a half-open circuit
// immediately and opens a closed one at the threshold.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.open()
	case Closed:
		b.fails++
		if b.fails >= b.threshold {
			b.open()
		}
	}
}

// open transitions to the open state (callers hold b.mu).
func (b *Breaker) open() {
	b.setState(Open)
	b.openedAt = time.Now()
	b.fails = 0
	b.probing = false
	if b.opens != nil {
		b.opens()
	}
}

// State snapshots the state, folding an elapsed cooldown into half-open for
// reporting.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && time.Since(b.openedAt) >= b.cooldown {
		return HalfOpen
	}
	return b.state
}
