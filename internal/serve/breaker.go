package serve

import "ipusparse/internal/breaker"

// breakerFor returns the system's breaker, creating it lazily; nil when
// circuit breaking is disabled.
func (s *Service) breakerFor(id string) *breaker.Breaker {
	if s.opts.BreakerThreshold < 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.breakers[id]
	if !ok {
		b = breaker.New(s.opts.BreakerThreshold, s.opts.BreakerCooldown,
			func() { s.stats.breakerOpens.Add(1) },
			s.stats.breakerState.With(id).Set)
		s.breakers[id] = b
	}
	return b
}

// openBreakers counts systems currently shedding load.
func (s *Service) openBreakers() int {
	s.mu.Lock()
	brs := make([]*breaker.Breaker, 0, len(s.breakers))
	for _, b := range s.breakers {
		brs = append(brs, b)
	}
	s.mu.Unlock()
	n := 0
	for _, b := range brs {
		if b.State() == breaker.Open {
			n++
		}
	}
	return n
}
