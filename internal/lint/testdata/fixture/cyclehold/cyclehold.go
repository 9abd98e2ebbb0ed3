// Package cyclehold seeds a blockhold violation behind a recursive
// cycle: a calls b and then c, which sends on a channel, and b calls a
// back. Both callers hold the mutex across a call into the cycle, and
// both are flagged whichever of them is checked first.
package cyclehold

import "sync"

type server struct {
	mu sync.Mutex
	ch chan int
}

// First holds mu across a call into the cycle at a.
func (s *server) First() {
	s.mu.Lock()
	s.a(3) // want blockhold
	s.mu.Unlock()
}

// Second holds mu across a call into the cycle at b.
func (s *server) Second() {
	s.mu.Lock()
	s.b(3) // want blockhold
	s.mu.Unlock()
}

func (s *server) a(n int) {
	s.b(n)
	s.c(n)
}

func (s *server) b(n int) {
	if n > 0 {
		s.a(n - 1)
	}
}

func (s *server) c(n int) { s.ch <- n }
