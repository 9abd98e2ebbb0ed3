// Package cyclelock seeds a lockorder re-acquisition behind a recursive
// cycle: f calls g and then locks mu, and g calls f back. HoldF and
// HoldG each call into the cycle with mu held; both re-acquire it,
// whichever of them is checked first.
package cyclelock

import "sync"

var mu sync.Mutex

// HoldF re-acquires mu through f.
func HoldF() {
	mu.Lock()
	f(3) // want lockorder
	mu.Unlock()
}

// HoldG re-acquires mu through g → f.
func HoldG() {
	mu.Lock()
	g(3) // want lockorder
	mu.Unlock()
}

func f(n int) {
	if n > 0 {
		g(n - 1)
	}
	mu.Lock()
	mu.Unlock()
}

func g(n int) { f(n) }
