// Package par is a sequential stub of the production fork-join helpers,
// signature-compatible so the parsafe and scratchalias fixtures
// type-check.
package par

// ForEach runs f(w, i) for every i in [0, n), handing each invocation a
// worker slot w — concurrently, in production.
func ForEach(n int, f func(w, i int)) {
	for i := 0; i < n; i++ {
		f(0, i)
	}
}

// Pool is a sequential stub of the production lazy per-worker pool.
type Pool[T any] struct {
	mk    func() T
	items map[int]T
}

// NewPool returns a pool that builds one T per worker via mk.
func NewPool[T any](mk func() T) *Pool[T] {
	return &Pool[T]{mk: mk, items: map[int]T{}}
}

// Get returns worker w's item, building it on first use.
func (p *Pool[T]) Get(w int) T {
	it, ok := p.items[w]
	if !ok {
		it = p.mk()
		p.items[w] = it
	}
	return it
}
