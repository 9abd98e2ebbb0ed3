// Package parfix seeds parsafe violations next to their safe forms.
// Lines tagged "// want parsafe" must be flagged; everything else must
// stay silent.
package parfix

import "fixture/internal/par"

// Violations: shared-state writes that are not index-derived.

func badScalar(n int, xs []uint64) uint64 {
	var sum uint64
	par.ForEach(n, func(w, i int) {
		sum += xs[i] // want parsafe
	})
	return sum
}

func badMap(n int) map[int]bool {
	seen := map[int]bool{}
	par.ForEach(n, func(w, i int) {
		seen[i] = true // want parsafe
	})
	return seen
}

func badSharedSlot(n int, out []uint64) {
	par.ForEach(n, func(w, i int) {
		out[0] = uint64(i) // want parsafe
	})
}

func badFirst(n int, xs []uint64) uint64 {
	first := uint64(0)
	par.ForEach(n, func(w, i int) {
		if first == 0 {
			first = xs[i] // want parsafe
		}
	})
	return first
}

func badMax(n int, xs []uint64) uint64 {
	var hi uint64
	par.ForEach(n, func(w, i int) {
		if xs[i] > hi {
			hi = xs[i] // want parsafe
		}
	})
	return hi
}

type acc struct{ total uint64 }

func badField(n int, xs []uint64, a *acc) {
	par.ForEach(n, func(w, i int) {
		a.total += xs[i] // want parsafe
	})
}

func badPointer(n int, p *uint64) {
	par.ForEach(n, func(w, i int) {
		*p = uint64(i) // want parsafe
	})
}

func badIncDec(n int) int {
	count := 0
	par.ForEach(n, func(w, i int) {
		count++ // want parsafe
	})
	return count
}

// Safe forms: index-derived writes, closure-local state, per-worker
// accumulation merged after the join.

func goodIndexed(n int, xs, out []uint64) {
	par.ForEach(n, func(w, i int) {
		tmp := xs[i]
		tmp++
		out[i] = tmp * 3
	})
}

func goodPerWorker(n int, xs, partial []uint64) uint64 {
	par.ForEach(n, func(w, i int) {
		partial[w] += xs[i]
	})
	var total uint64
	for _, s := range partial {
		total += s
	}
	return total
}

func goodFieldOfIndexed(n int, rows []acc) {
	par.ForEach(n, func(w, i int) {
		rows[i].total = uint64(i)
	})
}

// An explained allow suppresses the finding on its line.
func allowedLatch(n int) bool {
	hit := false
	par.ForEach(n, func(w, i int) {
		hit = true //lint:allow parsafe fixture demonstrates an explained suppression
	})
	return hit
}
