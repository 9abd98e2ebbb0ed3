// Package cyclealloc seeds a noalloc violation behind a recursive
// cycle: a calls b and then the allocating c, and b calls a back. Both
// annotated roots reach the allocation — First through a → c, Second
// through b → a → c — whichever of them is checked first.
package cyclealloc

// First enters the cycle at a.
//
//lint:noalloc
func First() int {
	return a(3) // want noalloc
}

// Second enters the cycle at b.
//
//lint:noalloc
func Second() int {
	return b(3) // want noalloc
}

func a(n int) int {
	m := b(n)
	return m + c(n)
}

func b(n int) int {
	if n <= 0 {
		return 0
	}
	return a(n - 1)
}

func c(n int) int {
	s := make([]int, n)
	return len(s)
}
