// Package allocdemo seeds accept and reject cases for the noalloc pass:
// every heap-allocating construct inside a //lint:noalloc function is
// flagged, cold panic/error paths and declared arena refills are not,
// and transitive allocations surface at the annotated root's call site.
package allocdemo

import "fmt"

type pair struct{ a, b int }

func (p *pair) sum() int { return p.a + p.b }

type boxer interface{ sum() int }

type state struct{ tmp []uint64 }

func helperNop() {}

func variadicSink(vs ...int) int {
	n := 0
	for _, v := range vs {
		n += v
	}
	return n
}

// Violations packs one reject case per line; each must be flagged.
//
//lint:noalloc
func Violations(m map[string]int, xs []int, s1, s2 string, b []byte) {
	t := make([]int, 4) // want noalloc
	_ = t
	p := new(int)      // want noalloc
	xs = append(xs, 1) // want noalloc
	_ = xs
	s := s1 + s2     // want noalloc
	str := string(b) // want noalloc
	_ = str
	f := func() int { return 1 } // want noalloc
	_ = f
	go helperNop()       // want noalloc
	m["k"] = 1           // want noalloc
	q := &pair{1, 2}     // want noalloc
	sl := []int{1, 2, 3} // want noalloc
	_ = sl
	_ = variadicSink(1, 2) // want noalloc
	mv := q.sum            // want noalloc
	_ = mv
	bx := boxer(q) // want noalloc
	_ = bx
	_ = fmt.Sprint(s) // want noalloc
	_ = p
}

func makeSlice(n int) []int { return make([]int, n) }

func leakyHelper(n int) []int { return makeSlice(n) }

// TransitiveAlloc is clean itself; the allocation two calls down must
// surface here, at the poisoning call site.
//
//lint:noalloc
func TransitiveAlloc(n int) []int {
	return leakyHelper(n) // want noalloc
}

// CleanKernel is the accept shape: pure index arithmetic over
// caller-owned slices, with a cold panic guard that may format.
//
//lint:noalloc
func CleanKernel(dst, src []uint64, w uint64) {
	if len(src) < len(dst) {
		panic(fmt.Sprintf("allocdemo: src %d < dst %d", len(src), len(dst)))
	}
	for i := range dst {
		dst[i] = src[i] * w
	}
}

// ColdError may construct its error: a return producing a fresh
// fmt.Errorf is a cold exit, not steady state.
//
//lint:noalloc
func ColdError(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("allocdemo: negative n %d", n)
	}
	return n * 2, nil
}

func cleanHelper(dst []uint64) {
	for i := range dst {
		dst[i]++
	}
}

// CallsClean exercises both edge kinds that must stay silent: an
// annotated callee (its own contract) and a clean unannotated helper.
//
//lint:noalloc
func CallsClean(dst, src []uint64) {
	CleanKernel(dst, src, 3)
	cleanHelper(dst)
}

// ValueLiteral: value struct literals live in the frame and are exempt.
//
//lint:noalloc
func ValueLiteral(a, b int) int {
	p := pair{a, b}
	return p.a + p.b
}

// InterfaceCall: calls through interface methods are a documented
// exemption (target unknown statically).
//
//lint:noalloc
func InterfaceCall(b boxer) int { return b.sum() }

// fill declares its arena growth: the make runs once per size change,
// not per op.
//
//lint:noalloc
func (s *state) fill(n int) {
	if cap(s.tmp) < n {
		//lint:prealloc arena grows once per size change, not per op
		s.tmp = make([]uint64, n)
	}
	s.tmp = s.tmp[:n]
	for i := range s.tmp {
		s.tmp[i] = 0
	}
}

// AllowedLazyInit: an explained allow inside the annotated function
// suppresses the site.
//
//lint:noalloc
func AllowedLazyInit(s *state) {
	if s.tmp == nil {
		s.tmp = make([]uint64, 16) //lint:allow noalloc one-time lazy arena fill, amortized over the session
	}
}

func allowedHelper(s *state) {
	s.tmp = append(s.tmp, 1) //lint:allow noalloc amortized growth, demonstrates allows folding into summaries
}

// CallsAllowedHelper must stay clean: the helper's allowed site does
// not poison its callers.
//
//lint:noalloc
func CallsAllowedHelper(s *state) { allowedHelper(s) }

// evenSteps/oddSteps: an allocation-free mutually recursive cycle must
// verify clean (optimistic cycle handling).
//
//lint:noalloc
func evenSteps(n int) bool {
	if n == 0 {
		return true
	}
	return oddSteps(n - 1)
}

func oddSteps(n int) bool {
	if n == 0 {
		return false
	}
	return evenSteps(n - 1)
}

// misspelled's contract is misspelled: an allowlist finding, not a
// silently dropped noalloc contract.
//
//lint:noaloc
func misspelled(n int) []int {
	return make([]int, n)
}
