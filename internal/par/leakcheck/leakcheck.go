// Package leakcheck is a stdlib-only goroutine-leak guard for test
// binaries: it snapshots the goroutine count before the tests run and
// fails the binary if the count has not returned to the baseline after
// a grace period. It is the runtime backstop behind athena-lint's
// static goleak pass — goleak proves termination signals exist, this
// proves the signals actually fired during the tests.
//
// Wire it in with a one-line TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// The grace period absorbs goroutines that are mid-teardown when the
// last test returns (server accept loops draining, timers firing); a
// goroutine that survives the full grace window is a leak, and the
// guard dumps every goroutine stack so the culprit is identifiable
// from the CI log alone.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// gracePeriod is how long teardown may take before a surviving
// goroutine counts as leaked.
const gracePeriod = 5 * time.Second

// Main runs the package's tests and then enforces the leak baseline.
// It does not return: like testing.M.Run wrapped in os.Exit, the
// process exits with the test status, or with failure when the tests
// passed but goroutines leaked.
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	// A fuzzing run leaves the fuzz engine's own signal watcher behind.
	fuzz := flag.Lookup("test.fuzz")
	if code == 0 && (fuzz == nil || fuzz.Value.String() == "") {
		if err := settle(base); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// settle polls until the goroutine count drops back to the baseline or
// the grace period expires, in which case it reports the survivors'
// stacks.
func settle(base int) error {
	deadline := time.Now().Add(gracePeriod)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("leakcheck: %d goroutines still running %v after tests finished (baseline %d); stacks:\n\n%s",
				n, gracePeriod, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
