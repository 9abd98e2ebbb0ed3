package par

import (
	"fmt"
	"testing"
	"time"
)

// spin busies its goroutine for d without yielding, like a kernel loop.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// BenchmarkForEachOverhead prices one fork-join: a ForEach over two
// spin items of 50, 200 or 400 µs each. With each item on its own lane
// the call would take one item's time; overhead_us is the rest, per call
// — spawning, scheduling and joining the workers, and any time a lane
// waits for a CPU. On one CPU the loop runs inline and overhead_us is
// the second item.
func BenchmarkForEachOverhead(b *testing.B) {
	const items = 2
	for _, us := range []int{50, 200, 400} {
		d := time.Duration(us) * time.Microsecond
		b.Run(fmt.Sprintf("item=%dus", us), func(b *testing.B) {
			for b.Loop() {
				ForEach(items, func(_, _ int) { spin(d) })
			}
			per := float64(b.Elapsed().Microseconds()) / float64(b.N)
			b.ReportMetric(per, "us/call")
			b.ReportMetric(per-float64(us), "overhead_us")
		})
	}
}
