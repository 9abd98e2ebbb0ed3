package qnn

// Interval is the closed integer range [Lo, Hi]: a proven bound on the
// values a layer reads or writes, as opposed to the calibrated MaxAcc.
type Interval struct{ Lo, Hi int64 }

// Union returns the smallest interval holding a and b.
func (a Interval) Union(b Interval) Interval {
	return Interval{min(a.Lo, b.Lo), max(a.Hi, b.Hi)}
}

// Add returns the interval of x + y for x in a and y in b.
func (a Interval) Add(b Interval) Interval { return Interval{a.Lo + b.Lo, a.Hi + b.Hi} }

// AccInterval bounds the accumulators of q for inputs in in: an output
// channel's lie in its bias plus, for each weight, the weight times
// whichever end of the input interval makes the product least (for Lo)
// or greatest (for Hi) — the weights split by sign — and the layer's is
// the union over its channels. The input interval is widened to hold 0,
// the value of every zero-padded input, so windows at the border, which
// read fewer inputs, stay inside.
func (q *QConv) AccInterval(in Interval) Interval {
	in = in.Union(Interval{})
	var out Interval
	for co, ws := range q.Weights {
		acc := Interval{q.Bias[co], q.Bias[co]}
		for _, plane := range ws {
			for _, row := range plane {
				for _, w := range row {
					if w >= 0 {
						acc = acc.Add(Interval{w * in.Lo, w * in.Hi})
					} else {
						acc = acc.Add(Interval{w * in.Hi, w * in.Lo})
					}
				}
			}
		}
		if co == 0 {
			out = acc
		} else {
			out = out.Union(acc)
		}
	}
	return out
}

// Image returns the interval of f's values over every point of in.
func Image(f func(int64) int64, in Interval) Interval {
	out := Interval{f(in.Lo), f(in.Lo)}
	for x := in.Lo + 1; x <= in.Hi; x++ {
		y := f(x)
		out = Interval{min(out.Lo, y), max(out.Hi, y)}
	}
	return out
}
