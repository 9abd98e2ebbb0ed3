// Package looptaint seeds a secrettaint violation that needs one
// dataflow sweep per loop-carried copy: the key enters a12 at the
// bottom of the loop body and reaches the formatted a1 only after
// twelve trips through a1 = a2, …, a11 = a12.
package looptaint

import (
	"fmt"

	"fixture/internal/bfv"
)

// LoopLeak prints what the key became eleven iterations ago.
func LoopLeak(sk *bfv.SecretKey, rounds int) {
	var a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12 []int64
	for range rounds {
		fmt.Println(a1) // want secrettaint
		a1 = a2
		a2 = a3
		a3 = a4
		a4 = a5
		a5 = a6
		a6 = a7
		a7 = a8
		a8 = a9
		a9 = a10
		a10 = a11
		a11 = a12
		a12 = sk.Signed
	}
}
