// Package chaintaint seeds a secrettaint violation at the top of a
// twelve-deep helper chain: Leak hands key material to h1, which
// forwards it through h2 … h12 into fmt.Sprintf. Callers are declared
// before their callees, so a caller's summary can only be final once
// every callee below it is.
package chaintaint

import (
	"fmt"

	"fixture/internal/bfv"
)

// Leak formats the key twelve calls down.
func Leak(sk *bfv.SecretKey) string {
	return h1(sk.Signed) // want secrettaint
}

func h1(v []int64) string { return h2(v) }

func h2(v []int64) string { return h3(v) }

func h3(v []int64) string { return h4(v) }

func h4(v []int64) string { return h5(v) }

func h5(v []int64) string { return h6(v) }

func h6(v []int64) string { return h7(v) }

func h7(v []int64) string { return h8(v) }

func h8(v []int64) string { return h9(v) }

func h9(v []int64) string { return h10(v) }

func h10(v []int64) string { return h11(v) }

func h11(v []int64) string { return h12(v) }

func h12(v []int64) string { return fmt.Sprintf("%v", v) }
