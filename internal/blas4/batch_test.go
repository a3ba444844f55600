package blas4

import (
	"math/rand"
	"testing"
)

// GemvSubN over a column list must be bit-identical to a loop of
// single-block updates y -= A*x_c with the same block: the batched kernel
// hoists the block scalars but keeps the per-column expression and
// evaluation order unchanged, so exact equality is the correct assertion.
func TestGemvSubNBitIdenticalToLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		a := randBlock(rng)
		n := 1 + rng.Intn(12)
		x := make([]float64, n*B)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		cols := make([]int32, 1+rng.Intn(8))
		for i := range cols {
			cols[i] = int32(rng.Intn(n))
		}
		y := randBlock(rng)[:B]
		want := append([]float64(nil), y...)
		for _, c := range cols {
			xc := x[int(c)*B : int(c)*B+B]
			for r := 0; r < B; r++ {
				want[r] -= a[r*B]*xc[0] + a[r*B+1]*xc[1] + a[r*B+2]*xc[2] + a[r*B+3]*xc[3]
			}
		}
		GemvSubN(a, x, cols, y)
		for i := 0; i < B; i++ {
			if y[i] != want[i] {
				t.Fatalf("trial %d: GemvSubN[%d] = %v, single-block loop = %v", trial, i, y[i], want[i])
			}
		}
	}
}

// GemmSubN over (src, dst) slot lists must be bit-identical to a loop of
// GemmSub calls reading and writing the same value array.
func TestGemmSubNBitIdenticalToLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		a := randBlock(rng)
		slots := 2 + rng.Intn(10)
		vals := make([]float64, slots*BB)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		nu := 1 + rng.Intn(6)
		src := make([]int32, nu)
		dst := make([]int32, nu)
		for u := range src {
			// Distinct src/dst per update, like the ILU elimination schedule
			// (the pivot row is never its own destination).
			src[u] = int32(rng.Intn(slots))
			dst[u] = int32(rng.Intn(slots))
			for dst[u] == src[u] {
				dst[u] = int32(rng.Intn(slots))
			}
		}
		want := append([]float64(nil), vals...)
		for u := range src {
			GemmSub(a, want[int(src[u])*BB:int(src[u])*BB+BB], want[int(dst[u])*BB:int(dst[u])*BB+BB])
		}
		GemmSubN(a, vals, src, dst)
		for i := range vals {
			if vals[i] != want[i] {
				t.Fatalf("trial %d: GemmSubN vals[%d] = %v, loop of GemmSub = %v", trial, i, vals[i], want[i])
			}
		}
	}
}
