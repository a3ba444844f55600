// Package blas4 implements the dense 4x4 block micro-kernels that dominate
// the sparse recurrences in the paper: block matrix-vector products for the
// triangular solve, block matrix-matrix products and in-place inversion for
// the ILU factorization. Blocks are stored row-major in flat [16]float64
// windows of the BSR value array; vectors are [4]float64 windows.
//
// The gc compiler unrolls no loops and keeps no array of more than one
// element in registers, so a fixed trip count buys nothing by itself. The
// kernels that matter are written out by hand with their operands in scalar
// locals (x0..x3, ai0..ai3, the hoisted block of GemvSubN): that is the
// closest pure-Go analogue of the paper's hand-vectorized intrinsics. The
// dense triangular-solve rows in package sparse write the same expressions
// over their own locals rather than call a kernel per block.
package blas4

// B is the block dimension: four unknowns (p,u,v,w) per mesh vertex.
const B = 4

// BB is the number of scalars in one block.
const BB = B * B

// Gemv computes y = A*x.
func Gemv(a, x, y []float64) {
	_ = a[15]
	_ = x[3]
	_ = y[3]
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	y[0] = a[0]*x0 + a[1]*x1 + a[2]*x2 + a[3]*x3
	y[1] = a[4]*x0 + a[5]*x1 + a[6]*x2 + a[7]*x3
	y[2] = a[8]*x0 + a[9]*x1 + a[10]*x2 + a[11]*x3
	y[3] = a[12]*x0 + a[13]*x1 + a[14]*x2 + a[15]*x3
}

// GemvSubN computes y -= A*x_c for one 4x4 block A applied to a run of
// column blocks: for each c in cols, in order, y -= A * x[4c:4c+4]. A's 16
// scalars are hoisted into registers once for the whole run — the batched
// repeated-block form of the dense solve's row update, used when
// consecutive BSR slots share one deduplicated block. Each per-column
// update evaluates y[r] -= a[4r]*x0 + a[4r+1]*x1 + a[4r+2]*x2 + a[4r+3]*x3,
// the dense row's expression in the same order, so the result is
// bit-identical to the dense path.
func GemvSubN(a, x []float64, cols []int32, y []float64) {
	_ = a[15]
	_ = y[3]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	a4, a5, a6, a7 := a[4], a[5], a[6], a[7]
	a8, a9, a10, a11 := a[8], a[9], a[10], a[11]
	a12, a13, a14, a15 := a[12], a[13], a[14], a[15]
	for _, c := range cols {
		xc := x[int(c)*B : int(c)*B+B]
		x0, x1, x2, x3 := xc[0], xc[1], xc[2], xc[3]
		y[0] -= a0*x0 + a1*x1 + a2*x2 + a3*x3
		y[1] -= a4*x0 + a5*x1 + a6*x2 + a7*x3
		y[2] -= a8*x0 + a9*x1 + a10*x2 + a11*x3
		y[3] -= a12*x0 + a13*x1 + a14*x2 + a15*x3
	}
}

// GemmSub computes C -= A*B for 4x4 row-major blocks. This is the update
// kernel of the block ILU factorization.
func GemmSub(a, b, c []float64) {
	_ = a[15]
	_ = b[15]
	_ = c[15]
	for i := 0; i < B; i++ {
		ai0, ai1, ai2, ai3 := a[i*B], a[i*B+1], a[i*B+2], a[i*B+3]
		c[i*B+0] -= ai0*b[0] + ai1*b[4] + ai2*b[8] + ai3*b[12]
		c[i*B+1] -= ai0*b[1] + ai1*b[5] + ai2*b[9] + ai3*b[13]
		c[i*B+2] -= ai0*b[2] + ai1*b[6] + ai2*b[10] + ai3*b[14]
		c[i*B+3] -= ai0*b[3] + ai1*b[7] + ai2*b[11] + ai3*b[15]
	}
}

// GemmSubN applies one pivot block A across a run of scheduled updates:
// for each u, in order, vals[dst[u]] -= A * vals[src[u]] (block windows of
// the flat value array). A is hoisted into registers once for the whole
// run — the batched form of GemmSub used by the ILU elimination, where one
// L_ik multiplies every U_kj of its update list. Per-update arithmetic and
// order match a GemmSub loop exactly, so results are bit-identical.
func GemmSubN(a, vals []float64, src, dst []int32) {
	_ = a[15]
	var ar [BB]float64
	copy(ar[:], a[:BB])
	for u := range src {
		b := vals[int(src[u])*BB : int(src[u])*BB+BB]
		c := vals[int(dst[u])*BB : int(dst[u])*BB+BB]
		for i := 0; i < B; i++ {
			ai0, ai1, ai2, ai3 := ar[i*B], ar[i*B+1], ar[i*B+2], ar[i*B+3]
			c[i*B+0] -= ai0*b[0] + ai1*b[4] + ai2*b[8] + ai3*b[12]
			c[i*B+1] -= ai0*b[1] + ai1*b[5] + ai2*b[9] + ai3*b[13]
			c[i*B+2] -= ai0*b[2] + ai1*b[6] + ai2*b[10] + ai3*b[14]
			c[i*B+3] -= ai0*b[3] + ai1*b[7] + ai2*b[11] + ai3*b[15]
		}
	}
}

// Gemm computes C = A*B for 4x4 row-major blocks.
func Gemm(a, b, c []float64) {
	_ = a[15]
	_ = b[15]
	_ = c[15]
	for i := 0; i < B; i++ {
		ai0, ai1, ai2, ai3 := a[i*B], a[i*B+1], a[i*B+2], a[i*B+3]
		c[i*B+0] = ai0*b[0] + ai1*b[4] + ai2*b[8] + ai3*b[12]
		c[i*B+1] = ai0*b[1] + ai1*b[5] + ai2*b[9] + ai3*b[13]
		c[i*B+2] = ai0*b[2] + ai1*b[6] + ai2*b[10] + ai3*b[14]
		c[i*B+3] = ai0*b[3] + ai1*b[7] + ai2*b[11] + ai3*b[15]
	}
}

// Copy copies one 4x4 block.
func Copy(dst, src []float64) {
	copy(dst[:BB], src[:BB])
}

// Zero clears one 4x4 block.
func Zero(dst []float64) {
	for i := 0; i < BB; i++ {
		dst[i] = 0
	}
}

// AddDiag adds s to the diagonal entries of the block.
func AddDiag(a []float64, s float64) {
	a[0] += s
	a[5] += s
	a[10] += s
	a[15] += s
}

// Invert inverts the 4x4 row-major block in place using Gauss-Jordan
// elimination with partial pivoting. It returns false if the block is
// numerically singular (pivot below tiny), in which case the block is left
// in an unspecified state. The paper's PETSc configuration pre-inverts the
// diagonal blocks inside the ILU routine; this is that kernel.
func Invert(a []float64) bool {
	const tiny = 1e-300
	var aug [B][2 * B]float64
	for i := 0; i < B; i++ {
		for j := 0; j < B; j++ {
			aug[i][j] = a[i*B+j]
		}
		aug[i][B+i] = 1
	}
	for col := 0; col < B; col++ {
		// Partial pivot.
		piv := col
		pv := abs(aug[col][col])
		for r := col + 1; r < B; r++ {
			if v := abs(aug[r][col]); v > pv {
				piv, pv = r, v
			}
		}
		if pv < tiny {
			return false
		}
		if piv != col {
			aug[piv], aug[col] = aug[col], aug[piv]
		}
		inv := 1 / aug[col][col]
		for j := 0; j < 2*B; j++ {
			aug[col][j] *= inv
		}
		for r := 0; r < B; r++ {
			if r == col {
				continue
			}
			f := aug[r][col]
			if f == 0 {
				continue
			}
			for j := 0; j < 2*B; j++ {
				aug[r][j] -= f * aug[col][j]
			}
		}
	}
	for i := 0; i < B; i++ {
		for j := 0; j < B; j++ {
			a[i*B+j] = aug[i][B+j]
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// MaxAbs returns the largest absolute entry of the block, used by tests and
// by diagonal-dominance diagnostics.
func MaxAbs(a []float64) float64 {
	m := 0.0
	for i := 0; i < BB; i++ {
		if v := abs(a[i]); v > m {
			m = v
		}
	}
	return m
}
