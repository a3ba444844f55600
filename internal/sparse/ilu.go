package sparse

import (
	"fmt"
	"sort"

	"fun3d/internal/blas4"
)

// Factor is a block ILU factorization stored as a single BSR holding the
// strictly-lower L (unit block diagonal, not stored), the strictly-upper U,
// and the *inverted* diagonal blocks of U — the PETSc-style layout the paper
// uses ("the diagonal blocks are additionally inverted within the ILU
// routine itself and then stored"), which turns the back-substitution's
// divisions into 4x4 gemvs.
type Factor struct {
	M *BSR

	// Precomputed elimination schedule (the compressed-workspace
	// optimization, resolved at symbolic time): for each sub-diagonal slot
	// s of the factor (a pivot application L_ik), updates
	// [updPtr[s], updPtr[s+1]) list the (source U_kj slot, destination
	// row-i slot) pairs, so the numeric factorization does no index
	// searches at all — PETSc's "stored in the order it is accessed".
	updPtr []int32
	updSrc []int32
	updDst []int32

	// Dedup mode (EnableDedup): after each numeric factorization the
	// factor values are content-deduplicated into dd, and the triangular
	// solves read blocks through it run-by-run (blas4.GemvSubN). srcDD is
	// the deduplicated view of the source Jacobian, rebuilt by copyValues
	// and read during value transfer; it also carries the source store's
	// unique-block ratio for the byte accounting. Both views hold bit-
	// identical scalars to the dense stores, so dedup mode never changes a
	// result bit.
	dedup bool
	dd    *DedupBSR
	srcDD *DedupBSR
}

// EnableDedup switches content-deduplicated stores on or off. The switch
// takes effect at the next factorization; disabling also drops the views.
func (f *Factor) EnableDedup(on bool) {
	f.dedup = on
	if !on {
		f.dd, f.srcDD = nil, nil
	}
}

// Dedup returns the deduplicated view of the factor values (nil until a
// factorization has run with dedup enabled).
func (f *Factor) Dedup() *DedupBSR { return f.dd }

// SourceDedup returns the deduplicated view of the source matrix values
// seen by the last copyValues (nil until then).
func (f *Factor) SourceDedup() *DedupBSR { return f.srcDD }

// SymbolicILU computes the ILU(level) fill pattern of a. Level 0 returns
// the pattern of a itself. For level k > 0, fill entries with level-of-fill
// <= k are added by the standard symbolic algorithm: processing rows in
// order, a fill entry (i,j) created via pivot k gets level
// lev(i,k)+lev(k,j)+1.
func SymbolicILU(a *BSR, level int) ([][]int32, error) {
	if level < 0 {
		return nil, fmt.Errorf("sparse: negative fill level %d", level)
	}
	n := a.N
	rows := make([][]int32, n)
	levs := make([][]int32, n)
	for i := 0; i < n; i++ {
		cols := append([]int32(nil), a.Col[a.Ptr[i]:a.Ptr[i+1]]...)
		lv := make([]int32, len(cols))
		if level > 0 {
			// Merge-based symbolic elimination on (cols, lv).
			cols, lv = symbolicRow(int32(i), cols, lv, rows, levs, int32(level))
		}
		rows[i], levs[i] = cols, lv
	}
	return rows, nil
}

// symbolicRow eliminates row i symbolically against all prior rows whose
// columns appear below the diagonal, tracking fill levels.
func symbolicRow(i int32, cols []int32, lv []int32, rows [][]int32, levs [][]int32, maxLev int32) ([]int32, []int32) {
	pos := map[int32]int32{} // col -> index in cols
	for k, c := range cols {
		pos[c] = int32(k)
	}
	// Process pivots k < i in ascending order; cols grows during the loop.
	for ki := 0; ki < len(cols); ki++ {
		// find the next unprocessed pivot: we must scan in ascending column
		// order, so sort the remaining prefix lazily.
		sortPrefix(cols, lv, ki)
		k := cols[ki]
		if k >= i {
			break
		}
		levIK := lv[ki]
		krow, klev := rows[k], levs[k]
		for t, j := range krow {
			if j <= k {
				continue
			}
			newLev := levIK + klev[t] + 1
			if newLev > maxLev {
				continue
			}
			if p, ok := pos[j]; ok {
				if newLev < lv[p] {
					lv[p] = newLev
				}
			} else {
				pos[j] = int32(len(cols))
				cols = append(cols, j)
				lv = append(lv, newLev)
			}
		}
	}
	sortPrefix(cols, lv, 0) // appended fill may be out of order past the break point
	return cols, lv
}

// sortPrefix keeps cols[from:] sorted ascending (parallel with lv).
func sortPrefix(cols, lv []int32, from int) {
	tail := cols[from:]
	tlv := lv[from:]
	sort.Sort(&colLevSorter{tail, tlv})
}

type colLevSorter struct {
	c, l []int32
}

func (s *colLevSorter) Len() int           { return len(s.c) }
func (s *colLevSorter) Less(i, j int) bool { return s.c[i] < s.c[j] }
func (s *colLevSorter) Swap(i, j int) {
	s.c[i], s.c[j] = s.c[j], s.c[i]
	s.l[i], s.l[j] = s.l[j], s.l[i]
}

// NewFactorPattern allocates the factor matrix for the given fill pattern
// (from SymbolicILU) and precomputes the elimination schedule.
func NewFactorPattern(rows [][]int32) (*Factor, error) {
	m, err := NewBSRFromPattern(rows)
	if err != nil {
		return nil, err
	}
	f := &Factor{M: m}
	f.buildUpdateSchedule()
	return f, nil
}

// CloneStructure returns a factor that SHARES this one's symbolic work —
// the BSR index structure (via BSR.CloneStructure) and the precomputed
// elimination schedule, both read-only after construction — but owns fresh
// zero values. Many solver instances over one decomposition each
// factorize into a structure-shared clone, so the symbolic ILU and the
// update schedule are computed once per subdomain, not once per attempt.
// Dedup mode is per-clone: enable it on the clone if wanted.
func (f *Factor) CloneStructure() *Factor {
	return &Factor{
		M:      f.M.CloneStructure(),
		updPtr: f.updPtr,
		updSrc: f.updSrc,
		updDst: f.updDst,
	}
}

// buildUpdateSchedule resolves, once, every (pivot, update) index pair the
// numeric factorization will touch.
func (f *Factor) buildUpdateSchedule() {
	m := f.M
	f.updPtr = make([]int32, m.NNZBlocks()+1)
	var src, dst []int32
	for i := int32(0); i < int32(m.N); i++ {
		for ki := m.Ptr[i]; ki < m.Diag[i]; ki++ {
			k := m.Col[ki]
			for t := m.Diag[k] + 1; t < m.Ptr[k+1]; t++ {
				if slot := m.BlockAt(i, m.Col[t]); slot >= 0 {
					src = append(src, t)
					dst = append(dst, slot)
				}
			}
			f.updPtr[ki+1] = int32(len(src))
		}
		// Slots at/after the diagonal carry no pivot updates.
		for s := m.Diag[i]; s < m.Ptr[i+1]; s++ {
			f.updPtr[s+1] = int32(len(src))
		}
	}
	f.updSrc, f.updDst = src, dst
}

// copyValues writes a's values into the (possibly larger) factor pattern.
// In dedup mode the source is first content-deduplicated and the transfer
// reads through the unique store — bit-identical values, since the store
// holds exactly the source's bytes.
func (f *Factor) copyValues(a *BSR) error {
	m := f.M
	if m.N != a.N {
		return fmt.Errorf("sparse: factor size %d != matrix size %d", m.N, a.N)
	}
	f.dd = nil // stale after this point, whatever happens next
	src := a.Block
	if f.dedup {
		f.srcDD = NewDedupBSR(a)
		src = f.srcDD.Block
	}
	m.Zero()
	for i := int32(0); i < int32(a.N); i++ {
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			slot := m.BlockAt(i, a.Col[k])
			if slot < 0 {
				return fmt.Errorf("sparse: factor pattern misses entry (%d,%d)", i, a.Col[k])
			}
			blas4.Copy(m.Block(slot), src(k))
		}
	}
	return nil
}

// refreshDedup rebuilds the factor-store view after a numeric
// factorization. Must run with no concurrent solver threads.
func (f *Factor) refreshDedup() {
	if f.dedup {
		f.dd = NewDedupBSR(f.M)
	}
}

// FactorizeILU computes the block ILU factorization of a on f's pattern
// sequentially, using the compressed per-row workspace (the paper's
// "algorithmic optimization": the workspace is indexed by position within
// the row pattern — found by binary search — instead of a length-N scratch
// array, shrinking the working set at high thread counts).
//
// Row algorithm (IKJ, blocks):
//
//	for each pivot k < i in row i:   L_ik = A_ik * inv(U_kk)
//	    for each j > k in row k:     A_ij -= L_ik * U_kj   (if (i,j) in pattern)
//	invert and store the diagonal block
func (f *Factor) FactorizeILU(a *BSR) error {
	if err := f.copyValues(a); err != nil {
		return err
	}
	m := f.M
	for i := int32(0); i < int32(m.N); i++ {
		if err := f.factorRow(i); err != nil {
			return err
		}
	}
	f.refreshDedup()
	return nil
}

// factorRow eliminates block row i in place using the precomputed update
// schedule. Requires rows < i finished.
func (f *Factor) factorRow(i int32) error {
	m := f.M
	for ki := m.Ptr[i]; ki < m.Diag[i]; ki++ {
		k := m.Col[ki]
		// L_ik = A_ik * invDiag_k (diag of row k is stored inverted).
		lik := m.Block(ki)
		var tmp [BB]float64
		blas4.Gemm(lik, m.Block(m.Diag[k]), tmp[:])
		blas4.Copy(lik, tmp[:])
		// Apply the prescheduled updates of this pivot: entries outside
		// the pattern were already dropped symbolically (the "incomplete").
		// L_ik is the repeated block of its whole update run, so the
		// batched kernel hoists it once across the list.
		lo, hi := f.updPtr[ki], f.updPtr[ki+1]
		blas4.GemmSubN(lik, m.Val, f.updSrc[lo:hi], f.updDst[lo:hi])
	}
	d := m.Block(m.Diag[i])
	if !blas4.Invert(d) {
		return fmt.Errorf("sparse: singular diagonal block at row %d", i)
	}
	return nil
}

// Solve performs x = U^{-1} L^{-1} b sequentially (the TRSV kernel):
// forward substitution on unit-lower L then backward substitution on U with
// pre-inverted diagonal blocks. x and b may alias.
func (f *Factor) Solve(b, x []float64) {
	m := f.M
	n := m.N
	if n == 0 {
		return
	}
	if &b[0] != &x[0] {
		copy(x[:n*B], b[:n*B])
	}
	// Forward: x_i = b_i - sum_{j<i} L_ij x_j
	for i := 0; i < n; i++ {
		f.fwdRow(int32(i), x)
	}
	// Backward: x_i = invD_i * (x_i - sum_{j>i} U_ij x_j)
	for i := n - 1; i >= 0; i-- {
		f.bwdRow(int32(i), x)
	}
}

// fwdRow applies row i of the forward substitution in place. With a live
// dedup view the lower segment iterates run-by-run so each repeated block
// is loaded once (blas4.GemvSubN); the accumulation order over columns is
// the dense loop's, so the result is bit-identical either way.
func (f *Factor) fwdRow(i int32, x []float64) {
	m := f.M
	xi := x[int(i)*B : int(i)*B+B]
	if dd := f.dd; dd != nil {
		for k := m.Ptr[i]; k < m.Diag[i]; {
			e := dd.RunEnd[k]
			blas4.GemvSubN(dd.Block(k), x, m.Col[k:e], xi)
			k = e
		}
		return
	}
	xi[0], xi[1], xi[2], xi[3] = m.subRow(m.Ptr[i], m.Diag[i], x, xi[0], xi[1], xi[2], xi[3])
}

// bwdRow applies row i of the backward substitution in place, including
// the pre-inverted diagonal product.
func (f *Factor) bwdRow(i int32, x []float64) {
	m := f.M
	xi := x[int(i)*B : int(i)*B+B]
	if dd := f.dd; dd != nil {
		for k := m.Diag[i] + 1; k < m.Ptr[i+1]; {
			e := dd.RunEnd[k]
			blas4.GemvSubN(dd.Block(k), x, m.Col[k:e], xi)
			k = e
		}
		var tmp [B]float64
		blas4.Gemv(dd.Block(m.Diag[i]), xi, tmp[:])
		copy(xi, tmp[:])
		return
	}
	y0, y1, y2, y3 := m.subRow(m.Diag[i]+1, m.Ptr[i+1], x, xi[0], xi[1], xi[2], xi[3])
	k := int(m.Diag[i]) * BB
	d := m.Val[k : k+BB : k+BB]
	xi[0] = d[0]*y0 + d[1]*y1 + d[2]*y2 + d[3]*y3
	xi[1] = d[4]*y0 + d[5]*y1 + d[6]*y2 + d[7]*y3
	xi[2] = d[8]*y0 + d[9]*y1 + d[10]*y2 + d[11]*y3
	xi[3] = d[12]*y0 + d[13]*y1 + d[14]*y2 + d[15]*y3
}

// subRow returns y - sum_k A_k x_{col(k)} over the block slots [lo, hi),
// accumulated into y one block at a time in slot order. y stays in four
// locals across the row rather than in the x window it came from (gc keeps
// no array in registers). Each update is y_r -= a_r0*x0 + a_r1*x1 +
// a_r2*x2 + a_r3*x3, the expression blas4.GemvSubN evaluates, so the dense
// and dedup paths agree bit for bit. The row's own x block is never read:
// a triangular segment excludes the diagonal.
func (a *BSR) subRow(lo, hi int32, x []float64, y0, y1, y2, y3 float64) (float64, float64, float64, float64) {
	for k := lo; k < hi; k++ {
		j := int(a.Col[k]) * B
		xj := x[j : j+B : j+B]
		o := int(k) * BB
		v := a.Val[o : o+BB : o+BB]
		x0, x1, x2, x3 := xj[0], xj[1], xj[2], xj[3]
		y0 -= v[0]*x0 + v[1]*x1 + v[2]*x2 + v[3]*x3
		y1 -= v[4]*x0 + v[5]*x1 + v[6]*x2 + v[7]*x3
		y2 -= v[8]*x0 + v[9]*x1 + v[10]*x2 + v[11]*x3
		y3 -= v[12]*x0 + v[13]*x1 + v[14]*x2 + v[15]*x3
	}
	return y0, y1, y2, y3
}

// FactorizeILUFullWorkspace is the naive ILU variant using a length-N block
// workspace per row (the layout the paper's algorithmic optimization
// replaces). Results are bit-identical to FactorizeILU; it exists so the
// benchmark can quantify the workspace optimization.
func (f *Factor) FactorizeILUFullWorkspace(a *BSR) error {
	if err := f.copyValues(a); err != nil {
		return err
	}
	m := f.M
	w := make([]float64, m.N*BB) // full-length workspace
	inRow := make([]int32, m.N)  // col -> slot+1, 0 = absent
	for i := int32(0); i < int32(m.N); i++ {
		rowStart, rowEnd := m.Ptr[i], m.Ptr[i+1]
		for k := rowStart; k < rowEnd; k++ {
			c := m.Col[k]
			blas4.Copy(w[int(c)*BB:int(c)*BB+BB], m.Block(k))
			inRow[c] = k + 1
		}
		for ki := rowStart; ki < rowEnd; ki++ {
			k := m.Col[ki]
			if k >= i {
				break
			}
			lik := w[int(k)*BB : int(k)*BB+BB]
			var tmp [BB]float64
			blas4.Gemm(lik, m.Block(m.Diag[k]), tmp[:])
			blas4.Copy(lik, tmp[:])
			for t := m.Diag[k] + 1; t < m.Ptr[k+1]; t++ {
				j := m.Col[t]
				if inRow[j] == 0 {
					continue
				}
				blas4.GemmSub(lik, m.Block(t), w[int(j)*BB:int(j)*BB+BB])
			}
		}
		for k := rowStart; k < rowEnd; k++ {
			c := m.Col[k]
			blas4.Copy(m.Block(k), w[int(c)*BB:int(c)*BB+BB])
			inRow[c] = 0
		}
		d := m.Block(m.Diag[i])
		if !blas4.Invert(d) {
			return fmt.Errorf("sparse: singular diagonal block at row %d", i)
		}
	}
	f.refreshDedup()
	return nil
}
