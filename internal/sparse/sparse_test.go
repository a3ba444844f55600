package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fun3d/internal/blas4"
	"fun3d/internal/mesh"
	"fun3d/internal/par"
)

// testMatrix builds a block-diagonally-dominant BSR on the tiny wing mesh
// adjacency — the same structure as the solver's Jacobian.
func testMatrix(t testing.TB, seed int64) *BSR {
	m, err := mesh.Generate(mesh.SpecTiny())
	if err != nil {
		t.Fatal(err)
	}
	a := NewBSRFromAdj(m.AdjPtr, m.Adj)
	fillDominant(a, seed)
	return a
}

// fillDominant fills a with random off-diagonal blocks and strongly
// dominant diagonal blocks, guaranteeing a stable ILU.
func fillDominant(a *BSR, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < a.N; i++ {
		rowSum := 0.0
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			blk := a.Block(k)
			for t := range blk {
				blk[t] = rng.NormFloat64() * 0.1
				rowSum += math.Abs(blk[t])
			}
		}
		d := a.Block(a.Diag[i])
		blas4.AddDiag(d, rowSum+1)
	}
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestBSRFromAdjPattern(t *testing.T) {
	// 3-vertex path: 0-1-2.
	adjPtr := []int32{0, 1, 3, 4}
	adj := []int32{1, 0, 2, 1}
	a := NewBSRFromAdj(adjPtr, adj)
	if a.N != 3 || a.NNZBlocks() != 7 {
		t.Fatalf("n=%d nnz=%d", a.N, a.NNZBlocks())
	}
	for i := int32(0); i < 3; i++ {
		if a.Col[a.Diag[i]] != i {
			t.Fatalf("diag of row %d misplaced", i)
		}
		if a.BlockAt(i, i) != a.Diag[i] {
			t.Fatal("BlockAt disagrees with Diag")
		}
	}
	if a.BlockAt(0, 2) != -1 {
		t.Fatal("phantom entry")
	}
	// columns ascending per row
	for i := 0; i < a.N; i++ {
		for k := a.Ptr[i] + 1; k < a.Ptr[i+1]; k++ {
			if a.Col[k] <= a.Col[k-1] {
				t.Fatal("row not sorted")
			}
		}
	}
}

func TestBSRFromPatternErrors(t *testing.T) {
	if _, err := NewBSRFromPattern([][]int32{{0, 1}, {0}}); err == nil {
		t.Fatal("missing diagonal accepted")
	}
	if _, err := NewBSRFromPattern([][]int32{{0, 0}}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := NewBSRFromPattern([][]int32{{0, 5}}); err == nil {
		t.Fatal("out of range accepted")
	}
}

// ILU(0) on a block-tridiagonal matrix has no fill, so it equals the exact
// LU factorization and Solve is a direct solver.
func TestILU0ExactOnTridiagonal(t *testing.T) {
	n := 20
	rows := make([][]int32, n)
	for i := 0; i < n; i++ {
		r := []int32{int32(i)}
		if i > 0 {
			r = append(r, int32(i-1))
		}
		if i < n-1 {
			r = append(r, int32(i+1))
		}
		rows[i] = r
	}
	a, err := NewBSRFromPattern(rows)
	if err != nil {
		t.Fatal(err)
	}
	fillDominant(a, 5)
	pat, err := SymbolicILU(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactorPattern(pat)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FactorizeILU(a); err != nil {
		t.Fatal(err)
	}
	// Solve A x = b and check the residual.
	xTrue := randVec(n*B, 6)
	b := make([]float64, n*B)
	mulVec(a, xTrue, b)
	x := make([]float64, n*B)
	f.Solve(b, x)
	if diff := maxAbsDiff(x, xTrue); diff > 1e-8 {
		t.Fatalf("tridiagonal ILU0 not exact: %v", diff)
	}
}

// On a general mesh pattern, ILU(0) is only approximate, but the
// preconditioned residual must shrink substantially for a dominant matrix.
func TestILU0Preconditions(t *testing.T) {
	a := testMatrix(t, 7)
	pat, _ := SymbolicILU(a, 0)
	f, err := NewFactorPattern(pat)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.FactorizeILU(a); err != nil {
		t.Fatal(err)
	}
	n := a.N * B
	xTrue := randVec(n, 8)
	b := make([]float64, n)
	mulVec(a, xTrue, b)
	x := make([]float64, n)
	f.Solve(b, x)
	// ||x - xTrue|| should be much smaller than ||xTrue|| for a dominant A.
	num, den := 0.0, 0.0
	for i := range x {
		num += (x[i] - xTrue[i]) * (x[i] - xTrue[i])
		den += xTrue[i] * xTrue[i]
	}
	rel := math.Sqrt(num / den)
	if rel > 0.5 {
		t.Fatalf("ILU0 relative error %v too large", rel)
	}
}

func TestILUFullWorkspaceIdentical(t *testing.T) {
	a := testMatrix(t, 9)
	pat, _ := SymbolicILU(a, 0)
	f1, _ := NewFactorPattern(pat)
	f2, _ := NewFactorPattern(pat)
	if err := f1.FactorizeILU(a); err != nil {
		t.Fatal(err)
	}
	if err := f2.FactorizeILUFullWorkspace(a); err != nil {
		t.Fatal(err)
	}
	if diff := maxAbsDiff(f1.M.Val, f2.M.Val); diff != 0 {
		t.Fatalf("workspace variants differ: %v", diff)
	}
}

// ILU(k) fill monotonicity and improvement: more fill => pattern superset,
// better approximation.
func TestILUkFillAndAccuracy(t *testing.T) {
	a := testMatrix(t, 10)
	var prevNNZ int
	var prevErr float64 = math.Inf(1)
	for _, lev := range []int{0, 1, 2} {
		pat, err := SymbolicILU(a, lev)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewFactorPattern(pat)
		if err != nil {
			t.Fatal(err)
		}
		if f.M.NNZBlocks() < prevNNZ {
			t.Fatalf("ILU(%d) has fewer nonzeros than ILU(%d)", lev, lev-1)
		}
		prevNNZ = f.M.NNZBlocks()
		if err := f.FactorizeILU(a); err != nil {
			t.Fatal(err)
		}
		n := a.N * B
		xTrue := randVec(n, 11)
		b := make([]float64, n)
		mulVec(a, xTrue, b)
		x := make([]float64, n)
		f.Solve(b, x)
		num, den := 0.0, 0.0
		for i := range x {
			num += (x[i] - xTrue[i]) * (x[i] - xTrue[i])
			den += xTrue[i] * xTrue[i]
		}
		rel := math.Sqrt(num / den)
		if rel > prevErr*1.5 {
			t.Fatalf("ILU(%d) error %v much worse than previous %v", lev, rel, prevErr)
		}
		if rel < prevErr {
			prevErr = rel
		}
		t.Logf("ILU(%d): nnz=%d relerr=%.3e parallelism=%.1f",
			lev, f.M.NNZBlocks(), rel, DAGParallelism(f.M))
	}
}

// The paper's Table II premise: fill-in reduces available parallelism.
func TestFillReducesParallelism(t *testing.T) {
	a := testMatrix(t, 12)
	pat0, _ := SymbolicILU(a, 0)
	pat1, _ := SymbolicILU(a, 1)
	f0, _ := NewFactorPattern(pat0)
	f1, _ := NewFactorPattern(pat1)
	p0 := DAGParallelism(f0.M)
	p1 := DAGParallelism(f1.M)
	if p1 >= p0 {
		t.Fatalf("ILU-1 parallelism %v >= ILU-0 %v", p1, p0)
	}
	if CriticalPathLevels(f1.M) <= CriticalPathLevels(f0.M) {
		t.Fatalf("ILU-1 levels should exceed ILU-0")
	}
}

func TestDAGParallelismDiagonal(t *testing.T) {
	rows := [][]int32{{0}, {1}, {2}, {3}}
	a, _ := NewBSRFromPattern(rows)
	if p := DAGParallelism(a); p != 4 {
		t.Fatalf("diagonal parallelism %v, want 4", p)
	}
	if CriticalPathLevels(a) != 1 {
		t.Fatal("diagonal should have 1 level")
	}
}

// Level-scheduled and P2P solves must agree with the sequential solve
// bit-for-bit (same operations, same order per row).
func TestParallelSolversMatchSequential(t *testing.T) {
	a := testMatrix(t, 13)
	for _, lev := range []int{0, 1} {
		pat, _ := SymbolicILU(a, lev)
		f, _ := NewFactorPattern(pat)
		if err := f.FactorizeILU(a); err != nil {
			t.Fatal(err)
		}
		n := a.N * B
		b := randVec(n, 14)
		want := make([]float64, n)
		f.Solve(b, want)

		for _, nw := range []int{1, 2, 3, 4, 7} {
			p := par.NewPool(nw)
			ls := NewLevelSchedule(f.M)
			got := make([]float64, n)
			f.SolveLevel(p, ls, b, got)
			if diff := maxAbsDiff(got, want); diff != 0 {
				t.Fatalf("ILU(%d) nw=%d: level solve differs by %v", lev, nw, diff)
			}
			ps := mustP2P(t, f.M, nw)
			got2 := make([]float64, n)
			f.SolveP2P(p, ps, b, got2)
			if diff := maxAbsDiff(got2, want); diff != 0 {
				t.Fatalf("ILU(%d) nw=%d: p2p solve differs by %v", lev, nw, diff)
			}
			p.Close()
		}
	}
}

// refSolve is the block TRSV written as one y -= A*x_j update per block,
// applied to x in memory, with the pre-inverted diagonal applied through
// blas4.Gemv: the oracle the row kernels, which hold x_i in locals, must
// match bit for bit.
func refSolve(m *BSR, b, x []float64) {
	gemvSub := func(a, xj, y []float64) {
		for r := 0; r < B; r++ {
			y[r] -= a[r*B]*xj[0] + a[r*B+1]*xj[1] + a[r*B+2]*xj[2] + a[r*B+3]*xj[3]
		}
	}
	copy(x, b)
	for i := 0; i < m.N; i++ {
		for k := m.Ptr[i]; k < m.Diag[i]; k++ {
			j := int(m.Col[k])
			gemvSub(m.Block(k), x[j*B:j*B+B], x[i*B:i*B+B])
		}
	}
	for i := m.N - 1; i >= 0; i-- {
		xi := x[i*B : i*B+B]
		for k := m.Diag[i] + 1; k < m.Ptr[i+1]; k++ {
			j := int(m.Col[k])
			gemvSub(m.Block(k), x[j*B:j*B+B], xi)
		}
		var tmp [B]float64
		blas4.Gemv(m.Block(m.Diag[i]), xi, tmp[:])
		copy(xi, tmp[:])
	}
}

// Every dense solve path — sequential, level-scheduled and P2P — must
// reproduce refSolve's bit patterns exactly on the tiny-mesh ILU(0) and
// ILU(1) factors.
func TestSolvesBitIdenticalToBlockLoop(t *testing.T) {
	a := testMatrix(t, 20)
	for _, lev := range []int{0, 1} {
		pat, _ := SymbolicILU(a, lev)
		f, _ := NewFactorPattern(pat)
		if err := f.FactorizeILU(a); err != nil {
			t.Fatal(err)
		}
		n := a.N * B
		b := randVec(n, 21)
		want := make([]float64, n)
		refSolve(f.M, b, want)
		check := func(name string, got []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("ILU(%d) %s: x[%d] = %v, block-loop reference %v", lev, name, i, got[i], want[i])
				}
			}
		}
		got := make([]float64, n)
		f.Solve(b, got)
		check("Solve", got)
		for _, nw := range []int{1, 2, 3} {
			p := par.NewPool(nw)
			clear(got)
			f.SolveLevel(p, NewLevelSchedule(f.M), b, got)
			check(fmt.Sprintf("SolveLevel nw=%d", nw), got)
			clear(got)
			f.SolveP2P(p, mustP2P(t, f.M, nw), b, got)
			check(fmt.Sprintf("SolveP2P nw=%d", nw), got)
			p.Close()
		}
	}
}

// Parallel factorizations must agree with sequential factorization
// bit-for-bit.
func TestParallelFactorizationsMatchSequential(t *testing.T) {
	a := testMatrix(t, 15)
	for _, lev := range []int{0, 1} {
		pat, _ := SymbolicILU(a, lev)
		fSeq, _ := NewFactorPattern(pat)
		if err := fSeq.FactorizeILU(a); err != nil {
			t.Fatal(err)
		}
		for _, nw := range []int{1, 2, 3, 5, 7} {
			p := par.NewPool(nw)
			fLvl, _ := NewFactorPattern(pat)
			ls := NewLevelSchedule(fLvl.M)
			if err := fLvl.FactorizeILULevel(p, ls, a); err != nil {
				t.Fatal(err)
			}
			if diff := maxAbsDiff(fLvl.M.Val, fSeq.M.Val); diff != 0 {
				t.Fatalf("ILU(%d) nw=%d: level factorization differs by %v", lev, nw, diff)
			}
			fP2P, _ := NewFactorPattern(pat)
			ps := mustP2P(t, fP2P.M, nw)
			if err := fP2P.FactorizeILUP2P(p, ps, a); err != nil {
				t.Fatal(err)
			}
			if diff := maxAbsDiff(fP2P.M.Val, fSeq.M.Val); diff != 0 {
				t.Fatalf("ILU(%d) nw=%d: p2p factorization differs by %v", lev, nw, diff)
			}
			p.Close()
		}
	}
}

// mustP2P builds the P2P schedule of m for nw threads, failing the test on
// error.
func mustP2P(t testing.TB, m *BSR, nw int) *P2PSchedule {
	t.Helper()
	s, err := NewP2PSchedule(m, nw)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// taskOwners inverts the schedule's task lists into per-row owner thread
// and position in order, failing unless every row is listed exactly once.
func taskOwners(t testing.TB, s *P2PSchedule, n int) (owner, pos []int32) {
	t.Helper()
	if len(s.order) != n || s.start[0] != 0 || s.start[s.nw] != int32(n) {
		t.Fatalf("task lists cover %d rows (start %v), want %d", len(s.order), s.start, n)
	}
	owner = make([]int32, n)
	pos = make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	for th := 0; th < s.nw; th++ {
		for p := s.start[th]; p < s.start[th+1]; p++ {
			i := s.order[p]
			if pos[i] >= 0 {
				t.Fatalf("row %d listed twice", i)
			}
			owner[i], pos[i] = int32(th), p
		}
	}
	return owner, pos
}

// ilu1Factor returns the ILU(1) factor pattern of the tiny-mesh test matrix.
func ilu1Factor(t testing.TB) *Factor {
	a := testMatrix(t, 18)
	pat, err := SymbolicILU(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactorPattern(pat)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// P2P sparsification must produce far fewer waits than raw cross-thread
// dependencies.
func TestP2PSparsification(t *testing.T) {
	a := testMatrix(t, 16)
	pat, _ := SymbolicILU(a, 0)
	f, _ := NewFactorPattern(pat)
	nw := 8
	s := mustP2P(t, f.M, nw)
	owner, _ := taskOwners(t, s, f.M.N)
	// Count raw cross-thread forward dependencies.
	raw := 0
	for i := int32(0); i < int32(f.M.N); i++ {
		for k := f.M.Ptr[i]; k < f.M.Diag[i]; k++ {
			if owner[f.M.Col[k]] != owner[i] {
				raw++
			}
		}
	}
	if s.NumWaits() >= raw {
		t.Fatalf("sparsification ineffective: %d waits vs %d raw deps", s.NumWaits(), raw)
	}
	t.Logf("raw cross deps=%d, sparsified waits=%d (%.1f%%)",
		raw, s.NumWaits(), 100*float64(s.NumWaits())/float64(raw))
}

// A single thread runs the rows in natural order with no waits at all.
func TestP2PScheduleOneThreadIsIdentity(t *testing.T) {
	f := ilu1Factor(t)
	s := mustP2P(t, f.M, 1)
	for p, i := range s.order {
		if i != int32(p) {
			t.Fatalf("task %d is row %d, want the identity order", p, i)
		}
	}
	if s.NumWaits() != 0 {
		t.Fatalf("%d waits, want 0", s.NumWaits())
	}
}

// An asymmetric pattern would let a backward update race a foreign forward
// read, so the schedule refuses it.
func TestP2PScheduleRejectsAsymmetricPattern(t *testing.T) {
	for _, rows := range [][][]int32{
		{{0}, {0, 1}, {2}},          // L(1,0) without U(0,1)
		{{0, 2}, {1}, {2}},          // U(0,2) without L(2,0)
		{{0, 1}, {0, 1, 2}, {0, 2}}, // (2,0) present, (0,2) absent
	} {
		m, err := NewBSRFromPattern(rows)
		if err != nil {
			t.Fatal(err)
		}
		for _, nw := range []int{1, 2} {
			if _, err := NewP2PSchedule(m, nw); err == nil {
				t.Fatalf("pattern %v nw=%d: asymmetric pattern accepted", rows, nw)
			}
		}
	}
	if _, err := NewP2PSchedule(testMatrix(t, 19), 0); err == nil {
		t.Fatal("zero threads accepted")
	}
}

// forwardMakespan replays the forward sweep of s under a unit cost per
// stored block of each row, honouring exactly the schedule's own waits, and
// returns the makespan over the sequential work. It fails on a schedule
// that can deadlock.
func forwardMakespan(t testing.TB, s *P2PSchedule, m *BSR) float64 {
	t.Helper()
	finish := make([]int64, len(s.order))
	next := append([]int32(nil), s.start[:s.nw]...)
	seq, span := int64(0), int64(0)
	for left := len(s.order); left > 0; {
		progressed := false
		for th := 0; th < s.nw; th++ {
			for ; next[th] < s.start[th+1]; next[th]++ {
				q := next[th]
				ready := int64(0)
				if q > s.start[th] {
					ready = finish[q-1]
				}
				blocked := false
				for _, w := range s.fwdWaits[s.fwdPtr[q]:s.fwdPtr[q+1]] {
					if int64(next[w.thread]-s.start[w.thread]) < w.count {
						blocked = true
						break
					}
					ready = max(ready, finish[s.start[w.thread]+int32(w.count)-1])
				}
				if blocked {
					break
				}
				i := s.order[q]
				cost := int64(m.Ptr[i+1] - m.Ptr[i])
				finish[q] = ready + cost
				seq += cost
				span = max(span, finish[q])
				left--
				progressed = true
			}
		}
		if !progressed {
			t.Fatal("forward schedule deadlocks")
		}
	}
	return float64(span) / float64(seq)
}

// Regression guard against a schedule that serialises the sweep: on an
// ILU(1) factor two threads must finish the forward recurrence in well
// under the sequential work (contiguous row blocks give 0.99 here).
func TestP2PScheduleForwardCriticalPath(t *testing.T) {
	f := ilu1Factor(t)
	if r := forwardMakespan(t, mustP2P(t, f.M, 1), f.M); r != 1 {
		t.Fatalf("1-thread makespan %.3f of sequential, want 1", r)
	}
	r := forwardMakespan(t, mustP2P(t, f.M, 2), f.M)
	t.Logf("2-thread forward makespan = %.3f of sequential work", r)
	if r > 0.6 {
		t.Fatalf("2-thread forward makespan %.3f of sequential work, want <= 0.6", r)
	}
}

func TestLevelSizesDecrease(t *testing.T) {
	a := testMatrix(t, 18)
	pat, _ := SymbolicILU(a, 0)
	f, _ := NewFactorPattern(pat)
	ls := NewLevelSchedule(f.M)
	sizes := ls.LevelSizes()
	if len(sizes) < 2 {
		t.Fatalf("suspiciously few levels: %v", sizes)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != a.N {
		t.Fatalf("level sizes sum %d != %d", total, a.N)
	}
}

func TestAddToDiagAndSetIdentity(t *testing.T) {
	a := testMatrix(t, 19)
	v0 := a.Block(a.Diag[0])[0]
	a.AddToDiag(2.5)
	if a.Block(a.Diag[0])[0] != v0+2.5 {
		t.Fatal("AddToDiag")
	}
	a.SetIdentity()
	d := a.Block(a.Diag[3])
	if d[0] != 1 || d[1] != 0 || d[5] != 1 {
		t.Fatal("SetIdentity")
	}
}

func TestSymbolicILUNegativeLevel(t *testing.T) {
	a := testMatrix(t, 20)
	if _, err := SymbolicILU(a, -1); err == nil {
		t.Fatal("negative level accepted")
	}
}

func TestFactorSizeMismatch(t *testing.T) {
	a := testMatrix(t, 21)
	small, _ := NewBSRFromPattern([][]int32{{0}})
	f := &Factor{M: small}
	if err := f.FactorizeILU(a); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestSingularDiagonalDetected(t *testing.T) {
	rows := [][]int32{{0, 1}, {0, 1}}
	a, _ := NewBSRFromPattern(rows)
	// leave everything zero: diagonal blocks singular
	pat, _ := SymbolicILU(a, 0)
	f, _ := NewFactorPattern(pat)
	if err := f.FactorizeILU(a); err == nil {
		t.Fatal("singular diag not detected")
	}
}

func TestSolveInPlace(t *testing.T) {
	a := testMatrix(t, 22)
	pat, _ := SymbolicILU(a, 0)
	f, _ := NewFactorPattern(pat)
	if err := f.FactorizeILU(a); err != nil {
		t.Fatal(err)
	}
	n := a.N * B
	b := randVec(n, 23)
	want := make([]float64, n)
	f.Solve(b, want)
	x := append([]float64(nil), b...)
	f.Solve(x, x) // aliased
	if diff := maxAbsDiff(x, want); diff != 0 {
		t.Fatalf("in-place solve differs: %v", diff)
	}
}

func TestClone(t *testing.T) {
	a := testMatrix(t, 24)
	c := a.Clone()
	c.Val[0] = 999
	if a.Val[0] == 999 {
		t.Fatal("clone shares storage")
	}
}

// Property: ILU(k) patterns are nested — every entry of level k appears in
// level k+1.
func TestILUPatternNestedProperty(t *testing.T) {
	a := testMatrix(t, 30)
	prev, err := SymbolicILU(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for lev := 1; lev <= 2; lev++ {
		cur, err := SymbolicILU(a, lev)
		if err != nil {
			t.Fatal(err)
		}
		for i := range prev {
			set := map[int32]bool{}
			for _, c := range cur[i] {
				set[c] = true
			}
			for _, c := range prev[i] {
				if !set[c] {
					t.Fatalf("level %d row %d lost column %d", lev, i, c)
				}
			}
		}
		prev = cur
	}
}

// Rows of every symbolic pattern are sorted and contain the diagonal.
func TestSymbolicILURowInvariants(t *testing.T) {
	a := testMatrix(t, 31)
	for _, lev := range []int{0, 1, 2} {
		rows, err := SymbolicILU(a, lev)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			hasDiag := false
			for k, c := range r {
				if k > 0 && r[k-1] >= c {
					t.Fatalf("level %d row %d not strictly sorted", lev, i)
				}
				if int(c) == i {
					hasDiag = true
				}
			}
			if !hasDiag {
				t.Fatalf("level %d row %d missing diagonal", lev, i)
			}
		}
	}
}

// mulVec computes y = A*x block row by block row, each block's product added
// to y as one four-term sum. Only tests multiply by an assembled BSR: the
// solver's Krylov operator is matrix-free.
func mulVec(a *BSR, x, y []float64) {
	for i := 0; i < a.N; i++ {
		yi := y[i*4 : i*4+4]
		yi[0], yi[1], yi[2], yi[3] = 0, 0, 0, 0
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			j := int(a.Col[k]) * 4
			v, xj := a.Block(k), x[j:j+4]
			yi[0] += v[0]*xj[0] + v[1]*xj[1] + v[2]*xj[2] + v[3]*xj[3]
			yi[1] += v[4]*xj[0] + v[5]*xj[1] + v[6]*xj[2] + v[7]*xj[3]
			yi[2] += v[8]*xj[0] + v[9]*xj[1] + v[10]*xj[2] + v[11]*xj[3]
			yi[3] += v[12]*xj[0] + v[13]*xj[1] + v[14]*xj[2] + v[15]*xj[3]
		}
	}
}
