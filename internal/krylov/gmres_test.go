package krylov

import (
	"math"
	"math/rand"
	"testing"

	"fun3d/internal/mesh"
	"fun3d/internal/par"
	"fun3d/internal/sparse"
	"fun3d/internal/vecop"
)

// denseOp is a dense test operator.
type denseOp struct {
	n int
	a []float64
}

func (d *denseOp) Apply(x, y []float64) {
	for i := 0; i < d.n; i++ {
		s := 0.0
		for j := 0; j < d.n; j++ {
			s += d.a[i*d.n+j] * x[j]
		}
		y[i] = s
	}
}

func randDominant(n int, seed int64) *denseOp {
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			a[i*n+j] = rng.NormFloat64()
			row += math.Abs(a[i*n+j])
		}
		a[i*n+i] += row + 1
	}
	return &denseOp{n: n, a: a}
}

func residual(op Operator, b, x []float64) float64 {
	n := len(b)
	y := make([]float64, n)
	op.Apply(x, y)
	s := 0.0
	for i := range y {
		d := b[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestGMRESDense(t *testing.T) {
	n := 60
	op := randDominant(n, 1)
	rng := rand.New(rand.NewSource(2))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	var g GMRES
	res, err := g.Solve(op, nil, b, x, Options{Restart: 30, MaxIters: 300, RelTol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	bn := 0.0
	for _, v := range b {
		bn += v * v
	}
	if r := residual(op, b, x); r > 1e-8*math.Sqrt(bn) {
		t.Fatalf("true residual %v", r)
	}
}

func TestGMRESIdentity(t *testing.T) {
	n := 10
	op := OperatorFunc(func(x, y []float64) { copy(y, x) })
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i + 1)
	}
	x := make([]float64, n)
	var g GMRES
	res, err := g.Solve(op, nil, b, x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations > 1 {
		t.Fatalf("identity should converge in 1 iter: %+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-b[i]) > 1e-10 {
			t.Fatalf("x[%d]=%v", i, x[i])
		}
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	op := randDominant(8, 3)
	b := make([]float64, 8)
	x := make([]float64, 8)
	var g GMRES
	res, err := g.Solve(op, nil, b, x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero rhs: %+v", res)
	}
}

func TestGMRESNonzeroInitialGuess(t *testing.T) {
	n := 40
	op := randDominant(n, 4)
	rng := rand.New(rand.NewSource(5))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	op.Apply(xTrue, b)
	x := make([]float64, n)
	copy(x, xTrue)
	for i := range x {
		x[i] += 0.01 * rng.NormFloat64()
	}
	var g GMRES
	res, err := g.Solve(op, nil, b, x, Options{RelTol: 1e-12, MaxIters: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-6 {
			t.Fatalf("x[%d] error %v", i, x[i]-xTrue[i])
		}
	}
}

// GMRES with restarts must still converge (restart smaller than needed).
func TestGMRESRestarts(t *testing.T) {
	n := 80
	op := randDominant(n, 6)
	rng := rand.New(rand.NewSource(7))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	var g GMRES
	res, err := g.Solve(op, nil, b, x, Options{Restart: 5, MaxIters: 2000, RelTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("restarted gmres failed: %+v", res)
	}
}

// ILU-preconditioned GMRES on a mesh-structured BSR system must converge
// much faster than unpreconditioned — the paper's "make-or-break" claim.
func TestGMRESWithILUPreconditioner(t *testing.T) {
	m, err := mesh.Generate(mesh.SpecTiny())
	if err != nil {
		t.Fatal(err)
	}
	a := sparse.NewBSRFromAdj(m.AdjPtr, m.Adj)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < a.N; i++ {
		rowSum := 0.0
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			blk := a.Block(k)
			for t2 := range blk {
				blk[t2] = rng.NormFloat64() * 0.3
				rowSum += math.Abs(blk[t2])
			}
		}
		d := a.Block(a.Diag[i])
		for t2 := 0; t2 < 4; t2++ {
			d[t2*4+t2] += rowSum*0.3 + 1
		}
	}
	pat, _ := sparse.SymbolicILU(a, 0)
	f, _ := sparse.NewFactorPattern(pat)
	if err := f.FactorizeILU(a); err != nil {
		t.Fatal(err)
	}
	n := a.N * 4
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	op := OperatorFunc(func(x, y []float64) { mulVec(a, x, y) })
	pre := PreconditionerFunc(func(r, z []float64) { f.Solve(r, z) })

	var g1, g2 GMRES
	x1 := make([]float64, n)
	r1, err := g1.Solve(op, nil, b, x1, Options{Restart: 30, MaxIters: 600, RelTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, n)
	r2, err := g2.Solve(op, pre, b, x2, Options{Restart: 30, MaxIters: 600, RelTol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Converged {
		t.Fatalf("preconditioned gmres failed: %+v", r2)
	}
	if r1.Converged && r2.Iterations >= r1.Iterations {
		t.Fatalf("ILU did not help: %d vs %d iters", r2.Iterations, r1.Iterations)
	}
	t.Logf("unpreconditioned: %d iters (conv=%v), ILU: %d iters",
		r1.Iterations, r1.Converged, r2.Iterations)
}

// Parallel vecops must not change convergence behaviour materially.
func TestGMRESParallelOps(t *testing.T) {
	n := 64
	op := randDominant(n, 9)
	rng := rand.New(rand.NewSource(10))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	p := par.NewPool(4)
	defer p.Close()
	g := GMRES{Ops: vecop.Ops{Pool: p}}
	x := make([]float64, n)
	res, err := g.Solve(op, nil, b, x, Options{RelTol: 1e-10, MaxIters: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("%+v", res)
	}
	bn := 0.0
	for _, v := range b {
		bn += v * v
	}
	if r := residual(op, b, x); r > 1e-7*math.Sqrt(bn) {
		t.Fatalf("true residual %v", r)
	}
}

// Singular operator: zero matrix never converges; must report it.
func TestGMRESSingular(t *testing.T) {
	op := OperatorFunc(func(x, y []float64) {
		for i := range y {
			y[i] = 0
		}
	})
	b := []float64{1, 2, 3}
	x := make([]float64, 3)
	var g GMRES
	res, err := g.Solve(op, nil, b, x, Options{MaxIters: 10})
	if err == nil && res.Converged {
		t.Fatal("converged on singular operator")
	}
}

// Workspace reuse across solves of the same size must stay correct.
func TestGMRESWorkspaceReuse(t *testing.T) {
	n := 30
	var g GMRES
	for trial := 0; trial < 3; trial++ {
		op := randDominant(n, int64(11+trial))
		rng := rand.New(rand.NewSource(int64(20 + trial)))
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		res, err := g.Solve(op, nil, b, x, Options{RelTol: 1e-10, MaxIters: 200})
		if err != nil || !res.Converged {
			t.Fatalf("trial %d: %+v err=%v", trial, res, err)
		}
	}
}

// FusedNorms must converge to the same solution with the same iteration
// count (the fused norm is algebraically equivalent modulo rounding).
func TestGMRESFusedNorms(t *testing.T) {
	n := 80
	op := randDominant(n, 21)
	rng := rand.New(rand.NewSource(22))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	solve := func(fused bool) ([]float64, Result) {
		g := GMRES{Ops: vecop.Seq}
		x := make([]float64, n)
		res, err := g.Solve(op, nil, b, x, Options{RelTol: 1e-10, MaxIters: 400, FusedNorms: fused})
		if err != nil {
			t.Fatal(err)
		}
		return x, res
	}
	x1, r1 := solve(false)
	x2, r2 := solve(true)
	if !r1.Converged || !r2.Converged {
		t.Fatalf("convergence: %v %v", r1.Converged, r2.Converged)
	}
	if absInt(r1.Iterations-r2.Iterations) > 2 {
		t.Fatalf("iteration counts diverge: %d vs %d", r1.Iterations, r2.Iterations)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-7 {
			t.Fatalf("solutions differ at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// mulVec computes y = A*x block row by block row, each block's product added
// to y as one four-term sum. Only tests multiply by an assembled BSR: the
// solver's Krylov operator is matrix-free.
func mulVec(a *sparse.BSR, x, y []float64) {
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
