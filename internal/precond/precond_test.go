package precond

import (
	"math"
	"math/rand"
	"testing"

	"fun3d/internal/blas4"
	"fun3d/internal/krylov"
	"fun3d/internal/mesh"
	"fun3d/internal/par"
	"fun3d/internal/sparse"
)

func testMatrix(t testing.TB, seed int64) *sparse.BSR {
	m, err := mesh.Generate(mesh.SpecTiny())
	if err != nil {
		t.Fatal(err)
	}
	a := sparse.NewBSRFromAdj(m.AdjPtr, m.Adj)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < a.N; i++ {
		rowSum := 0.0
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			blk := a.Block(k)
			for t2 := range blk {
				blk[t2] = rng.NormFloat64() * 0.2
				rowSum += math.Abs(blk[t2])
			}
		}
		blas4.AddDiag(a.Block(a.Diag[i]), rowSum*0.5+1)
	}
	return a
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

// All scheduling variants of the one-subdomain preconditioner are the same
// operator.
func TestSchedulingVariantsIdentical(t *testing.T) {
	a := testMatrix(t, 1)
	pool := par.NewPool(4)
	defer pool.Close()
	rng := rand.New(rand.NewSource(2))
	r := make([]float64, a.N*4)
	for i := range r {
		r[i] = rng.NormFloat64()
	}

	ref, err := New(a, nil, Options{FillLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Factorize(a); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(r))
	ref.Apply(r, want)

	for _, sched := range []Scheduling{SchedLevel, SchedP2P} {
		m, err := New(a, pool, Options{FillLevel: 1, Sched: sched})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Factorize(a); err != nil {
			t.Fatal(err)
		}
		z := make([]float64, len(r))
		m.Apply(r, z)
		if d := maxAbsDiff(z, want); d != 0 {
			t.Fatalf("%v differs by %v", sched, d)
		}
	}
}

// More subdomains => weaker coupling => worse preconditioner, but still a
// valid operator that converges in GMRES. This is the paper's multi-node
// convergence-degradation effect ("up to 30% increase in iterations").
func TestSubdomainCountConvergenceDegradation(t *testing.T) {
	a := testMatrix(t, 3)
	n := a.N * 4
	rng := rand.New(rand.NewSource(4))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	op := krylov.OperatorFunc(func(x, y []float64) { mulVec(a, x, y) })

	iters := make([]int, 0, 3)
	for _, nsub := range []int{1, 4, 16} {
		m, err := New(a, nil, Options{Subdomains: nsub, FillLevel: 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Factorize(a); err != nil {
			t.Fatal(err)
		}
		var g krylov.GMRES
		x := make([]float64, n)
		res, err := g.Solve(op, m, b, x, krylov.Options{Restart: 30, MaxIters: 500, RelTol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("nsub=%d not converged", nsub)
		}
		iters = append(iters, res.Iterations)
	}
	if iters[2] < iters[0] {
		t.Fatalf("more subdomains should not improve convergence: %v", iters)
	}
	t.Logf("iterations by subdomains 1/4/16: %v", iters)
}

// Parallel subdomain application matches sequential application.
func TestSubdomainsParallelMatchesSeq(t *testing.T) {
	a := testMatrix(t, 5)
	rng := rand.New(rand.NewSource(6))
	r := make([]float64, a.N*4)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	seq, err := New(a, nil, Options{Subdomains: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.Factorize(a); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(r))
	seq.Apply(r, want)

	pool := par.NewPool(3)
	defer pool.Close()
	pp, err := New(a, pool, Options{Subdomains: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := pp.Factorize(a); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(r))
	pp.Apply(r, got)
	if d := maxAbsDiff(got, want); d != 0 {
		t.Fatalf("parallel subdomains differ by %v", d)
	}
}

func TestParallelismMetric(t *testing.T) {
	a := testMatrix(t, 7)
	m0, _ := New(a, nil, Options{FillLevel: 0})
	m1, _ := New(a, nil, Options{FillLevel: 1})
	if m1.Parallelism() >= m0.Parallelism() {
		t.Fatalf("fill should reduce parallelism: ILU0=%.1f ILU1=%.1f",
			m0.Parallelism(), m1.Parallelism())
	}
	if m1.NNZBlocks() <= m0.NNZBlocks() {
		t.Fatal("fill should add nonzeros")
	}
	msub, _ := New(a, nil, Options{Subdomains: 8, FillLevel: 0})
	if msub.Parallelism() <= m0.Parallelism() {
		t.Fatalf("subdomains should multiply parallelism: %v vs %v",
			msub.Parallelism(), m0.Parallelism())
	}
	if msub.NNZBlocks() >= m0.NNZBlocks() {
		t.Fatal("subdomains drop coupling blocks")
	}
}

func TestOptionsValidation(t *testing.T) {
	a := testMatrix(t, 8)
	if _, err := New(a, nil, Options{FillLevel: -1}); err == nil {
		t.Fatal("negative fill accepted")
	}
	if _, err := New(a, nil, Options{Sched: SchedP2P}); err == nil {
		t.Fatal("p2p without pool accepted")
	}
	if _, err := New(a, nil, Options{Subdomains: a.N + 1}); err == nil {
		t.Fatal("too many subdomains accepted")
	}
	asym, err := sparse.NewBSRFromPattern([][]int32{{0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	pool := par.NewPool(2)
	defer pool.Close()
	if _, err := New(asym, pool, Options{Sched: SchedP2P}); err == nil {
		t.Fatal("p2p over a structurally asymmetric pattern accepted")
	}
	if SchedSequential.String() == "" || SchedLevel.String() == "" ||
		SchedP2P.String() == "" || Scheduling(9).String() == "" {
		t.Fatal("scheduling names")
	}
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
