package flux

import (
	"math"
	"math/rand"
	"testing"

	"fun3d/internal/geom"
	"fun3d/internal/mesh"
	"fun3d/internal/par"
	"fun3d/internal/physics"
	"fun3d/internal/sparse"
)

const beta = 5.0

// boxMesh returns a wing-less mesh (farfield + symmetry only), where
// freestream must be an exact steady state.
func boxMesh(t testing.TB) *mesh.Mesh {
	m, err := mesh.Generate(mesh.GenSpec{NX: 8, NY: 7, NZ: 6, Shuffle: true, Seed: 5,
		XMin: -1, XMax: 1, YMin: 0.1, YMax: 1.9, ZMin: -1, ZMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func wingMesh(t testing.TB) *mesh.Mesh {
	m, err := mesh.Generate(mesh.SpecTiny())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func uniformState(nv int, q physics.State) []float64 {
	out := make([]float64, nv*4)
	for v := 0; v < nv; v++ {
		copy(out[v*4:v*4+4], q[:])
	}
	return out
}

func perturbedState(nv int, q physics.State, amp float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := uniformState(nv, q)
	for i := range out {
		out[i] += amp * rng.NormFloat64()
	}
	return out
}

func maxAbs(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
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

// Freestream preservation: on a wing-less domain, uniform freestream flow
// must produce a (numerically) zero residual — first and second order.
// This is the discrete identity that Validate()'s closure property buys.
func TestFreestreamPreservation(t *testing.T) {
	m := boxMesh(t)
	qInf := physics.FreeStream(3)
	q := uniformState(m.NumVertices(), qInf)
	k := NewKernels(m, beta, qInf, nil, &Partition{NW: 1}, Config{Strategy: Sequential})

	res := make([]float64, m.NumVertices()*4)
	k.Residual(q, nil, nil, res)
	if r := maxAbs(res); r > 1e-12 {
		t.Fatalf("first-order freestream residual %.3e", r)
	}

	grad := make([]float64, m.NumVertices()*12)
	k.Gradient(q, grad)
	if g := maxAbs(grad); g > 1e-12 {
		t.Fatalf("gradient of uniform field %.3e", g)
	}
	k.Residual(q, grad, nil, res)
	if r := maxAbs(res); r > 1e-12 {
		t.Fatalf("second-order freestream residual %.3e", r)
	}
}

// All parallel strategies must agree with the sequential residual to
// floating-point reordering tolerance.
func TestStrategiesMatchSequential(t *testing.T) {
	m := wingMesh(t)
	qInf := physics.FreeStream(3)
	q := perturbedState(m.NumVertices(), qInf, 0.1, 1)
	nv := m.NumVertices()

	seqK := NewKernels(m, beta, qInf, nil, &Partition{NW: 1}, Config{Strategy: Sequential})
	want := make([]float64, nv*4)
	seqK.Residual(q, nil, nil, want)
	scale := maxAbs(want) + 1

	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []Strategy{Atomic, ReplicateNatural, ReplicateMETIS, Colored} {
		part, err := NewPartition(m, pool.Size(), s, 11)
		if err != nil {
			t.Fatal(err)
		}
		k := NewKernels(m, beta, qInf, pool, part, Config{Strategy: s})
		got := make([]float64, nv*4)
		k.Residual(q, nil, nil, got)
		if d := maxAbsDiff(got, want); d > 1e-11*scale {
			t.Fatalf("%v residual differs by %.3e", s, d)
		}
	}
}

// Code variants (SIMD batching, prefetch, both) must not change results.
func TestCodeVariantsMatch(t *testing.T) {
	m := wingMesh(t)
	qInf := physics.FreeStream(3)
	q := perturbedState(m.NumVertices(), qInf, 0.1, 2)
	nv := m.NumVertices()
	pool := par.NewPool(4)
	defer pool.Close()
	part, err := NewPartition(m, pool.Size(), ReplicateMETIS, 3)
	if err != nil {
		t.Fatal(err)
	}

	base := NewKernels(m, beta, qInf, pool, part, Config{Strategy: ReplicateMETIS})
	want := make([]float64, nv*4)
	base.Residual(q, nil, nil, want)

	for _, cfg := range []Config{
		{Strategy: ReplicateMETIS, SIMD: true},
		{Strategy: ReplicateMETIS, Prefetch: true},
		{Strategy: ReplicateMETIS, SIMD: true, Prefetch: true},
		{Strategy: Sequential, SIMD: true},
	} {
		k := NewKernels(m, beta, qInf, pool, part, cfg)
		got := make([]float64, nv*4)
		k.Residual(q, nil, nil, got)
		tol := 0.0
		if cfg.Strategy == Sequential {
			tol = 1e-11 * (maxAbs(want) + 1) // different accumulation order vs owner lists
		}
		if d := maxAbsDiff(got, want); d > tol {
			t.Fatalf("cfg %+v differs by %.3e", cfg, d)
		}
	}
}

// The SoA (baseline) layout must produce identical physics.
func TestSoALayoutMatches(t *testing.T) {
	m := wingMesh(t)
	qInf := physics.FreeStream(3)
	nv := m.NumVertices()
	q := perturbedState(nv, qInf, 0.1, 3)

	kAoS := NewKernels(m, beta, qInf, nil, &Partition{NW: 1}, Config{Strategy: Sequential})
	want := make([]float64, nv*4)
	kAoS.Residual(q, nil, nil, want)

	qSoA := AoSToSoA(q, nv)
	kSoA := NewKernels(m, beta, qInf, nil, &Partition{NW: 1}, Config{Strategy: Sequential, SoANodeData: true})
	got := make([]float64, nv*4)
	kSoA.Residual(qSoA, nil, nil, got)
	if d := maxAbsDiff(got, want); d != 0 {
		t.Fatalf("SoA layout changes results by %.3e", d)
	}

	back := SoAToAoS(qSoA, nv)
	if maxAbsDiff(back, q) != 0 {
		t.Fatal("AoS->SoA->AoS roundtrip broken")
	}
}

// Conservation: the residual summed over all vertices telescopes to the
// net boundary flux; for interior edges every flux cancels, so the sum of
// residuals must equal the sum of boundary fluxes alone.
func TestResidualTelescopes(t *testing.T) {
	m := wingMesh(t)
	qInf := physics.FreeStream(3)
	nv := m.NumVertices()
	q := perturbedState(nv, qInf, 0.2, 4)
	k := NewKernels(m, beta, qInf, nil, &Partition{NW: 1}, Config{Strategy: Sequential})
	res := make([]float64, nv*4)
	k.Residual(q, nil, nil, res)

	var sum [4]float64
	for v := 0; v < nv; v++ {
		for c := 0; c < 4; c++ {
			sum[c] += res[v*4+c]
		}
	}
	var bsum [4]float64
	for _, bn := range m.BNodes {
		f, _ := k.boundaryFlux(q, bn)
		for c := 0; c < 4; c++ {
			bsum[c] += f[c]
		}
	}
	for c := 0; c < 4; c++ {
		if math.Abs(sum[c]-bsum[c]) > 1e-9*(math.Abs(bsum[c])+1) {
			t.Fatalf("component %d: residual sum %v != boundary sum %v", c, sum[c], bsum[c])
		}
	}
}

// Gradient strategies agree; linear fields are reproduced reasonably on
// interior vertices and exactly-zero for uniform fields (tested above).
func TestGradientStrategiesAndLinearField(t *testing.T) {
	m := boxMesh(t)
	nv := m.NumVertices()
	// q_c(x) = c-th linear form
	g := [4]geom.Vec3{{X: 1, Y: 2, Z: -1}, {X: 0.5}, {Y: -2}, {X: 1, Z: 1}}
	q := make([]float64, nv*4)
	for v := 0; v < nv; v++ {
		for c := 0; c < 4; c++ {
			q[v*4+c] = g[c].Dot(m.Coords[v])
		}
	}
	seqK := NewKernels(m, beta, physics.FreeStream(0), nil, &Partition{NW: 1}, Config{Strategy: Sequential})
	want := make([]float64, nv*12)
	seqK.Gradient(q, want)

	// Interior accuracy (boundary vertices use the lower-order closure).
	interior := make([]bool, nv)
	for v := range interior {
		interior[v] = true
	}
	for _, bn := range m.BNodes {
		interior[bn.V] = false
	}
	checked := 0
	for v := 0; v < nv; v++ {
		if !interior[v] {
			continue
		}
		checked++
		for c := 0; c < 4; c++ {
			gc := geom.Vec3{X: want[v*12+c*3], Y: want[v*12+c*3+1], Z: want[v*12+c*3+2]}
			if gc.Sub(g[c]).Norm() > 0.05*(g[c].Norm()+1) {
				t.Fatalf("vertex %d comp %d: gradient %v want %v", v, c, gc, g[c])
			}
		}
	}
	if checked == 0 {
		t.Fatal("no interior vertices checked")
	}

	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []Strategy{Atomic, ReplicateNatural, ReplicateMETIS} {
		part, err := NewPartition(m, pool.Size(), s, 7)
		if err != nil {
			t.Fatal(err)
		}
		k := NewKernels(m, beta, physics.FreeStream(0), pool, part, Config{Strategy: s})
		got := make([]float64, nv*12)
		k.Gradient(q, got)
		if d := maxAbsDiff(got, want); d > 1e-11*(maxAbs(want)+1) {
			t.Fatalf("%v gradient differs by %.3e", s, d)
		}
	}
}

// Limiter bounds and uniform-field behaviour.
func TestLimiter(t *testing.T) {
	m := wingMesh(t)
	nv := m.NumVertices()
	qInf := physics.FreeStream(3)
	k := NewKernels(m, beta, qInf, nil, &Partition{NW: 1}, Config{Strategy: Sequential})

	q := uniformState(nv, qInf)
	grad := make([]float64, nv*12)
	k.Gradient(q, grad)
	phi := make([]float64, nv*4)
	k.Limiter(q, grad, phi, 1)
	for i, p := range phi {
		if p != 1 {
			t.Fatalf("uniform field limited at %d: phi=%v", i, p)
		}
	}

	q = perturbedState(nv, qInf, 0.5, 5)
	k.Gradient(q, grad)
	k.Limiter(q, grad, phi, 1)
	limited := 0
	for i, p := range phi {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("phi[%d] = %v out of range", i, p)
		}
		if p < 1 {
			limited++
		}
	}
	if limited == 0 {
		t.Fatal("rough field never limited")
	}

	// Parallel limiter agrees.
	pool := par.NewPool(4)
	defer pool.Close()
	part, _ := NewPartition(m, pool.Size(), ReplicateMETIS, 1)
	kp := NewKernels(m, beta, qInf, pool, part, Config{Strategy: ReplicateMETIS})
	phi2 := make([]float64, nv*4)
	kp.Limiter(q, grad, phi2, 1)
	if maxAbsDiff(phi, phi2) != 0 {
		t.Fatal("parallel limiter differs")
	}
}

// Jacobian: matrix-vector products approximate finite differences of the
// first-order residual (frozen dissipation => loose tolerance), and the
// owner-writes assembly matches sequential assembly.
func TestJacobianFDAndStrategies(t *testing.T) {
	m := wingMesh(t)
	nv := m.NumVertices()
	qInf := physics.FreeStream(3)
	q := perturbedState(nv, qInf, 0.05, 6)

	k := NewKernels(m, beta, qInf, nil, &Partition{NW: 1}, Config{Strategy: Sequential})
	a := sparse.NewBSRFromAdj(m.AdjPtr, m.Adj)
	k.Jacobian(q, a)

	// FD directional derivative.
	rng := rand.New(rand.NewSource(7))
	dq := make([]float64, nv*4)
	for i := range dq {
		dq[i] = rng.NormFloat64()
	}
	const h = 1e-6
	qp := make([]float64, nv*4)
	qm := make([]float64, nv*4)
	for i := range q {
		qp[i] = q[i] + h*dq[i]
		qm[i] = q[i] - h*dq[i]
	}
	rp := make([]float64, nv*4)
	rm := make([]float64, nv*4)
	k.Residual(qp, nil, nil, rp)
	k.Residual(qm, nil, nil, rm)
	fd := make([]float64, nv*4)
	for i := range fd {
		fd[i] = (rp[i] - rm[i]) / (2 * h)
	}
	av := make([]float64, nv*4)
	mulVec(a, dq, av)
	num, den := 0.0, 0.0
	for i := range fd {
		num += (av[i] - fd[i]) * (av[i] - fd[i])
		den += fd[i] * fd[i]
	}
	rel := math.Sqrt(num / den)
	if rel > 0.15 {
		t.Fatalf("Jacobian vs FD relative error %.3f", rel)
	}
	t.Logf("frozen-dissipation Jacobian FD relative error: %.4f", rel)

	// Owner-writes assembly.
	pool := par.NewPool(4)
	defer pool.Close()
	for _, s := range []Strategy{ReplicateNatural, ReplicateMETIS} {
		part, err := NewPartition(m, pool.Size(), s, 9)
		if err != nil {
			t.Fatal(err)
		}
		kp := NewKernels(m, beta, qInf, pool, part, Config{Strategy: s})
		a2 := sparse.NewBSRFromAdj(m.AdjPtr, m.Adj)
		kp.Jacobian(q, a2)
		if d := maxAbsDiff(a2.Val, a.Val); d > 1e-10*(maxAbs(a.Val)+1) {
			t.Fatalf("%v jacobian differs by %.3e", s, d)
		}
	}
}

func TestAddPseudoTimeTerm(t *testing.T) {
	m := wingMesh(t)
	a := sparse.NewBSRFromAdj(m.AdjPtr, m.Adj)
	dt := make([]float64, m.NumVertices())
	for i := range dt {
		dt[i] = 0.5
	}
	AddPseudoTimeTerm(a, m.Vol, dt)
	for i := 0; i < a.N; i++ {
		d := a.Block(a.Diag[i])
		want := m.Vol[i] / 0.5
		if math.Abs(d[0]-want) > 1e-15*want {
			t.Fatalf("row %d diag %v want %v", i, d[0], want)
		}
	}
}

// Replication overhead: natural-order partitions must replicate much more
// than METIS partitions (the paper's 41% vs 4%).
func TestReplicationOverheadGap(t *testing.T) {
	m := wingMesh(t)
	nat, err := NewPartition(m, 8, ReplicateNatural, 1)
	if err != nil {
		t.Fatal(err)
	}
	met, err := NewPartition(m, 8, ReplicateMETIS, 1)
	if err != nil {
		t.Fatal(err)
	}
	if met.Replication >= nat.Replication {
		t.Fatalf("METIS replication %.3f >= natural %.3f", met.Replication, nat.Replication)
	}
	t.Logf("replication: natural=%.1f%% metis=%.1f%%", 100*nat.Replication, 100*met.Replication)
}

func TestStrategyString(t *testing.T) {
	for _, s := range []Strategy{Sequential, Atomic, ReplicateNatural, ReplicateMETIS, Colored} {
		if s.String() == "" {
			t.Fatal("empty strategy name")
		}
	}
	if Strategy(99).String() == "" {
		t.Fatal("unknown strategy name empty")
	}
}

func TestNewPartitionUnknownStrategy(t *testing.T) {
	m := wingMesh(t)
	if _, err := NewPartition(m, 2, Strategy(99), 0); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// Order-of-accuracy study: the Green-Gauss gradient error on a smooth
// quadratic field must shrink under mesh refinement (first-order
// consistency on interior vertices).
func TestGradientRefinementConvergence(t *testing.T) {
	errAt := func(nx, ny, nz int) float64 {
		m, err := mesh.Generate(mesh.GenSpec{NX: nx, NY: ny, NZ: nz, Shuffle: true, Seed: 4,
			XMin: -1, XMax: 1, YMin: 0.1, YMax: 2.1, ZMin: -1, ZMax: 1})
		if err != nil {
			t.Fatal(err)
		}
		nv := m.NumVertices()
		// q0(x,y,z) = x^2 + y z (smooth, curved)
		q := make([]float64, nv*4)
		for v := 0; v < nv; v++ {
			c := m.Coords[v]
			q[v*4] = c.X*c.X + c.Y*c.Z
		}
		k := NewKernels(m, beta, physics.FreeStream(0), nil, &Partition{NW: 1}, Config{})
		grad := make([]float64, nv*12)
		k.Gradient(q, grad)
		interior := make([]bool, nv)
		for v := range interior {
			interior[v] = true
		}
		for _, bn := range m.BNodes {
			interior[bn.V] = false
		}
		sum, n := 0.0, 0
		for v := 0; v < nv; v++ {
			if !interior[v] {
				continue
			}
			c := m.Coords[v]
			gx, gy, gz := grad[v*12], grad[v*12+1], grad[v*12+2]
			ex, ey, ez := gx-2*c.X, gy-c.Z, gz-c.Y
			sum += ex*ex + ey*ey + ez*ez
			n++
		}
		if n == 0 {
			t.Fatal("no interior vertices")
		}
		return math.Sqrt(sum / float64(n))
	}
	coarse := errAt(7, 6, 6)
	fine := errAt(13, 11, 11)
	if fine >= coarse*0.7 {
		t.Fatalf("gradient not converging under refinement: coarse %.4g fine %.4g", coarse, fine)
	}
	t.Logf("gradient L2 error: coarse=%.4g fine=%.4g (ratio %.2f)", coarse, fine, coarse/fine)
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
