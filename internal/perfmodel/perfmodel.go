// Package perfmodel provides the calibrated machine and network models that
// drive the multi-node simulation (Figures 9-11) and the bandwidth
// normalization of Fig 7b.
//
// The machine side is *measured*, not assumed: Measure runs the repo's real
// kernels on a sample mesh under a given configuration and extracts
// per-unit costs (seconds per edge flux, per ILU block, ...). The network
// side is a LogGP-style model parameterized like Stampede's FDR InfiniBand
// fat-tree. The multi-node simulator advances per-rank virtual clocks with
// these numbers while executing the real distributed numerics.
package perfmodel

import (
	"time"

	"fun3d/internal/flux"
	"fun3d/internal/mesh"
	"fun3d/internal/par"
	"fun3d/internal/physics"
	"fun3d/internal/sparse"
)

// Rates holds measured per-unit kernel costs in seconds.
type Rates struct {
	FluxPerEdge  float64
	GradPerEdge  float64
	JacPerEdge   float64
	ILUPerBlock  float64
	TRSVPerBlock float64
	VecPerElem   float64 // per element per simple vector op
	Threads      int
	Optimized    bool
}

// Measure calibrates the kernel rates by running the real kernels on the
// sample mesh m. threads <= 1 measures sequential execution; optimized
// selects the optimized code paths (AoS+SIMD vs baseline) and, when
// threaded, METIS owner-writes plus P2P recurrences.
func Measure(m *mesh.Mesh, threads int, optimized bool) (Rates, error) {
	r := Rates{Threads: max(1, threads), Optimized: optimized}
	var pool *par.Pool
	if threads > 1 {
		pool = par.NewPool(threads)
		defer pool.Close()
	}
	strategy := flux.Sequential
	if pool != nil {
		strategy = flux.ReplicateMETIS
	}
	part, err := flux.NewPartition(m, max(1, threads), strategy, 7)
	if err != nil {
		return r, err
	}
	cfg := flux.Config{Strategy: strategy, SIMD: optimized, Prefetch: optimized, SoANodeData: !optimized}
	qInf := physics.FreeStream(3.06)
	k := flux.NewKernels(m, 5, qInf, pool, part, cfg)

	nv := m.NumVertices()
	q := make([]float64, nv*4)
	for v := 0; v < nv; v++ {
		copy(q[v*4:v*4+4], qInf[:])
		q[v*4] += 1e-3 * float64(v%17)
	}
	if cfg.SoANodeData {
		q = flux.AoSToSoA(q, nv)
	}
	res := make([]float64, nv*4)
	grad := make([]float64, nv*12)

	r.FluxPerEdge = perUnit(func() { k.Residual(q, nil, nil, res) }, m.NumEdges())
	if cfg.SoANodeData {
		// gradient kernel requires AoS input
		q = flux.SoAToAoS(q, nv)
		k.Cfg.SoANodeData = false
	}
	r.GradPerEdge = perUnit(func() { k.Gradient(q, grad) }, m.NumEdges())

	a := sparse.NewBSRFromAdj(m.AdjPtr, m.Adj)
	r.JacPerEdge = perUnit(func() { k.Jacobian(q, a) }, m.NumEdges())
	// Make the matrix factorizable.
	dt := make([]float64, nv)
	for i := range dt {
		dt[i] = 0.01
	}
	flux.AddPseudoTimeTerm(a, m.Vol, dt)

	pat, err := sparse.SymbolicILU(a, 0)
	if err != nil {
		return r, err
	}
	f, err := sparse.NewFactorPattern(pat)
	if err != nil {
		return r, err
	}
	nnz := f.M.NNZBlocks()
	x := make([]float64, nv*4)
	if pool != nil && optimized {
		p2p, err := sparse.NewP2PSchedule(f.M, pool.Size())
		if err != nil {
			return r, err
		}
		r.ILUPerBlock = perUnit(func() {
			if err := f.FactorizeILUP2P(pool, p2p, a); err != nil {
				panic(err)
			}
		}, nnz)
		r.TRSVPerBlock = perUnit(func() { f.SolveP2P(pool, p2p, res, x) }, nnz)
	} else {
		r.ILUPerBlock = perUnit(func() {
			if err := f.FactorizeILU(a); err != nil {
				panic(err)
			}
		}, nnz)
		r.TRSVPerBlock = perUnit(func() { f.Solve(res, x) }, nnz)
	}

	// Vector op rate: AXPY over the state vector.
	n := nv * 4
	y := make([]float64, n)
	r.VecPerElem = perUnit(func() {
		for i := 0; i < n; i++ {
			y[i] += 1.0000001 * x[i]
		}
	}, n)
	return r, nil
}

// MeasureFused calibrates the second-order limited residual evaluation in
// both of its forms on the sample mesh m: the three-sweep
// Gradient→Limiter→Residual path and the cache-blocked fused single-sweep
// pipeline, returning seconds per edge for each. The multi-node simulator's
// numerics are first-order, so cluster simulations of the fused rung use
// the measured ratio to rescale Rates.FluxPerEdge rather than running the
// fused kernel distributed.
func MeasureFused(m *mesh.Mesh, threads int) (unfused, fused float64, err error) {
	var pool *par.Pool
	if threads > 1 {
		pool = par.NewPool(threads)
		defer pool.Close()
	}
	strategy := flux.Sequential
	if pool != nil {
		strategy = flux.ReplicateMETIS
	}
	part, err := flux.NewPartition(m, max(1, threads), strategy, 7)
	if err != nil {
		return 0, 0, err
	}
	cfg := flux.Config{Strategy: strategy, SIMD: true, Prefetch: true}
	qInf := physics.FreeStream(3.06)
	k := flux.NewKernels(m, 5, qInf, pool, part, cfg)

	nv := m.NumVertices()
	q := make([]float64, nv*4)
	for v := 0; v < nv; v++ {
		copy(q[v*4:v*4+4], qInf[:])
		q[v*4] += 1e-3 * float64(v%17)
	}
	res := make([]float64, nv*4)
	grad := make([]float64, nv*12)
	phi := make([]float64, nv*4)
	const kVenk = 5.0
	ne := m.NumEdges()
	unfused = perUnit(func() {
		k.Gradient(q, grad)
		k.Limiter(q, grad, phi, kVenk)
		k.Residual(q, grad, phi, res)
	}, ne)
	fused = perUnit(func() { k.ResidualFused(q, res, kVenk, false) }, ne)
	return unfused, fused, nil
}

// MeasureStaged calibrates the second-order limited residual evaluation
// against the hierarchical staged pipeline on the sample mesh m, returning
// seconds per edge for the three-sweep path and the staged sweep. Like
// MeasureFused, the ratio rescales Rates.FluxPerEdge for cluster
// simulations of the `+staged` rung — the simulator's numerics stay
// first-order.
func MeasureStaged(m *mesh.Mesh, threads int) (unfused, staged float64, err error) {
	var pool *par.Pool
	if threads > 1 {
		pool = par.NewPool(threads)
		defer pool.Close()
	}
	strategy := flux.Sequential
	if pool != nil {
		strategy = flux.ReplicateMETIS
	}
	part, err := flux.NewPartition(m, max(1, threads), strategy, 7)
	if err != nil {
		return 0, 0, err
	}
	cfg := flux.Config{Strategy: strategy, SIMD: true, Staged: true}
	qInf := physics.FreeStream(3.06)
	k := flux.NewKernels(m, 5, qInf, pool, part, cfg)

	nv := m.NumVertices()
	q := make([]float64, nv*4)
	for v := 0; v < nv; v++ {
		copy(q[v*4:v*4+4], qInf[:])
		q[v*4] += 1e-3 * float64(v%17)
	}
	res := make([]float64, nv*4)
	grad := make([]float64, nv*12)
	phi := make([]float64, nv*4)
	const kVenk = 5.0
	ne := m.NumEdges()
	unfused = perUnit(func() {
		k.Gradient(q, grad)
		k.Limiter(q, grad, phi, kVenk)
		k.Residual(q, grad, phi, res)
	}, ne)
	staged = perUnit(func() { k.ResidualStaged(q, res, kVenk, false) }, ne)
	return unfused, staged, nil
}

// DeriveOptimized applies the paper's measured single-node cache+SIMD
// kernel gains to a set of (baseline) rates. Go cannot express AVX
// intrinsics or hardware prefetch, so the Fig 9-11 simulations use the
// paper's own per-kernel improvement factors — Fig 6a: AoS layout +40%,
// SIMD +40%, prefetch +15% on the flux kernel (1.4*1.4*1.15 ≈ 2.25x);
// bandwidth-bound recurrences gain little ("performance benefits with
// vectorization are not very significant") — on top of rates measured on
// this machine. Documented as a substitution in DESIGN.md/EXPERIMENTS.md.
func DeriveOptimized(base Rates) Rates {
	out := base
	out.Optimized = true
	out.FluxPerEdge /= 2.25
	out.GradPerEdge /= 1.8
	out.JacPerEdge /= 1.8
	out.ILUPerBlock /= 1.25
	out.TRSVPerBlock /= 1.10
	return out
}

// ThreadScale derives per-rank hybrid rates: it applies the threading
// speedup measured on this machine (seq vs threaded baseline kernels) to
// the given per-rank rates.
func ThreadScale(rates, seq, threaded Rates) Rates {
	out := rates
	out.Threads = threaded.Threads
	scale := func(r, s, t float64) float64 {
		if s <= 0 || t <= 0 {
			return r
		}
		return r * t / s
	}
	out.FluxPerEdge = scale(out.FluxPerEdge, seq.FluxPerEdge, threaded.FluxPerEdge)
	out.GradPerEdge = scale(out.GradPerEdge, seq.GradPerEdge, threaded.GradPerEdge)
	out.JacPerEdge = scale(out.JacPerEdge, seq.JacPerEdge, threaded.JacPerEdge)
	out.ILUPerBlock = scale(out.ILUPerBlock, seq.ILUPerBlock, threaded.ILUPerBlock)
	out.TRSVPerBlock = scale(out.TRSVPerBlock, seq.TRSVPerBlock, threaded.TRSVPerBlock)
	return out
}

// perUnit times fn (repeating briefly for stability) and divides by units.
func perUnit(fn func(), units int) float64 {
	fn() // warm up
	best := 1e300
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		fn()
		if d := time.Since(t0).Seconds(); d < best {
			best = d
		}
	}
	return best / float64(units)
}

// StreamTriad measures achievable memory bandwidth (bytes/sec) with the
// STREAM triad a[i] = b[i] + s*c[i] over nBytes of total traffic, threaded
// over the pool when non-nil. This is the Fig 7b normalization.
func StreamTriad(pool *par.Pool, elems int) float64 {
	if elems < 1<<16 {
		elems = 1 << 16
	}
	a := make([]float64, elems)
	b := make([]float64, elems)
	c := make([]float64, elems)
	for i := range b {
		b[i] = float64(i)
		c[i] = 2
	}
	run := func() {
		if pool == nil {
			for i := range a {
				a[i] = b[i] + 3*c[i]
			}
			return
		}
		pool.ParallelFor(elems, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				a[i] = b[i] + 3*c[i]
			}
		})
	}
	run() // warm up
	best := 1e300
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		run()
		if d := time.Since(t0).Seconds(); d < best {
			best = d
		}
	}
	return float64(elems) * 3 * 8 / best
}

// The Network interconnect model — topology, rank placement, and the
// collective cost models (tree, flat, SMP-aware hierarchical) — lives in
// collective.go.
