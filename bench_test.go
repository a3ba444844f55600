// Benchmarks mapping one-to-one onto the paper's tables and figures; see
// DESIGN.md's per-experiment index. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark exercises the same code path as the corresponding
// cmd/experiments experiment, on meshes sized for benchmark turnaround.
// Domain metrics (iterations, comm fractions, speedup inputs) are attached
// with b.ReportMetric.
package fun3d_test

import (
	"math/rand"
	"runtime"
	"testing"

	"fun3d"
	"fun3d/internal/core"
	"fun3d/internal/flux"
	"fun3d/internal/mesh"
	"fun3d/internal/newton"
	"fun3d/internal/par"
	"fun3d/internal/perfmodel"
	"fun3d/internal/physics"
	"fun3d/internal/reorder"
	"fun3d/internal/sparse"
)

// benchSpec is the mesh used by the solve-based benchmarks: a reduced
// Mesh-C' so a full solve fits in a benchmark iteration.
func benchSpec() mesh.GenSpec { return mesh.ScaleSpec(mesh.SpecC(), 0.15) }

func benchMesh(b *testing.B) *mesh.Mesh {
	b.Helper()
	m, err := mesh.Generate(benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func solveBench(b *testing.B, m *mesh.Mesh, cfg core.Config, opt newton.Options) {
	b.Helper()
	app, err := core.NewApp(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	b.ResetTimer()
	totalIters := 0
	for i := 0; i < b.N; i++ {
		app.ResetState()
		r, err := app.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		if !r.History.Converged {
			b.Fatalf("not converged: %+v", r.History)
		}
		totalIters = r.History.LinearIters
	}
	b.ReportMetric(float64(totalIters), "lin-iters")
}

// BenchmarkTable1_Baseline: Table I — baseline sequential time to solution.
func BenchmarkTable1_Baseline(b *testing.B) {
	solveBench(b, benchMesh(b), core.BaselineConfig(), newton.Options{MaxSteps: 60, CFL0: 5})
}

// BenchmarkTable2_ILU0vsILU1: Table II — fill level vs time/iterations.
func BenchmarkTable2_ILU0vsILU1(b *testing.B) {
	m := benchMesh(b)
	for _, fill := range []struct {
		name string
		lvl  int
	}{{"ILU0", 0}, {"ILU1", 1}} {
		b.Run(fill.name, func(b *testing.B) {
			cfg := core.BaselineConfig()
			cfg.FillLevel = fill.lvl
			solveBench(b, m, cfg, newton.Options{MaxSteps: 60, CFL0: 10})
		})
	}
}

// BenchmarkFig5_BaselineProfile: Fig 5 — the profiled second-order baseline.
func BenchmarkFig5_BaselineProfile(b *testing.B) {
	cfg := core.BaselineConfig()
	cfg.SecondOrder = true
	cfg.Limiter = true
	solveBench(b, benchMesh(b), cfg, newton.Options{MaxSteps: 60, CFL0: 10})
}

// fluxBenchEnv prepares the flux-kernel benchmarks.
type fluxBenchEnv struct {
	m    *mesh.Mesh
	q    []float64
	res  []float64
	qInf physics.State
}

func newFluxBenchEnv(b *testing.B) *fluxBenchEnv {
	b.Helper()
	m0 := benchMesh(b)
	perm := reorder.RCM(reorder.Graph{Ptr: m0.AdjPtr, Adj: m0.Adj})
	m := m0.Permute(perm)
	qInf := physics.FreeStream(3.06)
	rng := rand.New(rand.NewSource(1))
	q := make([]float64, m.NumVertices()*4)
	for v := 0; v < m.NumVertices(); v++ {
		for c := 0; c < 4; c++ {
			q[v*4+c] = qInf[c] + 0.05*rng.NormFloat64()
		}
	}
	return &fluxBenchEnv{m: m, q: q, res: make([]float64, m.NumVertices()*4), qInf: qInf}
}

func (e *fluxBenchEnv) run(b *testing.B, pool *par.Pool, s flux.Strategy, cfg flux.Config) {
	b.Helper()
	nw := 1
	if pool != nil {
		nw = pool.Size()
	}
	part, err := flux.NewPartition(e.m, nw, s, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Strategy = s
	k := flux.NewKernels(e.m, 5, e.qInf, pool, part, cfg)
	q := e.q
	if cfg.SoANodeData {
		q = flux.AoSToSoA(e.q, e.m.NumVertices())
	}
	b.SetBytes(int64(e.m.NumEdges()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Residual(q, nil, nil, e.res)
	}
	b.ReportMetric(100*part.Replication, "repl%")
}

// BenchmarkFig6a_FluxLadder: Fig 6a — the flux-kernel optimization rungs.
func BenchmarkFig6a_FluxLadder(b *testing.B) {
	env := newFluxBenchEnv(b)
	pool := par.NewPool(runtime.NumCPU())
	defer pool.Close()
	rungs := []struct {
		name     string
		threaded bool
		cfg      flux.Config
	}{
		{"SeqSoA", false, flux.Config{SoANodeData: true}},
		{"ThreadedSoA", true, flux.Config{SoANodeData: true}},
		{"ThreadedAoS", true, flux.Config{}},
		{"ThreadedAoSSIMD", true, flux.Config{SIMD: true}},
		{"ThreadedAoSSIMDPrefetch", true, flux.Config{SIMD: true, Prefetch: true}},
	}
	for _, r := range rungs {
		b.Run(r.name, func(b *testing.B) {
			p, s := (*par.Pool)(nil), flux.Sequential
			if r.threaded {
				p, s = pool, flux.ReplicateMETIS
			}
			env.run(b, p, s, r.cfg)
		})
	}
}

// BenchmarkFig6b_FluxStrategies: Fig 6b — threading strategies.
func BenchmarkFig6b_FluxStrategies(b *testing.B) {
	env := newFluxBenchEnv(b)
	pool := par.NewPool(runtime.NumCPU())
	defer pool.Close()
	for _, s := range []flux.Strategy{flux.Sequential, flux.Atomic,
		flux.ReplicateNatural, flux.ReplicateMETIS, flux.Colored} {
		b.Run(s.String(), func(b *testing.B) {
			p := pool
			if s == flux.Sequential {
				p = nil
			}
			env.run(b, p, s, flux.Config{})
		})
	}
}

// recurrenceBench builds the Jacobian + ILU factor used by Fig 7.
func recurrenceBench(b *testing.B) (*sparse.BSR, *sparse.Factor) {
	b.Helper()
	env := newFluxBenchEnv(b)
	part, err := flux.NewPartition(env.m, 1, flux.Sequential, 0)
	if err != nil {
		b.Fatal(err)
	}
	k := flux.NewKernels(env.m, 5, env.qInf, nil, part, flux.Config{})
	a := sparse.NewBSRFromAdj(env.m.AdjPtr, env.m.Adj)
	k.Jacobian(env.q, a)
	dt := make([]float64, env.m.NumVertices())
	for i := range dt {
		dt[i] = 0.01
	}
	flux.AddPseudoTimeTerm(a, env.m.Vol, dt)
	pat, err := sparse.SymbolicILU(a, 0)
	if err != nil {
		b.Fatal(err)
	}
	f, err := sparse.NewFactorPattern(pat)
	if err != nil {
		b.Fatal(err)
	}
	return a, f
}

// BenchmarkFig7a_SparseLadder: Fig 7a — ILU/TRSV under the three schedules.
func BenchmarkFig7a_SparseLadder(b *testing.B) {
	a, f := recurrenceBench(b)
	pool := par.NewPool(runtime.NumCPU())
	defer pool.Close()
	if err := f.FactorizeILU(a); err != nil {
		b.Fatal(err)
	}
	ls := sparse.NewLevelSchedule(f.M)
	ps, err := sparse.NewP2PSchedule(f.M, pool.Size())
	if err != nil {
		b.Fatal(err)
	}
	n := a.N * sparse.B
	rhs := make([]float64, n)
	x := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%7) - 3
	}
	b.Run("ILU/sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := f.FactorizeILU(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ILU/level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := f.FactorizeILULevel(pool, ls, a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ILU/p2p", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := f.FactorizeILUP2P(pool, ps, a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TRSV/sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f.Solve(rhs, x)
		}
	})
	b.Run("TRSV/level", func(b *testing.B) {
		b.ReportMetric(float64(ls.NumLevels()), "levels")
		for i := 0; i < b.N; i++ {
			f.SolveLevel(pool, ls, rhs, x)
		}
	})
	b.Run("TRSV/p2p", func(b *testing.B) {
		b.ReportMetric(float64(ps.NumWaits()), "waits")
		for i := 0; i < b.N; i++ {
			f.SolveP2P(pool, ps, rhs, x)
		}
	})
}

// BenchmarkFig7b_SparseBandwidth: Fig 7b — achieved TRSV bandwidth vs STREAM.
func BenchmarkFig7b_SparseBandwidth(b *testing.B) {
	a, f := recurrenceBench(b)
	if err := f.FactorizeILU(a); err != nil {
		b.Fatal(err)
	}
	n := a.N * sparse.B
	rhs := make([]float64, n)
	x := make([]float64, n)
	bytes := int64(f.M.NNZBlocks()*(sparse.BB*8+4) + 3*n*8)
	b.Run("TRSV", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			f.Solve(rhs, x)
		}
	})
	b.Run("STREAMTriad", func(b *testing.B) {
		elems := 1 << 22
		b.SetBytes(int64(elems * 3 * 8))
		for i := 0; i < b.N; i++ {
			perfmodel.StreamTriad(nil, elems)
		}
	})
}

// BenchmarkFig8a_FullApp: Fig 8a — baseline vs optimized full application.
func BenchmarkFig8a_FullApp(b *testing.B) {
	m := benchMesh(b)
	b.Run("baseline", func(b *testing.B) {
		solveBench(b, m, core.BaselineConfig(), newton.Options{MaxSteps: 60, CFL0: 10})
	})
	b.Run("optimized", func(b *testing.B) {
		solveBench(b, m, core.OptimizedConfig(runtime.NumCPU()), newton.Options{MaxSteps: 60, CFL0: 10})
	})
}

// clusterBench runs the simulated multi-node solver (Figures 9-11).
func clusterBench(b *testing.B, ranks int, rates perfmodel.Rates, vec *perfmodel.Rates, rpn int) {
	b.Helper()
	m := benchMesh(b)
	net := perfmodel.Stampede()
	net.RanksPerNode = rpn
	var last fun3d.ClusterResult
	for i := 0; i < b.N; i++ {
		res, err := fun3d.SimulateCluster(m, fun3d.ClusterConfig{
			Ranks: ranks, Rates: rates, VecRates: vec, Net: net,
			MaxSteps: 2, RelTol: 1e-30, CFL0: 20, Seed: 11,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Time*1e3, "virtual-ms")
	b.ReportMetric(100*last.CommFraction(), "comm%")
	b.ReportMetric(float64(last.LinearIters), "lin-iters")
}

func benchRates(b *testing.B) perfmodel.Rates {
	b.Helper()
	sample, err := mesh.Generate(mesh.SpecTiny())
	if err != nil {
		b.Fatal(err)
	}
	r, err := perfmodel.Measure(sample, 1, false)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFig9_Scaling: Fig 9 — strong scaling baseline vs optimized.
func BenchmarkFig9_Scaling(b *testing.B) {
	base := benchRates(b)
	opt := perfmodel.DeriveOptimized(base)
	for _, ranks := range []int{4, 16, 64} {
		b.Run("baseline/"+itoa(ranks), func(b *testing.B) { clusterBench(b, ranks, base, nil, 4) })
		b.Run("optimized/"+itoa(ranks), func(b *testing.B) { clusterBench(b, ranks, opt, nil, 4) })
	}
}

// BenchmarkFig10_CommFraction: Fig 10 — communication share vs scale
// (metrics attached as comm%).
func BenchmarkFig10_CommFraction(b *testing.B) {
	opt := perfmodel.DeriveOptimized(benchRates(b))
	for _, ranks := range []int{4, 16, 64, 128} {
		b.Run(itoa(ranks), func(b *testing.B) { clusterBench(b, ranks, opt, nil, 4) })
	}
}

// BenchmarkFig11_Hybrid: Fig 11 — MPI-only vs hybrid rank shapes.
func BenchmarkFig11_Hybrid(b *testing.B) {
	base := benchRates(b)
	opt := perfmodel.DeriveOptimized(base)
	sample, err := mesh.Generate(mesh.SpecTiny())
	if err != nil {
		b.Fatal(err)
	}
	threaded, err := perfmodel.Measure(sample, 2, false)
	if err != nil {
		b.Fatal(err)
	}
	hybrid := perfmodel.ThreadScale(opt, base, threaded)
	const nodes = 8
	b.Run("baseline", func(b *testing.B) { clusterBench(b, nodes*4, base, nil, 4) })
	b.Run("optimized", func(b *testing.B) { clusterBench(b, nodes*4, opt, nil, 4) })
	b.Run("hybrid", func(b *testing.B) { clusterBench(b, nodes*2, hybrid, &opt, 2) })
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblation_ILUWorkspace: the paper's "algorithmic optimization" —
// compressed per-row ILU workspace vs the naive length-N scratch buffer.
// Results are bit-identical; the compressed variant shrinks the working
// set (critical at high thread counts per the paper).
func BenchmarkAblation_ILUWorkspace(b *testing.B) {
	a, f := recurrenceBench(b)
	b.Run("compressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := f.FactorizeILU(a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-buffer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := f.FactorizeILUFullWorkspace(a); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_RCM: solver iteration speed with and without RCM
// reordering (the locality optimization everything else builds on).
func BenchmarkAblation_RCM(b *testing.B) {
	m := benchMesh(b)
	for _, rcm := range []struct {
		name string
		on   bool
	}{{"with-rcm", true}, {"without-rcm", false}} {
		b.Run(rcm.name, func(b *testing.B) {
			cfg := core.BaselineConfig()
			cfg.RCM = rcm.on
			solveBench(b, m, cfg, newton.Options{MaxSteps: 60, CFL0: 10})
		})
	}
}

// BenchmarkAblation_FusedNorms: communication-reducing GMRES in the
// simulated cluster (the paper's future-work direction).
func BenchmarkAblation_FusedNorms(b *testing.B) {
	base := benchRates(b)
	m := benchMesh(b)
	net := perfmodel.Stampede()
	net.RanksPerNode = 4
	for _, fused := range []struct {
		name string
		on   bool
	}{{"classic", false}, {"fused-norms", true}} {
		b.Run(fused.name, func(b *testing.B) {
			var last fun3d.ClusterResult
			for i := 0; i < b.N; i++ {
				res, err := fun3d.SimulateCluster(m, fun3d.ClusterConfig{
					Ranks: 64, Rates: base, Net: net,
					MaxSteps: 2, RelTol: 1e-30, CFL0: 20, Seed: 11,
					FusedNorms: fused.on,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Allreduces), "allreduces")
			b.ReportMetric(last.AllreduceTime*1e3, "allreduce-ms")
		})
	}
}
