package bench

import (
	"fmt"
	"math/rand"
	"time"

	"fun3d/internal/flux"
	"fun3d/internal/mesh"
	"fun3d/internal/par"
	"fun3d/internal/partition"
	"fun3d/internal/perfmodel"
	"fun3d/internal/physics"
	"fun3d/internal/prof"
	"fun3d/internal/reorder"
	"fun3d/internal/sparse"
)

// kernelEnv is shared setup for the kernel-level experiments: an RCM-
// reordered mesh with a perturbed near-freestream state (so fluxes and
// Jacobians are non-degenerate), matching the solver's steady operation.
type kernelEnv struct {
	m    *mesh.Mesh
	m0   *mesh.Mesh // the original (pre-RCM, shuffled) mesh
	q    []float64
	qInf physics.State
}

func newKernelEnv(spec mesh.GenSpec) (*kernelEnv, error) {
	m0, err := mesh.Generate(spec)
	if err != nil {
		return nil, err
	}
	perm := reorder.RCM(reorder.Graph{Ptr: m0.AdjPtr, Adj: m0.Adj})
	m := m0.Permute(perm)
	qInf := physics.FreeStream(3.06)
	rng := rand.New(rand.NewSource(42))
	q := make([]float64, m.NumVertices()*4)
	for v := 0; v < m.NumVertices(); v++ {
		for c := 0; c < 4; c++ {
			q[v*4+c] = qInf[c] + 0.05*rng.NormFloat64()
		}
	}
	return &kernelEnv{m: m, m0: m0, q: q, qInf: qInf}, nil
}

// vsec converts measured seconds to a Duration for artifact bookkeeping.
func vsec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// minTime returns the fastest of reps timed runs of f, in seconds.
func minTime(reps int, f func()) float64 {
	f() // warm up
	best := 1e300
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0).Seconds(); d < best {
			best = d
		}
	}
	return best
}

// fluxTime measures one Residual evaluation under the given configuration.
func (e *kernelEnv) fluxTime(pool *par.Pool, strategy flux.Strategy, cfg flux.Config, reps int) (float64, error) {
	nw := 1
	if pool != nil {
		nw = pool.Size()
	}
	part, err := flux.NewPartition(e.m, nw, strategy, 3)
	if err != nil {
		return 0, err
	}
	cfg.Strategy = strategy
	k := flux.NewKernels(e.m, 5, e.qInf, pool, part, cfg)
	q := e.q
	if cfg.SoANodeData {
		q = flux.AoSToSoA(e.q, e.m.NumVertices())
	}
	res := make([]float64, e.m.NumVertices()*4)
	return minTime(reps, func() { k.Residual(q, nil, nil, res) }), nil
}

// fig6a walks the flux-kernel optimization ladder. Two views are printed:
// the measured speedups at this machine's thread count, and a projection
// to the paper's 10-core node built from (a) single-core measurements of
// each code variant — layout, SIMD batching, prefetch are all measurable
// on one core — and (b) the measured replication/imbalance of our own
// partitioner, combined by the documented ThreadModel.
func fig6a(o *Options) error {
	header(o, "Fig 6a: flux kernel optimization ladder", "cumulative 20.6X at 10 cores/20 threads; data-layout +40%, SIMD +40%, prefetch +15%")
	env, err := newKernelEnv(o.SingleSpec)
	if err != nil {
		return err
	}
	pool := par.NewPool(o.MaxThreads)
	defer pool.Close()
	reps := 5
	if o.Quick {
		reps = 3
	}
	tm := perfmodel.PaperNode()
	part, err := flux.NewPartition(env.m, tm.Cores, flux.ReplicateMETIS, 3)
	if err != nil {
		return err
	}
	g := partition.FromMesh(env.m.AdjPtr, env.m.Adj, true)
	mlPart, err := partition.Multilevel(g, tm.Cores, partition.Options{Seed: 3})
	if err != nil {
		return err
	}
	qual := partition.Evaluate(g, mlPart, tm.Cores)

	type rung struct {
		name     string
		threaded bool
		cfg      flux.Config
	}
	rungs := []rung{
		{"sequential (SoA layout)", false, flux.Config{SoANodeData: true}},
		{"+threading (METIS owner-writes)", true, flux.Config{SoANodeData: true}},
		{"+AoS node data", true, flux.Config{}},
		{"+SIMD edge batching", true, flux.Config{SIMD: true}},
		{"+software prefetch", true, flux.Config{SIMD: true, Prefetch: true, PFDist: o.PFDist}},
	}
	w := table(o)
	fmt.Fprintf(w, "configuration\tmeasured (%dT)\tspeedup\tprojected %d-core\n", o.MaxThreads, tm.Cores)
	baseT := 0.0
	base1 := 0.0
	lastT := 0.0
	rungMS := map[string]any{}
	for i, r := range rungs {
		strategy, p := flux.Sequential, (*par.Pool)(nil)
		if r.threaded && o.MaxThreads > 1 {
			strategy, p = flux.ReplicateMETIS, pool
		}
		t, err := env.fluxTime(p, strategy, r.cfg, reps)
		if err != nil {
			return err
		}
		// Single-core time of this code variant (layout/SIMD/prefetch
		// effects are per-thread and measurable here).
		t1, err := env.fluxTime(nil, flux.Sequential, r.cfg, reps)
		if err != nil {
			return err
		}
		if i == 0 {
			baseT = t
			base1 = t1
		}
		proj := t1 // sequential rung
		if r.threaded {
			proj = tm.Compute(t1, tm.Cores, part.Replication, qual.Imbalance)
		}
		fmt.Fprintf(w, "%s\t%.3fms\t%.2fX\t%.1fX\n", r.name, 1e3*t, baseT/t, base1/proj)
		lastT = t
		rungMS[r.name] = 1e3 * t
	}
	fmt.Fprintf(w, "(projection: T1/(threads) x (1+%.1f%% replication) x %.2f imbalance)\n",
		100*part.Replication, qual.Imbalance)
	if err := w.Flush(); err != nil {
		return err
	}
	// Artifact: the fully-optimized rung's flux time; the whole ladder
	// rides in config.
	met := &prof.Metrics{}
	met.Add(prof.Flux, vsec(lastT))
	met.Inc(prof.FluxEdges, int64(env.m.NumEdges()))
	return emit(o, "fig6a", met, env.m, map[string]any{
		"threads": o.MaxThreads, "rungs_ms": rungMS,
	}, map[string]float64{"cumulative_speedup": 20.6})
}

// fig6b compares the threading strategies across a core sweep: measured on
// this machine, then projected to the paper's node from the
// machine-independent decomposition metrics (replication and imbalance per
// thread count — computed by our partitioner) plus the measured atomic and
// coloring penalties.
func fig6b(o *Options) error {
	header(o, "Fig 6b: flux kernel scaling by threading strategy", "METIS > replication(natural) > atomics in absolute terms; METIS and atomics scale near-linearly; natural replication hits 41% at 20 threads vs 4% for METIS")
	env, err := newKernelEnv(o.SingleSpec)
	if err != nil {
		return err
	}
	reps := 5
	if o.Quick {
		reps = 3
	}
	seqT, err := env.fluxTime(nil, flux.Sequential, flux.Config{}, reps)
	if err != nil {
		return err
	}
	w := table(o)
	bestT := seqT
	if o.MaxThreads > 1 {
		fmt.Fprintln(w, "measured on this machine:")
		fmt.Fprintln(w, "threads\tatomic\treplicate-natural\treplicate-METIS\tcolored")
		for _, nw := range threadSweep(o.MaxThreads) {
			pool := par.NewPool(nw)
			row := fmt.Sprintf("%d", nw)
			for _, s := range []flux.Strategy{flux.Atomic, flux.ReplicateNatural, flux.ReplicateMETIS, flux.Colored} {
				t, err := env.fluxTime(pool, s, flux.Config{}, reps)
				if err != nil {
					pool.Close()
					return err
				}
				if s == flux.ReplicateMETIS && t < bestT {
					bestT = t
				}
				row += fmt.Sprintf("\t%.2fX", seqT/t)
			}
			fmt.Fprintln(w, row)
			pool.Close()
		}
	}

	// Single-core penalties of the conflict-handling mechanisms.
	onePool := par.NewPool(1)
	defer onePool.Close()
	atomicT, err := env.fluxTime(onePool, flux.Atomic, flux.Config{}, reps)
	if err != nil {
		return err
	}
	coloredT, err := env.fluxTime(onePool, flux.Colored, flux.Config{}, reps)
	if err != nil {
		return err
	}
	atomicPen := atomicT / seqT
	coloredPen := coloredT / seqT

	tm := perfmodel.PaperNode()
	g := partition.FromMesh(env.m.AdjPtr, env.m.Adj, true)
	g0 := partition.FromMesh(env.m0.AdjPtr, env.m0.Adj, true)
	fmt.Fprintf(w, "projected on a %d-core node (speedup vs sequential):\n", tm.Cores)
	fmt.Fprintln(w, "threads\tatomic\tnatural(orig order)\tnatural(RCM)\treplicate-METIS\tcolored\trepl orig/RCM/METIS")
	for _, nw := range []int{1, 2, 4, 8, tm.Cores} {
		natOrigQ := partition.Evaluate(g0, partition.Natural(g0, nw), nw)
		natQ := partition.Evaluate(g, partition.Natural(g, nw), nw)
		mlP, err := partition.Multilevel(g, nw, partition.Options{Seed: 3})
		if err != nil {
			return err
		}
		mlQ := partition.Evaluate(g, mlP, nw)
		tAtomic := tm.Compute(seqT*perfmodel.AtomicPenalty(atomicPen, nw), nw, 0, 1)
		tNatOrig := tm.Compute(seqT, nw, natOrigQ.Replication, natOrigQ.Imbalance)
		tNat := tm.Compute(seqT, nw, natQ.Replication, natQ.Imbalance)
		tMETIS := tm.Compute(seqT, nw, mlQ.Replication, mlQ.Imbalance)
		// Coloring loses spatial locality as concurrency grows (the
		// paper's reason for rejecting it); a single core cannot measure
		// that, so the projection adds a documented qualitative
		// degradation of 5%/thread on top of the measured penalty.
		tColored := tm.Compute(seqT*coloredPen*(1+0.05*float64(nw-1)), nw, 0, 1.05)
		fmt.Fprintf(w, "%d\t%.2fX\t%.2fX\t%.2fX\t%.2fX\t%.2fX\t%.0f%%/%.0f%%/%.0f%%\n",
			nw, seqT/tAtomic, seqT/tNatOrig, seqT/tNat, seqT/tMETIS, seqT/tColored,
			100*natOrigQ.Replication, 100*natQ.Replication, 100*mlQ.Replication)
	}
	fmt.Fprintf(w, "(atomic penalty %.2fx and coloring penalty %.2fx measured single-core)\n",
		atomicPen, coloredPen)

	// The paper's 41%-vs-4% replication contrast assumes natural splitting
	// of the ORIGINAL (unreordered) numbering; after RCM, natural blocks
	// are strong. Report both orderings at the paper's 20 threads.
	natOrig := partition.Evaluate(g0, partition.Natural(g0, tm.Cores*2), tm.Cores*2)
	natRCM := partition.Evaluate(g, partition.Natural(g, tm.Cores*2), tm.Cores*2)
	ml20, err := partition.Multilevel(g, tm.Cores*2, partition.Options{Seed: 3})
	if err != nil {
		return err
	}
	ml20Q := partition.Evaluate(g, ml20, tm.Cores*2)
	fmt.Fprintf(w, "replication at 20 threads (paper: natural 41%%, METIS 4%%): natural/original-order %.0f%%, natural/RCM %.0f%%, multilevel %.0f%%\n",
		100*natOrig.Replication, 100*natRCM.Replication, 100*ml20Q.Replication)
	if err := w.Flush(); err != nil {
		return err
	}
	met := &prof.Metrics{}
	met.Add(prof.Flux, vsec(bestT))
	met.Inc(prof.FluxEdges, int64(env.m.NumEdges()))
	return emit(o, "fig6b", met, env.m, map[string]any{
		"threads": o.MaxThreads, "seq_ms": 1e3 * seqT,
		"atomic_penalty": atomicPen, "colored_penalty": coloredPen,
	}, map[string]float64{"natural_replication": 0.41, "metis_replication": 0.04})
}

func threadSweep(maxT int) []int {
	var out []int
	for t := 1; t < maxT; t *= 2 {
		out = append(out, t)
	}
	return append(out, maxT)
}

// jacobianFor builds the first-order Jacobian with a pseudo-time shift for
// the recurrence benchmarks.
func (e *kernelEnv) jacobianFor() (*sparse.BSR, error) {
	part, err := flux.NewPartition(e.m, 1, flux.Sequential, 0)
	if err != nil {
		return nil, err
	}
	k := flux.NewKernels(e.m, 5, e.qInf, nil, part, flux.Config{})
	a := sparse.NewBSRFromAdj(e.m.AdjPtr, e.m.Adj)
	k.Jacobian(e.q, a)
	dt := make([]float64, e.m.NumVertices())
	for i := range dt {
		dt[i] = 0.01
	}
	flux.AddPseudoTimeTerm(a, e.m.Vol, dt)
	return a, nil
}

// fig7a compares scheduling strategies for ILU and TRSV at full threads.
func fig7a(o *Options) error {
	header(o, "Fig 7a: ILU and TRSV optimization", "ILU 9.4X, TRSV 3.2X at 10 cores (20 threads); P2P beats level scheduling")
	env, err := newKernelEnv(o.SingleSpec)
	if err != nil {
		return err
	}
	a, err := env.jacobianFor()
	if err != nil {
		return err
	}
	pat, err := sparse.SymbolicILU(a, 0)
	if err != nil {
		return err
	}
	reps := 5
	if o.Quick {
		reps = 3
	}
	pool := par.NewPool(o.MaxThreads)
	defer pool.Close()

	f, _ := sparse.NewFactorPattern(pat)
	iluSeq := minTime(reps, func() { must(f.FactorizeILU(a)) })
	n := a.N * sparse.B
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	trsvSeq := minTime(reps, func() { f.Solve(b, x) })

	ls := sparse.NewLevelSchedule(f.M)
	iluLvl := minTime(reps, func() { must(f.FactorizeILULevel(pool, ls, a)) })
	trsvLvl := minTime(reps, func() { f.SolveLevel(pool, ls, b, x) })

	ps, err := sparse.NewP2PSchedule(f.M, pool.Size())
	if err != nil {
		return err
	}
	iluP2P := minTime(reps, func() { must(f.FactorizeILUP2P(pool, ps, a)) })
	trsvP2P := minTime(reps, func() { f.SolveP2P(pool, ps, b, x) })

	w := table(o)
	fmt.Fprintf(w, "measured (%d threads):\n", pool.Size())
	fmt.Fprintln(w, "kernel\tsequential\tlevel-sched\tP2P-sparse")
	fmt.Fprintf(w, "ILU\t1.00X (%.2fms)\t%.2fX\t%.2fX\n", 1e3*iluSeq, iluSeq/iluLvl, iluSeq/iluP2P)
	fmt.Fprintf(w, "TRSV\t1.00X (%.2fms)\t%.2fX\t%.2fX\n", 1e3*trsvSeq, trsvSeq/trsvLvl, trsvSeq/trsvP2P)

	// Projection to the paper's node from the measured single-core times,
	// the DAG parallelism, the wavefront/wait counts, and the measured
	// single-core STREAM bandwidth.
	tm := perfmodel.PaperNode()
	stream1 := perfmodel.StreamTriad(nil, 1<<22)
	parl := sparse.DAGParallelism(f.M)
	nnz := f.M.NNZBlocks()
	trsvBytes := float64(nnz*(sparse.BB*8+4) + 3*n*8)
	iluBytes := 2 * trsvBytes // factor reads and writes the blocks
	nLevels := ls.NumLevels()
	t := tm.Cores
	psProj, err := sparse.NewP2PSchedule(f.M, t) // wait counts at the projected width
	if err != nil {
		return err
	}
	projILULvl := tm.Recurrence(iluSeq, iluBytes, stream1, t, parl, nLevels)
	projILUP2P := tm.Recurrence(iluSeq, iluBytes, stream1, t, parl, psProj.NumWaits()/64)
	projTRSVLvl := tm.Recurrence(trsvSeq, trsvBytes, stream1, t, parl, 2*nLevels)
	projTRSVP2P := tm.Recurrence(trsvSeq, trsvBytes, stream1, t, parl, psProj.NumWaits()/64)
	fmt.Fprintf(w, "projected on a %d-core node:\n", t)
	fmt.Fprintf(w, "ILU\t1.00X\t%.2fX\t%.2fX\n", iluSeq/projILULvl, iluSeq/projILUP2P)
	fmt.Fprintf(w, "TRSV\t1.00X\t%.2fX\t%.2fX\n", trsvSeq/projTRSVLvl, trsvSeq/projTRSVP2P)
	fmt.Fprintf(w, "(forward DAG: %d levels, parallelism %.0fX, %d p2p waits at %d threads)\n",
		nLevels, parl, psProj.NumWaits(), t)
	if err := w.Flush(); err != nil {
		return err
	}
	// Artifact: the P2P (best) variant's times with the block and byte
	// counts behind the bandwidth columns; the sequential/level times ride
	// in config.
	met := &prof.Metrics{}
	met.Add(prof.ILU, vsec(iluP2P))
	met.Inc(prof.ILUBlocks, int64(nnz))
	met.AddBytes(prof.ILU, int64(iluBytes))
	met.Add(prof.TRSV, vsec(trsvP2P))
	met.Inc(prof.TRSVBlocks, int64(nnz))
	met.AddBytes(prof.TRSV, int64(trsvBytes))
	return emit(o, "fig7a", met, env.m, map[string]any{
		"threads": pool.Size(), "ilu_seq_ms": 1e3 * iluSeq, "trsv_seq_ms": 1e3 * trsvSeq,
		"ilu_level_ms": 1e3 * iluLvl, "trsv_level_ms": 1e3 * trsvLvl,
		"dag_parallelism": parl, "levels": nLevels,
	}, map[string]float64{"ilu_speedup": 9.4, "trsv_speedup": 3.2})
}

// fig7b reports achieved TRSV/ILU bandwidth vs cores against STREAM.
func fig7b(o *Options) error {
	header(o, "Fig 7b: recurrence bandwidth vs cores", "TRSV reaches 94% of STREAM at 10 cores and saturates beyond ~4 cores")
	env, err := newKernelEnv(o.SingleSpec)
	if err != nil {
		return err
	}
	a, err := env.jacobianFor()
	if err != nil {
		return err
	}
	pat, err := sparse.SymbolicILU(a, 0)
	if err != nil {
		return err
	}
	f, _ := sparse.NewFactorPattern(pat)
	must(f.FactorizeILU(a))
	n := a.N * sparse.B
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	// TRSV traffic: every factor block is read once (value + column index)
	// and the solution/rhs vectors stream ~3 times.
	nnz := f.M.NNZBlocks()
	trsvBytes := float64(nnz*(sparse.BB*8+4) + 3*n*8)
	reps := 5
	if o.Quick {
		reps = 3
	}
	w := table(o)
	measP2P, measStream := 0.0, 0.0
	if o.MaxThreads > 1 {
		fmt.Fprintln(w, "measured on this machine:")
		fmt.Fprintln(w, "threads\tTRSV(level)\tTRSV(p2p)\tTRSV p2p %STREAM\tSTREAM")
		for _, nw := range threadSweep(o.MaxThreads) {
			pool := par.NewPool(nw)
			stream := perfmodel.StreamTriad(pool, 1<<22)
			ls := sparse.NewLevelSchedule(f.M)
			ps, err := sparse.NewP2PSchedule(f.M, nw)
			if err != nil {
				pool.Close()
				return err
			}
			tLvl := minTime(reps, func() { f.SolveLevel(pool, ls, b, x) })
			tP2P := minTime(reps, func() { f.SolveP2P(pool, ps, b, x) })
			fmt.Fprintf(w, "%d\t%.2f GB/s\t%.2f GB/s\t%.0f%%\t%.2f GB/s\n",
				nw, trsvBytes/tLvl/1e9, trsvBytes/tP2P/1e9,
				100*trsvBytes/tP2P/stream, stream/1e9)
			measP2P, measStream = tP2P, stream
			pool.Close()
		}
	}

	// Projection: achieved bandwidth = bytes / T(t), where T(t) follows the
	// ThreadModel recurrence (compute bound / t until the bandwidth wall at
	// STREAM(t) = stream1 * bwSpeedup(t)); utilization approaches the
	// paper's 94% as compute time hides under the memory wall.
	trsvSeq := minTime(reps, func() { f.Solve(b, x) })
	stream1 := perfmodel.StreamTriad(nil, 1<<22)
	tm := perfmodel.PaperNode()
	ls := sparse.NewLevelSchedule(f.M)
	ps, err := sparse.NewP2PSchedule(f.M, tm.Cores)
	if err != nil {
		return err
	}
	parl := sparse.DAGParallelism(f.M)
	fmt.Fprintf(w, "projected on a %d-core node (1-core STREAM %.2f GB/s):\n", tm.Cores, stream1/1e9)
	fmt.Fprintln(w, "threads\tTRSV(level)\tTRSV(p2p)\tTRSV p2p %STREAM(t)")
	for _, nw := range []int{1, 2, 4, 8, tm.Cores} {
		tLvl := tm.Recurrence(trsvSeq, trsvBytes, stream1, nw, parl, 2*ls.NumLevels())
		tP2P := tm.Recurrence(trsvSeq, trsvBytes, stream1, nw, parl, ps.NumWaits()/64)
		streamT := stream1 * perfmodel.BwSpeedup(tm, nw)
		fmt.Fprintf(w, "%d\t%.2f GB/s\t%.2f GB/s\t%.0f%%\n",
			nw, trsvBytes/tLvl/1e9, trsvBytes/tP2P/1e9, 100*trsvBytes/tP2P/streamT)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// Artifact: the best measured TRSV (the bandwidth figure falls out of
	// seconds+bytes); single-threaded hosts record the sequential solve.
	tBest := measP2P
	if tBest == 0 {
		tBest = trsvSeq
	}
	met := &prof.Metrics{}
	met.Add(prof.TRSV, vsec(tBest))
	met.Inc(prof.TRSVBlocks, int64(nnz))
	met.AddBytes(prof.TRSV, int64(trsvBytes))
	return emit(o, "fig7b", met, env.m, map[string]any{
		"threads": o.MaxThreads, "stream_gbs": measStream / 1e9, "stream1_gbs": stream1 / 1e9,
	}, map[string]float64{"trsv_stream_fraction": 0.94})
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
