package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"fun3d/internal/mesh"
	"fun3d/internal/mpisim"
	"fun3d/internal/perfmodel"
)

// clusterRates are fixed synthetic per-unit kernel costs, the same pinned
// rates the faults experiment uses: with them every virtual-time output is
// plain IEEE arithmetic on the trajectory and repeats exactly.
func clusterRates() perfmodel.Rates {
	return perfmodel.Rates{
		FluxPerEdge:  150e-9,
		GradPerEdge:  40e-9,
		JacPerEdge:   250e-9,
		ILUPerBlock:  30e-9,
		TRSVPerBlock: 8e-9,
		VecPerElem:   1e-9,
		Threads:      1,
	}
}

// clusterPartitionSeed seeds the 64-way multilevel decomposition.
const clusterPartitionSeed = 1

// cluster64 runs mpisim on Mesh-C': 64 sequential first-order ILU(0) ranks
// at 16 ranks per node, classical GMRES, tree Allreduce, flat topology and
// block placement, solved to 1e-6.
func cluster64(w io.Writer, rep *report, sz sizes, _ uint64, seconds time.Duration, trace bool) error {
	spec := mpisim.ClusterSpec{Ranks: sz.ranks, Seed: clusterPartitionSeed}
	var art *mpisim.Artifact
	var m *mesh.Mesh
	var gen, build, total []float64
	for i := 0; i < sz.setups; i++ {
		art, m = nil, nil
		runtime.GC()
		t0 := time.Now()
		var err error
		m, err = mesh.Generate(sz.cluster)
		if err != nil {
			return fmt.Errorf("mesh.Generate: %w", err)
		}
		t1 := time.Now()
		art, err = mpisim.BuildArtifact(m, spec)
		if err != nil {
			return fmt.Errorf("mpisim.BuildArtifact: %w", err)
		}
		gen = append(gen, t1.Sub(t0).Seconds())
		build = append(build, time.Since(t1).Seconds())
		total = append(total, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(total))
	rep.set("live_heap_mb", liveHeapMB())
	rep.set("mesh.generate_s", median(gen))
	rep.set("mpisim.build_s", median(build))
	fmt.Fprintf(w, "cluster-64: %d vertices, %d ranks at %d per node, alpha %.2f deg\n", m.NumVertices(), sz.ranks, sz.ranksPerNode, sz.alphaDeg)

	net := perfmodel.Stampede() // flat topology, tree Allreduce, block placement
	net.RanksPerNode = sz.ranksPerNode
	cfg := mpisim.Config{
		Ranks:    sz.ranks,
		Seed:     clusterPartitionSeed,
		Rates:    clusterRates(),
		Net:      net,
		AlphaDeg: sz.alphaDeg,
		CFL0:     solveOpts.CFL0,
		RelTol:   1e-6,
		MaxSteps: 60,
	}
	var solves, jobs []float64
	var first *mpisim.Result
	start := time.Now()
	for len(solves) < sz.minSolves || time.Since(start) < seconds {
		t0 := time.Now()
		r, err := mpisim.SolveArtifact(art, cfg)
		wall := time.Since(t0)
		problem := ""
		switch {
		case err != nil:
			problem = "SolveArtifact: " + err.Error()
		case !r.Converged:
			problem = fmt.Sprintf("not converged after %d steps", r.Steps)
		case first != nil && !sameCluster(*first, r):
			problem = "residual History or virtual time differs from the run's first solve"
		}
		jobs = append(jobs, time.Since(t0).Seconds())
		rep.op(problem)
		if problem != "" {
			break
		}
		if first == nil {
			first = &r
			fmt.Fprintf(w, "cluster-64: %d steps, %d linear iterations, %d messages, %.6f virtual s\n",
				r.Steps, r.LinearIters, r.Msgs, r.Time)
		}
		solves = append(solves, wall.Seconds())
	}
	if first == nil {
		return nil
	}
	if trace {
		r := *first
		rep.set("newton.steps", float64(r.Steps))
		rep.set("krylov.linear_iters", float64(r.LinearIters))
		rep.set("mpisim.wall_per_iter_ms", median(solves)*1e3/float64(max(r.LinearIters, 1)))
		rep.set("mpisim.virtual_s", r.Time)
		rep.set("mpisim.virtual_allreduce_frac", r.AllreduceTime/(r.ComputeTime+r.PtPTime+r.AllreduceTime))
		rep.set("mpisim.msgs", float64(r.Msgs))
		rep.set("mpisim.bytes", float64(r.Bytes))
		rep.set("mpisim.allreduces", float64(r.Allreduces))
		return nil
	}
	batchMetrics(w, rep, solves, jobs, time.Since(start))
	return nil
}

// sameCluster reports whether two simulated solves agree bit for bit on
// the residual trajectory and the modeled time.
func sameCluster(a, b mpisim.Result) bool {
	if len(a.History) != len(b.History) || a.LinearIters != b.LinearIters ||
		math.Float64bits(a.Time) != math.Float64bits(b.Time) {
		return false
	}
	for i := range a.History {
		if math.Float64bits(a.History[i]) != math.Float64bits(b.History[i]) {
			return false
		}
	}
	return true
}
