// Trisolve: the sparse-recurrence substrate on its own — build the
// first-order Jacobian in 4x4 BSR form, factor it with block ILU(0) and
// ILU(1), and solve triangular systems under the three schedules the paper
// compares (sequential, level-scheduled with barriers, P2P-sparsified),
// reporting the DAG parallelism of Table II.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"time"

	"fun3d/internal/flux"
	"fun3d/internal/mesh"
	"fun3d/internal/par"
	"fun3d/internal/physics"
	"fun3d/internal/sparse"
)

func main() {
	m, err := mesh.Generate(mesh.ScaleSpec(mesh.SpecC(), 0.25))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("mesh:", m.ComputeStats())

	// Assemble a real Jacobian with a pseudo-time shift.
	qInf := physics.FreeStream(3.06)
	part, _ := flux.NewPartition(m, 1, flux.Sequential, 0)
	k := flux.NewKernels(m, 5, qInf, nil, part, flux.Config{})
	q := make([]float64, m.NumVertices()*4)
	rng := rand.New(rand.NewSource(1))
	for v := 0; v < m.NumVertices(); v++ {
		for c := 0; c < 4; c++ {
			q[v*4+c] = qInf[c] + 0.05*rng.NormFloat64()
		}
	}
	a := sparse.NewBSRFromAdj(m.AdjPtr, m.Adj)
	k.Jacobian(q, a)
	dt := make([]float64, m.NumVertices())
	for i := range dt {
		dt[i] = 0.01
	}
	flux.AddPseudoTimeTerm(a, m.Vol, dt)
	fmt.Printf("jacobian: %d block rows, %d 4x4 blocks\n\n", a.N, a.NNZBlocks())

	nThreads := runtime.NumCPU()
	pool := par.NewPool(nThreads)
	defer pool.Close()

	b := make([]float64, a.N*4)
	x := make([]float64, a.N*4)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	for _, fill := range []int{0, 1} {
		pat, err := sparse.SymbolicILU(a, fill)
		if err != nil {
			log.Fatal(err)
		}
		f, err := sparse.NewFactorPattern(pat)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ILU(%d): %d blocks (fill ratio %.2f), DAG parallelism %.0fX, %d wavefronts\n",
			fill, f.M.NNZBlocks(), float64(f.M.NNZBlocks())/float64(a.NNZBlocks()),
			sparse.DAGParallelism(f.M), sparse.CriticalPathLevels(f.M))

		// Factorization under the three schedules.
		tSeq := timeIt(func() { must(f.FactorizeILU(a)) })
		ls := sparse.NewLevelSchedule(f.M)
		tLvl := timeIt(func() { must(f.FactorizeILULevel(pool, ls, a)) })
		ps, err := sparse.NewP2PSchedule(f.M, nThreads)
		if err != nil {
			log.Fatal(err)
		}
		tP2P := timeIt(func() { must(f.FactorizeILUP2P(pool, ps, a)) })
		fmt.Printf("  factor: seq %v | level %v (%.2fX) | p2p %v (%.2fX)\n",
			tSeq.Round(time.Microsecond),
			tLvl.Round(time.Microsecond), float64(tSeq)/float64(tLvl),
			tP2P.Round(time.Microsecond), float64(tSeq)/float64(tP2P))

		// Triangular solves.
		sSeq := timeIt(func() { f.Solve(b, x) })
		sLvl := timeIt(func() { f.SolveLevel(pool, ls, b, x) })
		sP2P := timeIt(func() { f.SolveP2P(pool, ps, b, x) })
		fmt.Printf("  trsv:   seq %v | level %v (%.2fX) | p2p %v (%.2fX)\n",
			sSeq.Round(time.Microsecond),
			sLvl.Round(time.Microsecond), float64(sSeq)/float64(sLvl),
			sP2P.Round(time.Microsecond), float64(sSeq)/float64(sP2P))

		// All three produce bit-identical solutions.
		f.Solve(b, x)
		ref := append([]float64(nil), x...)
		f.SolveP2P(pool, ps, b, x)
		for i := range x {
			if x[i] != ref[i] {
				log.Fatalf("p2p solve differs at %d", i)
			}
		}
		fmt.Println("  (sequential and P2P solutions bit-identical)")
		fmt.Println()
	}
}

func timeIt(f func()) time.Duration {
	f() // warm up
	best := time.Duration(1<<62 - 1)
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
