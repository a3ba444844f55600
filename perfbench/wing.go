package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"fun3d/internal/core"
	"fun3d/internal/mesh"
	"fun3d/internal/newton"
)

// solveThreads is the thread count of every threaded solve: this host's
// nproc.
const solveThreads = 2

// solveOpts are the pseudo-transient options of the single-node solves.
var solveOpts = newton.Options{CFL0: 10}

// liveHeapMB forces a GC and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// wingSteady runs the paper's Table I problem: Mesh-C' at 2 threads, solved
// to ||R||/||R0|| <= 1e-6, at least sz.minSolves times and until the
// measured time reaches seconds.
func wingSteady(w io.Writer, rep *report, sz sizes, _ uint64, seconds time.Duration, trace bool) error {
	var app *core.App
	var m *mesh.Mesh
	var gen, art, newApp, total []float64
	for i := 0; i < sz.setups; i++ {
		if app != nil {
			app.Close()
			app = nil
			runtime.GC()
		}
		var st setupTimes
		var err error
		cfg := solverConfig(solveThreads)
		cfg.AlphaDeg = sz.alphaDeg
		app, m, st, err = buildApp(sz.wing, cfg)
		if err != nil {
			return err
		}
		gen = append(gen, st.gen.Seconds())
		art = append(art, st.art.Seconds())
		newApp = append(newApp, st.app.Seconds())
		total = append(total, st.total().Seconds())
	}
	defer app.Close()
	rep.set("setup_s", median(total))
	rep.set("live_heap_mb", liveHeapMB())
	rep.set("mesh.generate_s", median(gen))
	rep.set("core.artifact_s", median(art))
	rep.set("core.new_app_s", median(newApp))
	fmt.Fprintf(w, "wing-steady: %d vertices, %d edges, alpha %.2f deg, %s\n", m.NumVertices(), m.NumEdges(), sz.alphaDeg, app.Describe())

	check := func(h newton.History) string {
		if !h.Converged || h.RNormFinal > 1e-6*h.RNorm0 {
			return fmt.Sprintf("not converged: ||R||/||R0|| = %.3g after %d steps", h.RNormFinal/h.RNorm0, len(h.Steps))
		}
		if sz.pinSteps > 0 && (len(h.Steps) != sz.pinSteps || h.LinearIters != sz.pinIters) {
			return fmt.Sprintf("took %d steps and %d linear iterations; the default seed takes %d and %d",
				len(h.Steps), h.LinearIters, sz.pinSteps, sz.pinIters)
		}
		return ""
	}
	if trace {
		return traceLayers(w, rep, traceInput{app: app, mesh: m, opt: solveOpts, check: check, sz: sz, workingSet: true})
	}

	var solves, jobs []float64
	var first *newton.History
	start := time.Now()
	for len(solves) < sz.minSolves || time.Since(start) < seconds {
		t0 := time.Now()
		s := runSolve(app, solveOpts, nil)
		problem := solveProblem(s, check)
		if problem == "" && first != nil && !sameHistory(*first, s.hist) {
			problem = "residual history differs from the run's first solve"
		}
		jobs = append(jobs, time.Since(t0).Seconds())
		rep.op(problem)
		if problem != "" {
			break
		}
		if first == nil {
			first = &s.hist
			fmt.Fprintf(w, "wing-steady: %d steps, %d linear iterations, ||R||/||R0|| = %.3g\n",
				len(s.hist.Steps), s.hist.LinearIters, s.hist.RNormFinal/s.hist.RNorm0)
		}
		solves = append(solves, s.wall.Seconds())
	}
	batchMetrics(w, rep, solves, jobs, time.Since(start))
	return nil
}

// batchMetrics books the job metrics of a workload whose jobs are whole
// solves run back to back: a job is one solve plus its output check.
func batchMetrics(w io.Writer, rep *report, solves, jobs []float64, measured time.Duration) {
	rep.set("solve_s", median(solves))
	rep.set("job_p50_s", median(jobs))
	rep.set("job_p95_s", percentile(jobs, 95))
	rep.set("jobs_per_s", float64(len(jobs))/measured.Seconds())
	printJobs(w, jobs, len(jobs))
}

// printJobs prints the job latency sample: its quartiles and spread, how
// many samples lie beyond the reported p95, and the tail rule's percentile.
func printJobs(w io.Writer, lat []float64, attempted int) {
	q1, q2, q3, _ := quartiles(lat)
	t := tail(lat)
	fmt.Fprintf(w, "jobs: %d done of %d; latency quartiles %.4g / %.4g / %.4g s (spread %.3f); p95 has %d of %d samples beyond it; tail rule: p%.1f = %.4g s with %d beyond\n",
		len(lat), attempted, q1, q2, q3, iqrShare(lat), beyond(lat, 95), t.N, t.Pct, t.Value, t.Beyond)
}
