package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"fun3d/internal/core"
	"fun3d/internal/flux"
	"fun3d/internal/geom"
	"fun3d/internal/mesh"
	"fun3d/internal/newton"
	"fun3d/internal/physics"
	"fun3d/internal/prof"
	"fun3d/internal/vecop"
)

// venkK is the limiter constant newton.Options uses by default.
const venkK = 5

// mdotVectors is the basis size the vecop.mdotnorm replay reduces against,
// about the mean Krylov basis of a wing-steady linear solve.
const mdotVectors = 10

// solverConfig is the wing-steady configuration: the paper's optimized
// single-node code with the second-order limited three-sweep residual.
func solverConfig(threads int) core.Config {
	c := core.OptimizedConfig(threads)
	c.SecondOrder, c.Limiter = true, true
	return c
}

// baselineConfig is the plain single-thread code the 2-thread speed-ups
// are taken against.
func baselineConfig() core.Config {
	c := core.BaselineConfig()
	c.SecondOrder, c.Limiter = true, true
	return c
}

// setupTimes splits one App set-up into its layers.
type setupTimes struct {
	gen, art, app time.Duration
}

func (s setupTimes) total() time.Duration { return s.gen + s.art + s.app }

// buildApp generates the mesh, builds the artifact and the App, and warms
// the App by running each per-solve layer once (counted in the App's
// time). The App's state is left at freestream.
func buildApp(spec mesh.GenSpec, cfg core.Config) (*core.App, *mesh.Mesh, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	m, err := mesh.Generate(spec)
	if err != nil {
		return nil, nil, st, fmt.Errorf("mesh.Generate: %w", err)
	}
	t1 := time.Now()
	art, err := core.BuildArtifact(m, cfg)
	if err != nil {
		return nil, nil, st, fmt.Errorf("core.BuildArtifact: %w", err)
	}
	t2 := time.Now()
	app, err := core.NewAppFromArtifact(art, cfg)
	if err != nil {
		return nil, nil, st, fmt.Errorf("core.NewAppFromArtifact: %w", err)
	}
	if err := newLayers(app).warm(); err != nil {
		app.Close()
		return nil, nil, st, err
	}
	st.gen, st.art, st.app = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return app, m, st, nil
}

// appOn builds an artifact for cfg on m and an App over it whose state is
// a copy of src's (mapped through both Apps' vertex orderings).
func appOn(m *mesh.Mesh, cfg core.Config, src *core.App) (*core.App, error) {
	art, err := core.BuildArtifact(m, cfg)
	if err != nil {
		return nil, fmt.Errorf("core.BuildArtifact: %w", err)
	}
	app, err := core.NewAppFromArtifact(art, cfg)
	if err != nil {
		return nil, fmt.Errorf("core.NewAppFromArtifact: %w", err)
	}
	orig := src.StateOriginalOrder()
	for old := 0; old < len(orig)/4; old++ {
		nw := old
		if app.Perm != nil {
			nw = int(app.Perm[old])
		}
		copy(app.Q[nw*4:nw*4+4], orig[old*4:old*4+4])
	}
	return app, nil
}

// layers calls each layer's public entry point on an App's state, with the
// scratch those calls need.
type layers struct {
	app               *core.App
	grad, phi, res, z []float64
	dt                []float64
	ops               vecop.Ops
	sink              float64 // keeps replayed results live
	cfl               float64
}

func newLayers(app *core.App) *layers {
	nv := app.Mesh.NumVertices()
	n := 4 * nv
	l := &layers{
		app:  app,
		grad: make([]float64, 12*nv), phi: make([]float64, n),
		res: make([]float64, n), z: make([]float64, n),
		dt:  make([]float64, nv),
		cfl: solveOpts.CFL0,
		ops: vecop.Seq,
	}
	if app.Pool != nil {
		l.ops = vecop.New(app.Pool)
	}
	return l
}

func (l *layers) gradient() { l.app.Kern.Gradient(l.app.Q, l.grad) }
func (l *layers) limiter()  { l.app.Kern.Limiter(l.app.Q, l.grad, l.phi, venkK) }
func (l *layers) residual() { l.app.Kern.Residual(l.app.Q, l.grad, l.phi, l.res) }
func (l *layers) jacobian() { l.app.Kern.Jacobian(l.app.Q, l.app.A) }

// assemble builds the preconditioning matrix a pseudo-time step factors:
// the first-order Jacobian plus V/dt at CFL l.cfl.
func (l *layers) assemble() {
	l.jacobian()
	localTimeSteps(l.app.Mesh, l.app.Q, l.app.Kern.Beta, l.cfl, l.dt)
	flux.AddPseudoTimeTerm(l.app.A, l.app.Mesh.Vol, l.dt)
}

func (l *layers) factorize() error { return l.app.Pre.Factorize(l.app.A) }
func (l *layers) apply()           { l.app.Pre.Apply(l.res, l.z) }

// warm runs the three-sweep residual, the assembly, the factorization and
// one preconditioner application once, so that a timed solve pays no
// first-touch costs.
func (l *layers) warm() error {
	l.gradient()
	l.limiter()
	l.residual()
	l.assemble()
	if err := l.factorize(); err != nil {
		return fmt.Errorf("warm-up factorization: %w", err)
	}
	l.apply()
	return nil
}

// localTimeSteps fills dt with cfl*Vol/lambda, lambda summing the spectral
// radii of the incident dual faces: the time step newton uses to add the
// pseudo-time term before each factorization.
func localTimeSteps(m *mesh.Mesh, q []float64, beta, cfl float64, dt []float64) {
	for v := range dt {
		lam := 0.0
		for idx := m.AdjPtr[v]; idx < m.AdjPtr[v+1]; idx++ {
			e := m.AdjEdge[idx]
			n := geom.Vec3{X: m.ENX[e], Y: m.ENY[e], Z: m.ENZ[e]}
			var qv physics.State
			copy(qv[:], q[v*4:v*4+4])
			lam += physics.SpectralRadius(qv, n, beta) * n.Norm()
		}
		if lam == 0 {
			lam = math.Sqrt(beta)
		}
		dt[v] = cfl * m.Vol[v] / lam
	}
}

// perCall times f: one untimed call, then calls until at least minReps
// calls and minDur have passed; returns the median call.
func perCall(minReps int, minDur time.Duration, f func()) time.Duration {
	f()
	var ds []float64
	start := time.Now()
	for len(ds) < minReps || (time.Since(start) < minDur && len(ds) < 10000) {
		t := time.Now()
		f()
		ds = append(ds, float64(time.Since(t)))
	}
	return time.Duration(median(ds))
}

// physicsPerPair times one pair-flux function over the mesh's edges on the
// current state and returns the median per-pair time of three sweeps.
func (l *layers) physicsPerPair(f func(qL, qR physics.State, n geom.Vec3) float64) time.Duration {
	m, q := l.app.Mesh, l.app.Q
	ne := m.NumEdges()
	sweep := func() {
		s := 0.0
		for e := 0; e < ne; e++ {
			var qL, qR physics.State
			a, b := int(m.EV1[e])*4, int(m.EV2[e])*4
			copy(qL[:], q[a:a+4])
			copy(qR[:], q[b:b+4])
			s += f(qL, qR, geom.Vec3{X: m.ENX[e], Y: m.ENY[e], Z: m.ENZ[e]})
		}
		l.sink += s
	}
	return perCall(3, 0, sweep) / time.Duration(ne)
}

// replayTimes are one App's per-call layer times.
type replayTimes struct {
	gradient, limiter, residual, jacobian, factorize, apply time.Duration
}

// replay times the three-sweep residual, the assembly, the factorization
// and the preconditioner application on the App's current state.
func (l *layers) replay(minReps int, minDur time.Duration) (replayTimes, error) {
	var rt replayTimes
	rt.gradient = perCall(minReps, minDur, l.gradient)
	rt.limiter = perCall(minReps, minDur, l.limiter)
	rt.residual = perCall(minReps, minDur, l.residual)
	rt.jacobian = perCall(minReps, minDur, l.jacobian)
	l.assemble()
	var ferr error
	rt.factorize = perCall(minReps, minDur, func() {
		if err := l.factorize(); err != nil && ferr == nil {
			ferr = err
		}
	})
	if ferr != nil {
		return rt, fmt.Errorf("replay factorization: %w", ferr)
	}
	rt.apply = perCall(minReps, minDur, l.apply)
	return rt, nil
}

// stepClock records Options.OnStep timestamps.
type stepClock struct {
	start time.Time
	at    []time.Time
}

func (c *stepClock) onStep(newton.StepStats) { c.at = append(c.at, time.Now()) }

// intervalsMs are the step durations: start to first callback, then
// between consecutive callbacks.
func (c *stepClock) intervalsMs() []float64 {
	var out []float64
	prev := c.start
	for _, t := range c.at {
		out = append(out, float64(t.Sub(prev))/1e6)
		prev = t
	}
	return out
}

// solveRun is one timed App.Run.
type solveRun struct {
	hist  newton.History
	wall  time.Duration
	err   error
	calls map[prof.Kernel]int
	vecEl int64
}

// runSolve resets the App to freestream and solves; with clock non-nil the
// solve is traced through Options.OnStep.
func runSolve(app *core.App, opt newton.Options, clock *stepClock) solveRun {
	app.ResetState()
	app.Prof.Reset()
	if clock != nil {
		clock.at = clock.at[:0]
		opt.OnStep = clock.onStep
		clock.start = time.Now()
	}
	t0 := time.Now()
	r, err := app.Run(opt)
	sr := solveRun{hist: r.History, wall: time.Since(t0), err: err, calls: map[prof.Kernel]int{}}
	for _, k := range prof.Kernels() {
		sr.calls[k] = app.Prof.P().Count(k)
	}
	sr.vecEl = app.Prof.Counter(prof.VecElems)
	return sr
}

// sameHistory reports whether two solves followed the bit-identical
// residual trajectory.
func sameHistory(a, b newton.History) bool {
	if len(a.Steps) != len(b.Steps) || a.LinearIters != b.LinearIters ||
		math.Float64bits(a.RNorm0) != math.Float64bits(b.RNorm0) ||
		math.Float64bits(a.RNormFinal) != math.Float64bits(b.RNormFinal) {
		return false
	}
	for i := range a.Steps {
		if math.Float64bits(a.Steps[i].RNorm) != math.Float64bits(b.Steps[i].RNorm) ||
			a.Steps[i].LinearIters != b.Steps[i].LinearIters {
			return false
		}
	}
	return true
}

// traceInput is what a layer trace needs from its workload.
type traceInput struct {
	app   *core.App  // solver at 2 threads, converged state set by the trace
	mesh  *mesh.Mesh // the unreordered mesh app was built from
	opt   newton.Options
	check func(newton.History) string // "" when the solve's output is right
	sz    sizes
	// workingSet prints the working-set table and the over-LLC
	// extrapolation from this process's peak resident set.
	workingSet bool
}

// traceLayers solves untraced, then traced, then replays every layer's
// public entry point on the converged state and books the per-layer
// metrics. Each solve is one checked operation.
func traceLayers(w io.Writer, rep *report, in traceInput) error {
	app, host := in.app, readHost()
	untraced := runSolve(app, in.opt, nil)
	rep.op(solveProblem(untraced, in.check))
	clock := &stepClock{}
	traced := runSolve(app, in.opt, clock)
	problem := solveProblem(traced, in.check)
	if problem == "" && !sameHistory(untraced.hist, traced.hist) {
		problem = "traced solve's residual history differs from the untraced solve's"
	}
	rep.op(problem)
	if untraced.err != nil || traced.err != nil {
		return nil // the failure is booked; no converged state to replay on
	}
	peak := peakRSS()

	h := traced.hist
	rep.set("trace.overhead_frac", traced.wall.Seconds()/untraced.wall.Seconds()-1)
	rep.set("newton.steps", float64(len(h.Steps)))
	rep.set("krylov.linear_iters", float64(h.LinearIters))
	rep.set("flux.residual_calls", float64(traced.calls[prof.Flux]))
	rep.set("precond.apply_calls", float64(traced.calls[prof.TRSV]))
	rep.set("newton.step_ms_p50", median(clock.intervalsMs()))

	l := newLayers(app)
	if len(h.Steps) > 0 {
		l.cfl = h.Steps[len(h.Steps)-1].CFL
	}
	reps, dur := in.sz.replayReps, in.sz.replayDur
	rt, err := l.replay(reps, dur)
	if err != nil {
		return err
	}
	n := len(app.Q)
	x, y := append([]float64(nil), app.Q...), append([]float64(nil), l.res...)
	ys := make([][]float64, mdotVectors)
	for i := range ys {
		ys[i] = append([]float64(nil), app.Q...)
	}
	dots := make([]float64, mdotVectors)
	dot := perCall(reps, dur, func() { l.sink += l.ops.Dot(x, y) })
	axpy := perCall(reps, dur, func() { l.ops.AXPY(1e-12, x, y) })
	mdot := perCall(reps, dur, func() { l.sink += l.ops.MDotNorm(x, ys, dots) })
	beta := app.Kern.Beta
	roe := l.physicsPerPair(func(qL, qR physics.State, nrm geom.Vec3) float64 {
		return physics.RoeFlux(qL, qR, nrm, beta)[0]
	})
	var dL, dR [16]float64
	roeJac := l.physicsPerPair(func(qL, qR physics.State, nrm geom.Vec3) float64 {
		physics.RoeFluxJacobians(qL, qR, nrm, beta, &dL, &dR)
		return dL[0] + dR[15]
	})

	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	rep.set("flux.gradient_ms", ms(rt.gradient))
	rep.set("flux.limiter_ms", ms(rt.limiter))
	rep.set("flux.residual_ms", ms(rt.residual))
	rep.set("flux.jacobian_ms", ms(rt.jacobian))
	rep.set("precond.factorize_ms", ms(rt.factorize))
	rep.set("precond.apply_ms", ms(rt.apply))
	rep.set("vecop.dot_us", us(dot))
	rep.set("vecop.axpy_us", us(axpy))
	rep.set("vecop.mdotnorm_us", us(mdot))
	rep.set("physics.roe_flux_ns", float64(roe))
	rep.set("physics.roe_jacobians_ns", float64(roeJac))

	// Computed-byte rates against the STREAM rates.
	resBytes := app.Kern.ResidualBytes(true, true)
	facBytes, solBytes := app.Pre.FactorBytes(), app.Pre.SolveBytes()
	gbs := func(bytes int64, d time.Duration) float64 { return float64(bytes) / d.Seconds() / 1e9 }
	rep.set("flux.residual_gbs", gbs(resBytes, rt.residual))
	rep.set("precond.factor_gbs", gbs(facBytes, rt.factorize))
	rep.set("precond.apply_gbs", gbs(solBytes, rt.apply))

	// Unattributed share of the traced solve: replayed per-call times
	// times the solve's call counts. The limiter runs only on the
	// unfrozen residual evaluations (gradient calls minus flux calls);
	// vector work is the GMRES VecElems estimate at the AXPY per-element
	// time.
	fluxCalls := float64(traced.calls[prof.Flux])
	parts := []attributed{
		{"flux.gradient", rt.gradient, fluxCalls},
		{"flux.limiter", rt.limiter, float64(traced.calls[prof.Gradient]) - fluxCalls},
		{"flux.residual", rt.residual, fluxCalls},
		{"flux.jacobian", rt.jacobian, float64(traced.calls[prof.Jacobian])},
		{"precond.factorize", rt.factorize, float64(traced.calls[prof.ILU])},
		{"precond.apply", rt.apply, float64(traced.calls[prof.TRSV])},
		{"vecop (axpy-equivalents)", axpy, float64(traced.vecEl) / float64(n)},
	}
	rep.set("trace.unattributed_frac", unattributedFrac(traced.wall, parts))
	fmt.Fprintf(w, "trace: traced solve %.3f s; replayed layers x calls:\n", traced.wall.Seconds())
	for _, p := range parts {
		fmt.Fprintf(w, "  %-18s %10.3f ms x %8.0f = %7.3f s\n", p.layer, ms(p.perCall), p.calls, p.perCall.Seconds()*p.calls)
	}

	// The plain 1-thread baseline, then the fused and staged pipelines,
	// each on its own App over the converged state.
	base, err := appOn(in.mesh, baselineConfig(), app)
	if err != nil {
		return err
	}
	bl := newLayers(base)
	bl.cfl = l.cfl
	brt, err := bl.replay(reps, dur)
	base.Close()
	if err != nil {
		return err
	}
	rep.set("flux.residual_speedup_2t", brt.residual.Seconds()/rt.residual.Seconds())
	rep.set("precond.factorize_speedup_2t", brt.factorize.Seconds()/rt.factorize.Seconds())
	rep.set("precond.apply_speedup_2t", brt.apply.Seconds()/rt.apply.Seconds())
	runtime.GC()

	var fusedBytes, stagedBytes int64
	for _, pipe := range []string{"fused", "staged"} {
		cfg := app.Cfg
		cfg.Fused, cfg.Staged = pipe == "fused", pipe == "staged"
		pa, err := appOn(in.mesh, cfg, app)
		if err != nil {
			return err
		}
		res := make([]float64, n)
		var d time.Duration
		if pipe == "fused" {
			d = perCall(reps, dur, func() { pa.Kern.ResidualFused(pa.Q, res, venkK, false) })
			fb, gb := pa.Kern.ResidualFusedBytes()
			fusedBytes = fb + gb
			rep.set("flux.residual_fused_ms", ms(d))
		} else {
			d = perCall(reps, dur, func() { pa.Kern.ResidualStaged(pa.Q, res, venkK, false) })
			fb, gb, sb := pa.Kern.ResidualStagedBytes()
			stagedBytes = fb + gb + sb
			rep.set("flux.residual_staged_ms", ms(d))
		}
		pa.Close()
		runtime.GC()
	}
	fmt.Fprintf(w, "trace: second-order residual per call: three-sweep %.3f ms (gradient+limiter+residual), fused %.3f ms, staged %.3f ms\n",
		ms(rt.gradient+rt.limiter+rt.residual), rep.vals["flux.residual_fused_ms"], rep.vals["flux.residual_staged_ms"])

	// STREAM last, after every App but the traced one is released.
	elems, limited := in.sz.streamElems, false
	if elems == 0 {
		elems, limited = overLLCElems(host)
	}
	over, inLLC := streamRates(w, host, solveThreads, elems, limited)
	rep.set("stream.triad_gbs", over/1e9)
	rep.set("stream.triad_32mib_gbs", inLLC/1e9)
	rep.set("flux.residual_stream_frac", rep.vals["flux.residual_gbs"]*1e9/over)
	rep.set("precond.factor_stream_frac", rep.vals["precond.factor_gbs"]*1e9/over)
	rep.set("precond.apply_stream_frac", rep.vals["precond.apply_gbs"]*1e9/over)

	if !in.workingSet {
		return nil
	}
	nv, ne := int64(app.Mesh.NumVertices()), int64(app.Mesh.NumEdges())
	sweepArrays := ne*edgeArrayBytes + nv*sweepVertexBytes
	aBlocks, fBlocks := int64(app.A.NNZBlocks())*blockBytes, int64(app.Pre.NNZBlocks())*blockBytes
	vec := int64(8 * n)
	workingSet(w, host, app, peak, sweepArrays, []wsRow{
		{"flux.gradient", app.Kern.GradientBytes(), sweepArrays},
		{"flux.residual (three-sweep flux)", resBytes, sweepArrays},
		{"flux.residual_fused (all phases)", fusedBytes, sweepArrays},
		{"flux.residual_staged (all phases)", stagedBytes, sweepArrays},
		{"flux.jacobian", app.Kern.JacobianBytes(), ne*edgeArrayBytes + vec + aBlocks},
		{"precond.factorize", facBytes, aBlocks + fBlocks},
		{"precond.apply", solBytes, fBlocks + 2*vec},
		{"vecop.axpy", 3 * vec, 2 * vec},
	})
	return nil
}

// solveProblem is "" for a solve that returned without error and whose
// output passes check.
func solveProblem(s solveRun, check func(newton.History) string) string {
	if s.err != nil {
		return "solve: " + s.err.Error()
	}
	return check(s.hist)
}

// Array footprints, in bytes: an edge's endpoints and dual-face normal, a
// vertex's state, gradient, limiter, residual and volume, and one 4x4
// float64 block with its column index.
const (
	edgeArrayBytes   = 2*4 + 3*8
	sweepVertexBytes = (4 + 12 + 4 + 4 + 1) * 8
	blockBytes       = 16*8 + 4
)

// wsRow is one layer call's computed traffic and the footprint of the
// arrays it touches.
type wsRow struct {
	layer            string
	bytes, footprint int64
}

// workingSet prints each layer call's computed traffic and array footprint
// against the LLC, marking the calls whose arrays do not fit in it, and
// what it would take for the edge sweeps to run over the LLC in a full
// solve: the mesh scale at which their arrays outgrow the LLC, and the
// peak resident set a solve there would need, extrapolated linearly from
// this solve's peak.
func workingSet(w io.Writer, h hostInfo, app *core.App, peak, sweepArrays int64, rows []wsRow) {
	llc := h.LLCBytes
	fmt.Fprintf(w, "working set per call (LLC %s): computed traffic, array footprint\n", mib(llc))
	for _, r := range rows {
		mark := "inside LLC"
		if llc > 0 && r.footprint > llc {
			mark = "OVER LLC"
		}
		fmt.Fprintf(w, "  %-36s %12s %12s  %s\n", r.layer, mib(r.bytes), mib(r.footprint), mark)
	}
	if llc <= 0 || peak <= 0 {
		return
	}
	scale := float64(llc) / float64(sweepArrays)
	need := float64(peak) * scale
	fmt.Fprintf(w, "  the edge sweeps' arrays outgrow the LLC only from about %.1fx this mesh (%.0f vertices); this solve peaked at %s RSS,\n",
		scale, scale*float64(app.Mesh.NumVertices()), gib(peak))
	fmt.Fprintf(w, "  so a full solve with ILU(%d) there would need about %s against %s of RAM: ",
		app.Cfg.FillLevel, gib(int64(need)), gib(h.RAMBytes))
	if h.RAMBytes > 0 && need > float64(h.RAMBytes) {
		fmt.Fprintf(w, "it does not fit, so the over-LLC sweep case\n  is reachable on this host only by replaying the sweeps on a larger mesh, not by a full solve.\n")
	} else {
		fmt.Fprintf(w, "it fits.\n")
	}
}
