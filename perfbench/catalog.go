package main

// The metric catalogue: every number the benchmark reports, with its unit,
// the direction that counts as better, its time axis and the reason it is
// measured. BENCHMARK.json at the repository root lists the same names and
// units (catalog_test.go keeps the two in step); the axis and reason live
// here because that file's schema has no room for them.
//
// Time axes:
//   - wall:     measured wall-clock time on this host (or a rate of it);
//   - virtual:  simulated-cluster time from mpisim's cost model, never
//     added to wall time;
//   - computed: a traffic-model byte count divided by measured wall time;
//     the bytes are modeled, not counted by hardware;
//   - count:    an exact count made by the program;
//   - memory:   heap bytes after a forced GC.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Axis   string
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent median
	Why    string
}

// endToEnd metrics are reported by every workload on an untraced run.
// ops_failed is printed beside them but travels in the result's
// attempted/failed fields: it is 0 on a healthy build, and a metric that
// can be 0 has no relative bound.
var endToEnd = []metricDef{
	{"solve_s", "s", "lower", "wall", 0.25, "median time of one solve to its stopping rule: App.Run (wing-steady), SolveArtifact (cluster-64), a job's run inside the engine (service-polar)"},
	{"setup_s", "s", "lower", "wall", 0.25, "median of several set-ups (mesh, artifact, App/engine construction, warm-up), so that work moved into set-up shows"},
	{"live_heap_mb", "MB", "lower", "memory", 0.1, "live heap after set-up and a forced GC: the resident cost of keeping the solver ready"},
	{"job_p50_s", "s", "lower", "wall", 0.25, "median time from a caller's request to its checked result: POST to final NDJSON line (service-polar), call to checked solve (others)"},
	{"job_p95_s", "s", "lower", "wall", 0.25, "nearest-rank p95 of the same latencies; at 400 service jobs it leaves 20 samples beyond it, on the batch workloads it is the slowest solve"},
	{"jobs_per_s", "1/s", "higher", "wall", 0.25, "jobs completed per second of measured time"},
}

// perLayer metrics are reported on a traced run. A layer a workload does
// not exercise reads 0 and is printed as n/a.
var perLayer = []metricDef{
	// Set-up layers -> setup_s.
	{"mesh.generate_s", "s", "lower", "wall", 0, "mesh.Generate of the workload's mesh -> setup_s"},
	{"core.artifact_s", "s", "lower", "wall", 0, "core.BuildArtifact (ordering, partition, Jacobian pattern) -> setup_s"},
	{"core.new_app_s", "s", "lower", "wall", 0, "core.NewAppFromArtifact incl. symbolic ILU and P2P schedule -> setup_s"},
	{"mpisim.build_s", "s", "lower", "wall", 0, "mpisim.BuildArtifact (64-way decomposition, per-rank patterns) -> setup_s on cluster-64"},

	// Layer replays on the converged state, 2 threads -> solve_s.
	{"flux.residual_ms", "ms", "lower", "wall", 0, "Kernels.Residual (second-order flux sweep) per call -> solve_s"},
	{"flux.gradient_ms", "ms", "lower", "wall", 0, "Kernels.Gradient per call -> solve_s"},
	{"flux.limiter_ms", "ms", "lower", "wall", 0, "Kernels.Limiter per call -> solve_s"},
	{"flux.jacobian_ms", "ms", "lower", "wall", 0, "Kernels.Jacobian (first-order assembly) per call -> solve_s"},
	{"flux.residual_fused_ms", "ms", "lower", "wall", 0, "Kernels.ResidualFused on an App built with the fused pipeline; compare with gradient+limiter+residual"},
	{"flux.residual_staged_ms", "ms", "lower", "wall", 0, "Kernels.ResidualStaged on an App built with the staged pipeline; compare with gradient+limiter+residual"},
	{"precond.factorize_ms", "ms", "lower", "wall", 0, "ASM.Factorize (ILU) per call -> solve_s"},
	{"precond.apply_ms", "ms", "lower", "wall", 0, "ASM.Apply (forward/backward TRSV) per call -> solve_s"},
	{"vecop.dot_us", "us", "lower", "wall", 0, "threaded Ops.Dot at n = 4*nv -> solve_s"},
	{"vecop.axpy_us", "us", "lower", "wall", 0, "threaded Ops.AXPY at n = 4*nv -> solve_s"},
	{"vecop.mdotnorm_us", "us", "lower", "wall", 0, "threaded Ops.MDotNorm over 10 vectors at n = 4*nv -> solve_s"},
	{"physics.roe_flux_ns", "ns", "lower", "wall", 0, "physics.RoeFlux per edge pair -> flux.residual_ms"},
	{"physics.roe_jacobians_ns", "ns", "lower", "wall", 0, "physics.RoeFluxJacobians per edge pair -> flux.jacobian_ms"},

	// Rates against computed bytes and the host STREAM rate.
	{"flux.residual_gbs", "GB/s", "higher", "computed", 0, "ResidualBytes per residual_ms"},
	{"precond.factor_gbs", "GB/s", "higher", "computed", 0, "FactorBytes per factorize_ms"},
	{"precond.apply_gbs", "GB/s", "higher", "computed", 0, "SolveBytes per apply_ms"},
	{"flux.residual_stream_frac", "ratio", "higher", "computed", 0, "residual_gbs over the over-LLC STREAM triad rate (the paper's Fig 7b metric)"},
	{"precond.factor_stream_frac", "ratio", "higher", "computed", 0, "factor_gbs over the over-LLC STREAM triad rate"},
	{"precond.apply_stream_frac", "ratio", "higher", "computed", 0, "apply_gbs over the over-LLC STREAM triad rate"},
	{"flux.residual_speedup_2t", "x", "higher", "wall", 0, "residual_ms of the plain 1-thread baseline App over the 2-thread replay"},
	{"precond.factorize_speedup_2t", "x", "higher", "wall", 0, "factorize_ms of the plain 1-thread baseline App over the 2-thread replay"},
	{"precond.apply_speedup_2t", "x", "higher", "wall", 0, "apply_ms of the plain 1-thread baseline App over the 2-thread replay"},
	{"stream.triad_gbs", "GB/s", "higher", "wall", 0, "2-thread STREAM triad over arrays of >= 4x the LLC in total (or the largest that fit)"},
	{"stream.triad_32mib_gbs", "GB/s", "higher", "wall", 0, "2-thread STREAM triad at 1<<22 elements per array, the size internal/bench uses"},

	// Counts of the traced solve.
	{"newton.steps", "count", "lower", "count", 0, "pseudo-time steps to convergence"},
	{"krylov.linear_iters", "count", "lower", "count", 0, "GMRES iterations over the solve"},
	{"flux.residual_calls", "count", "lower", "count", 0, "residual evaluations (App.Prof flux count)"},
	{"precond.apply_calls", "count", "lower", "count", 0, "preconditioner applications (App.Prof trsv count)"},
	{"newton.step_ms_p50", "ms", "lower", "wall", 0, "median interval between Options.OnStep callbacks"},

	// Service layers -> job_p50_s, job_p95_s, jobs_per_s on service-polar.
	{"service.submit_ms_p50", "ms", "lower", "wall", 0, "POST /v1/jobs round trip"},
	{"service.queue_wait_ms_p50", "ms", "lower", "wall", 0, "Job.Times started - submitted"},
	{"service.run_ms_p50", "ms", "lower", "wall", 0, "Job.Times finished - started"},
	{"service.stream_tail_ms_p50", "ms", "lower", "wall", 0, "job finished to final NDJSON line received"},
	{"service.http_self_ms_p50", "ms", "lower", "wall", 0, "job latency outside the engine's queue and run spans: the HTTP layer and the caller"},
	{"service.cache_hit_ratio", "ratio", "higher", "count", 0, "MeshCache hits over lookups during the measured jobs"},
	{"service.pool_builds", "count", "lower", "count", 0, "StatePool instance builds during the measured jobs"},

	// Simulated cluster -> solve_s on cluster-64.
	{"mpisim.wall_per_iter_ms", "ms", "lower", "wall", 0, "SolveArtifact wall time per linear iteration"},
	{"mpisim.virtual_s", "s", "lower", "virtual", 0, "modeled time to solution of the slowest rank"},
	{"mpisim.virtual_allreduce_frac", "ratio", "lower", "virtual", 0, "modeled Allreduce share of compute+point-to-point+Allreduce"},
	{"mpisim.msgs", "count", "lower", "count", 0, "point-to-point messages"},
	{"mpisim.bytes", "count", "lower", "count", 0, "point-to-point bytes"},
	{"mpisim.allreduces", "count", "lower", "count", 0, "Allreduce calls"},

	// Trace bookkeeping.
	{"trace.unattributed_frac", "ratio", "lower", "wall", 0, "1 - sum(replayed per-call time x calls)/solve time"},
	{"trace.overhead_frac", "ratio", "lower", "wall", 0, "traced solve time over untraced solve time, minus 1"},
}

func lookup(name string) (metricDef, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
