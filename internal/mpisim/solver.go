package mpisim

import (
	"fmt"
	"math"
	"sync"
	"time"

	"fun3d/internal/blas4"
	"fun3d/internal/flux"
	"fun3d/internal/geom"
	"fun3d/internal/krylov"
	"fun3d/internal/mesh"
	"fun3d/internal/par"
	"fun3d/internal/perfmodel"
	"fun3d/internal/physics"
	"fun3d/internal/prof"
	"fun3d/internal/sparse"
)

// Config describes one multi-node run.
type Config struct {
	Ranks   int
	Natural bool // natural-block decomposition instead of multilevel

	// ThreadsPerRank makes hybrid mode real: each rank owns a par.Pool of
	// that many workers and runs the actual threaded flux/Jacobian kernels
	// (owner-writes partition) and P2P-scheduled ILU/triangular solves on
	// its subdomain. 0 or 1 keeps the rank sequential. Threading never
	// changes the numerics: the owner-writes and P2P paths are bit-identical
	// to the sequential kernels, so a hybrid run's residual history equals
	// the MPI-only run on the same decomposition.
	ThreadsPerRank int

	// Overlap posts the halo exchange nonblocking (Isend/Irecv) and
	// computes the subdomain's interior edges — both endpoints owned, no
	// ghost reads — while the messages are in flight, finishing the
	// ghost-touching boundary edges after Wait. Edge traversal order is
	// interior-first in both modes, so Overlap changes modeled halo wait
	// time and nothing else.
	Overlap bool

	Rates    perfmodel.Rates  // per-rank kernel rates (calibrate at ThreadsPerRank)
	VecRates *perfmodel.Rates // optional override for vector primitives
	// (the paper's hybrid case: kernels threaded, PETSc Vec* sequential)
	Net perfmodel.Network

	FillLevel int
	// Dedup content-deduplicates each rank's ILU stores after every
	// factorization (sparse.Factor dedup mode): bit-identical numerics,
	// with the rank-local triangular solves reading repeated blocks
	// through the unique store.
	Dedup bool
	// FusedNorms enables communication-reducing GMRES (one fewer
	// Allreduce per iteration); see krylov.Options.FusedNorms.
	FusedNorms bool
	// Pipelined selects the single-Allreduce-per-iteration GMRES variant
	// (krylov.Options.Pipelined): the batched reduction rides distOps'
	// ReduceQueue and the JFNK differencing norm is lag-normalized, so each
	// inner iteration issues exactly one collective. Supersedes FusedNorms.
	Pipelined bool
	AlphaDeg  float64
	Beta      float64

	CFL0           float64
	RelTol         float64
	MaxSteps       int
	LinearRelTol   float64
	Restart        int
	MaxLinearIters int

	Seed uint64

	// Faults injects the deterministic fault plan: straggler noise on
	// compute intervals, jitter on point-to-point transfers, and scheduled
	// rank crashes that abort the communicator and trigger
	// checkpoint/restart recovery. The zero value disables injection.
	Faults FaultConfig
	// CheckpointEvery snapshots the distributed state (owned + ghost q,
	// residual history, iteration counters) every k pseudo-time steps when
	// crashes are enabled; recovery resumes from the last consistent
	// snapshot. Default 1 (every step).
	CheckpointEvery int
	// MaxRestarts caps recovery attempts before Solve gives up and returns
	// the crash as an error. Default 64.
	MaxRestarts int
}

func (c *Config) defaults() {
	if c.Beta <= 0 {
		c.Beta = 5
	}
	if c.AlphaDeg == 0 {
		c.AlphaDeg = 3.06
	}
	if c.CFL0 <= 0 {
		c.CFL0 = 50
	}
	if c.RelTol <= 0 {
		c.RelTol = 1e-6
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 30
	}
	if c.LinearRelTol <= 0 {
		c.LinearRelTol = 1e-3
	}
	if c.Restart <= 0 {
		c.Restart = 30
	}
	if c.MaxLinearIters <= 0 {
		c.MaxLinearIters = 300
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 64
	}
	if c.Faults.RestartDelay <= 0 {
		c.Faults.RestartDelay = 0.05
	}
}

// Result aggregates a distributed run.
type Result struct {
	Steps       int
	LinearIters int
	Converged   bool
	RNorm0      float64
	RNormFinal  float64
	// History is the nonlinear residual norm after each pseudo-time step
	// (History[0] is after step 1). Overlap and threading must not change
	// it — the invariant the tests pin down.
	History []float64

	// Virtual time (seconds): Time is the slowest rank's clock; the
	// breakdown averages across ranks (clocks stay synchronized by the
	// Allreduce-heavy algorithm).
	Time          float64
	ComputeTime   float64
	PtPTime       float64
	AllreduceTime float64

	Msgs       int
	Bytes      int
	Allreduces int
	// AllreduceStages and AllreduceHops break the collectives down
	// structurally: message stages executed and switch hops traversed,
	// summed over calls (deterministic functions of the collective
	// algorithm, topology, placement, and rank count).
	AllreduceStages int
	AllreduceHops   int
	// Point-to-point route books summed over ranks: switch hops traversed
	// by halo messages, and the halo bytes whose endpoints straddled a
	// node or a pod/group boundary — the volumes topology-aware placement
	// drives down.
	PtPHops           int
	PtPCrossNodeBytes int
	PtPCrossPodBytes  int

	// Fault-injection accounting (zero on fault-free runs). NoiseTime is
	// the per-rank average of injected straggler/jitter seconds, a subset
	// of ComputeTime + PtPTime; RecomputedSteps counts pseudo-time steps
	// redone after restoring from a checkpoint.
	Restarts        int
	FaultsInjected  int
	RecomputedSteps int
	NoiseTime       float64

	// Metrics aggregates the per-rank kernel records: times are *virtual*
	// seconds summed over ranks (a CPU-seconds analog — fractions are
	// rank-weighted averages), distributed work counters (edges, blocks,
	// vector elements, halo traffic) are global totals, and replicated
	// counts (GMRES iterations, Newton steps, Allreduce calls/bytes) are
	// recorded once, not multiplied by the rank count.
	Metrics *prof.Metrics
}

// CommFraction returns the share of virtual time spent communicating —
// the Fig 10 metric.
func (r Result) CommFraction() float64 {
	if r.Time == 0 {
		return 0
	}
	return (r.PtPTime + r.AllreduceTime) / (r.ComputeTime + r.PtPTime + r.AllreduceTime)
}

// Solve runs the distributed pseudo-transient NKS solver over cfg.Ranks
// simulated ranks and reports real convergence plus modeled time.
//
// With cfg.Faults enabled, Solve is a supervisor: an injected rank crash
// panics out of the attempt (aborting the communicator, MPI_Abort style),
// and the supervisor restores every rank from the last consistent in-memory
// checkpoint, re-forms the communicator, and retries with capped
// exponential backoff. State rewinds; the clock resumes from the
// checkpoint's synchronized virtual time plus the recovery delay, so the
// run's reported time, traffic, and fault counters depend only on the
// deterministic virtual schedule — never on the real-time goroutine race of
// who observed the abort first. Recovery is bit-deterministic: the
// recovered trajectory (residual history, step and iteration counts) is
// identical to a fault-free run's, and two faulted runs with the same seed
// agree on every reported number.
func Solve(m *mesh.Mesh, cfg Config) (Result, error) {
	cfg.defaults()
	art, err := BuildArtifact(m, specOf(&cfg))
	if err != nil {
		return Result{}, err
	}
	return solve(art, cfg)
}

// solve is the supervisor loop shared by Solve and SolveArtifact; cfg has
// defaults applied and matches art.Spec.
func solve(art *Artifact, cfg Config) (Result, error) {
	// A locality placement without an explicit table gets one computed
	// from this decomposition's halo traffic graph. cfg is a copy, so the
	// table lives only for this run; callers sweeping placements over one
	// artifact can precompute a table once and pass it in via Net.NodeTable.
	if cfg.Net.Place == perfmodel.PlaceLocality && cfg.Net.NodeTable == nil {
		tbl, err := LocalityTable(art.Subs, cfg.Net)
		if err != nil {
			return Result{}, err
		}
		cfg.Net.NodeTable = tbl
	}
	fp := newFaultPlan(&cfg)
	var store *ckptStore
	if fp.crashes() {
		store = newCkptStore(cfg.Ranks)
	}

	resume := 0.0 // virtual clock every rank starts the next attempt at
	restarts, faults, recomputed := 0, 0, 0

	for {
		workers, results, err := runAttempt(art, &cfg, fp, store, resume)
		if err != nil {
			return Result{}, err
		}

		// Classify the attempt: injected crashes are retried from the last
		// checkpoint; genuine solver errors (divergence, factorization
		// failure) are returned as before and never retried. Which — and
		// how many — ranks fired a *CrashError is a real-time race, so
		// counters track failure events (attempts killed), not fires.
		var crash *CrashError
		var genuine, aborted error
		for r := range results {
			switch e := results[r].err.(type) {
			case nil:
			case *CrashError:
				if crash == nil {
					crash = e
				}
			default:
				if results[r].err == errAborted {
					aborted = fmt.Errorf("rank %d: %w", r, results[r].err)
				} else if genuine == nil {
					genuine = fmt.Errorf("rank %d: %w", r, results[r].err)
				}
			}
		}

		if crash != nil && genuine == nil {
			faults++
			if restarts >= cfg.MaxRestarts {
				out := finish(&cfg, workers, results, restarts, faults, recomputed)
				return out, fmt.Errorf("mpisim: giving up after %d restarts: %w", restarts, crash)
			}
			// Every rank observed the same last completed step (a
			// completed end-of-step collective is observed by all ranks,
			// even under a concurrent abort), so the lost span is that
			// step minus the restore point, plus the partially-executed
			// step the crash interrupted.
			recomputed += results[0].steps - store.step() + 1
			restarts++
			// Capped exponential backoff on the recovery delay.
			delay := cfg.Faults.RestartDelay
			for i := 1; i < restarts && i < 4; i++ {
				delay *= 2
			}
			// Resume from the checkpoint's synchronized clock (0 when
			// restarting from scratch) plus the delay.
			snapClock := 0.0
			if snaps := store.consistent(); snaps != nil {
				snapClock = snaps[0].stats.Clock
			}
			resume = snapClock + delay
			// Crashes scheduled before the resume point struck a job that
			// was already down — skip them, then retire the designated
			// culprit so recovery cannot livelock on a crash event beyond
			// the resume point.
			fp.advancePast(resume)
			fp.consumeNext()
			continue
		}

		out := finish(&cfg, workers, results, restarts, faults, recomputed)
		if genuine != nil {
			return out, genuine
		}
		if aborted != nil {
			return out, aborted
		}
		return out, nil
	}
}

// runAttempt forms a fresh communicator and runs every rank's solver
// goroutine to completion, restoring from the checkpoint store's last
// consistent snapshot when one exists. Every rank starts at the resume
// clock with the snapshot's time/traffic accounting (a failed attempt's
// partial work past the checkpoint is abandoned — it is sampled at an
// arbitrary abort point and would make the books racy; the recovery delay
// models its cost instead). Worker pools are closed before return.
func runAttempt(art *Artifact, cfg *Config, fp *FaultPlan, store *ckptStore, resume float64) (workers []*worker, results []rankResult, err error) {
	comm := NewComm(cfg.Ranks, cfg.Net)
	workers = make([]*worker, cfg.Ranks)
	results = make([]rankResult, cfg.Ranks)
	defer func() {
		for _, w := range workers {
			if w != nil && w.pool != nil {
				w.pool.Close()
			}
		}
	}()
	var snaps []*rankSnapshot
	if store != nil {
		snaps = store.consistent()
	}
	for r := 0; r < cfg.Ranks; r++ {
		rk := comm.NewRank(r)
		rk.fp = fp
		if snaps != nil {
			st := snaps[r].stats
			rk.ComputeTime = st.ComputeTime
			rk.PtPTime = st.PtPTime
			rk.AllreduceTime = st.AllreduceTime
			rk.NoiseTime = st.NoiseTime
			rk.MsgsSent = st.MsgsSent
			rk.BytesSent = st.BytesSent
			rk.Allreduces = st.Allreduces
			rk.BytesReduced = st.BytesReduced
			rk.AllreduceStages = st.AllreduceStages
			rk.AllreduceHops = st.AllreduceHops
			rk.PtPHops = st.PtPHops
			rk.PtPCrossNodeBytes = st.PtPCrossNodeBytes
			rk.PtPCrossPodBytes = st.PtPCrossPodBytes
		}
		rk.Clock = resume
		w, werr := newWorker(rk, art, cfg)
		if werr != nil {
			return nil, nil, werr
		}
		w.store = store
		if snaps != nil {
			w.restore = snaps[r]
			w.met.Merge(snaps[r].met)
		}
		workers[r] = w
	}
	var wg sync.WaitGroup
	for r := 0; r < cfg.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r] = workers[r].run()
		}(r)
	}
	wg.Wait()
	return workers, results, nil
}

// finish aggregates the final attempt into a Result.
func finish(cfg *Config, workers []*worker, results []rankResult, restarts, faults, recomputed int) Result {
	out := Result{
		Steps:           results[0].steps,
		LinearIters:     results[0].linIters,
		Converged:       results[0].converged,
		RNorm0:          results[0].rnorm0,
		RNormFinal:      results[0].rnorm,
		History:         results[0].history,
		Restarts:        restarts,
		FaultsInjected:  faults,
		RecomputedSteps: recomputed,
		Metrics:         &prof.Metrics{},
	}
	for r := 0; r < cfg.Ranks; r++ {
		rk := workers[r].rank
		if rk.Clock > out.Time {
			out.Time = rk.Clock
		}
		out.ComputeTime += rk.ComputeTime
		out.PtPTime += rk.PtPTime
		out.AllreduceTime += rk.AllreduceTime
		out.NoiseTime += rk.NoiseTime
		out.Msgs += rk.MsgsSent
		out.Bytes += rk.BytesSent
		// Fold this rank's kernel record plus its communication time and
		// halo traffic into the aggregate. The snapshot-restored stats
		// make these cover the whole trajectory, booked exactly once.
		w := workers[r]
		w.met.Add(prof.Allreduce, vdur(rk.AllreduceTime))
		w.met.Add(prof.Halo, vdur(rk.PtPTime))
		w.met.Inc(prof.HaloMsgs, int64(rk.MsgsSent))
		w.met.Inc(prof.HaloBytes, int64(rk.BytesSent))
		w.met.Inc(prof.PtPHops, int64(rk.PtPHops))
		w.met.Inc(prof.PtPCrossNodeBytes, int64(rk.PtPCrossNodeBytes))
		w.met.Inc(prof.PtPCrossPodBytes, int64(rk.PtPCrossPodBytes))
		out.PtPHops += rk.PtPHops
		out.PtPCrossNodeBytes += rk.PtPCrossNodeBytes
		out.PtPCrossPodBytes += rk.PtPCrossPodBytes
		out.Metrics.Merge(w.met)
	}
	out.Allreduces = workers[0].rank.Allreduces
	out.AllreduceStages = workers[0].rank.AllreduceStages
	out.AllreduceHops = workers[0].rank.AllreduceHops
	out.Metrics.Inc(prof.AllreduceCalls, int64(workers[0].rank.Allreduces))
	out.Metrics.Inc(prof.AllreduceBytes, int64(workers[0].rank.BytesReduced))
	out.Metrics.Inc(prof.CollectiveStages, int64(out.AllreduceStages))
	out.Metrics.Inc(prof.CollectiveHops, int64(out.AllreduceHops))
	out.Metrics.Inc(prof.GMRESIters, int64(out.LinearIters))
	out.Metrics.Inc(prof.NewtonSteps, int64(out.Steps))
	n := float64(cfg.Ranks)
	out.ComputeTime /= n
	out.PtPTime /= n
	out.AllreduceTime /= n
	out.NoiseTime /= n
	out.Metrics.Inc(prof.FaultsInjected, int64(faults))
	out.Metrics.Inc(prof.FaultRestarts, int64(restarts))
	out.Metrics.Inc(prof.FaultRecomputedSteps, int64(recomputed))
	out.Metrics.Inc(prof.FaultNoiseMicros, int64(out.NoiseTime*1e6))
	return out
}

// vdur converts modeled (virtual) seconds to a time.Duration for Metrics.
func vdur(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

type rankResult struct {
	steps, linIters int
	converged       bool
	rnorm0, rnorm   float64
	history         []float64
	err             error
}

const (
	tagHalo = 1
)

// worker is one rank's solver state.
type worker struct {
	rank *Rank
	sub  *Subdomain
	cfg  *Config
	qInf physics.State

	rates    perfmodel.Rates
	vecRates perfmodel.Rates

	// Shared-memory machinery: the subdomain materialized as a standalone
	// mesh drives the real flux kernels. With ThreadsPerRank > 1 the rank
	// owns a pool and an owner-writes thread partition; pool is nil in the
	// sequential (MPI-only) case.
	lm   *mesh.Mesh
	kern *flux.Kernels
	pool *par.Pool
	p2p  *sparse.P2PSchedule

	// met is this rank's kernel record on the virtual time axis; only the
	// rank goroutine writes it (the pool's kernel threads never touch it),
	// and Solve merges the shards after the run.
	met *prof.Metrics

	q, res, rp, qp []float64 // NLocal*4
	dt             []float64 // NOwned
	jac            *sparse.BSR
	factor         *sparse.Factor
	gmres          krylov.GMRES
	ops            *distOps // the rank's one Vectors instance (owns the ReduceQueue)

	// per-step cache for the matrix-free operator
	qnorm float64

	// Checkpoint/restart plumbing (nil on fault-free runs): store receives
	// this rank's periodic snapshots; restore, when set by the supervisor,
	// is the snapshot to resume from.
	store   *ckptStore
	restore *rankSnapshot
}

// compute advances the rank's virtual clock by a modeled duration and books
// it to kernel k, so the distributed runs produce the same per-kernel
// breakdown as the shared-memory stepper (on the virtual time axis).
func (w *worker) compute(k prof.Kernel, seconds float64) {
	w.rank.Compute(seconds)
	w.met.Add(k, vdur(seconds))
}

// newWorker builds rank `rank.id`'s solver state over the shared artifact.
// The subdomain, local mesh, Jacobian sparsity, and ILU schedule are the
// artifact's read-only templates; only the value arrays are per-worker
// (structure-shared clones) — at 16384 ranks the index structure would
// otherwise be rebuilt and duplicated per rank per attempt.
func newWorker(rank *Rank, art *Artifact, cfg *Config) (*worker, error) {
	sub := art.Subs[rank.id]
	w := &worker{rank: rank, sub: sub, cfg: cfg, rates: cfg.Rates, met: &prof.Metrics{}}
	w.vecRates = cfg.Rates
	if cfg.VecRates != nil {
		w.vecRates = *cfg.VecRates
	}
	w.qInf = physics.FreeStream(cfg.AlphaDeg)
	nl := sub.NLocal * 4
	w.q = make([]float64, nl)
	w.res = make([]float64, nl)
	w.rp = make([]float64, nl)
	w.qp = make([]float64, nl)
	w.dt = make([]float64, sub.NOwned)
	w.jac = art.jacTmpl[rank.id].CloneStructure()
	w.factor = art.facTmpl[rank.id].CloneStructure()
	w.factor.EnableDedup(cfg.Dedup)
	for v := 0; v < sub.NLocal; v++ {
		copy(w.q[v*4:v*4+4], w.qInf[:])
	}
	w.lm = art.locals[rank.id]
	if err := w.setupKernels(); err != nil {
		return nil, err
	}
	w.ops = newDistOps(w)
	w.gmres = krylov.GMRES{Ops: w.ops}
	return w, nil
}

// setupKernels builds the rank's view of the shared-memory stack: the flux
// kernel set over the artifact's local mesh, and — for hybrid ranks — the
// thread pool, owner-writes partition, and P2P solve schedule.
func (w *worker) setupKernels() error {
	nthreads := w.cfg.ThreadsPerRank
	if nthreads < 1 {
		nthreads = 1
	}
	strat := flux.Sequential
	var part *flux.Partition
	var err error
	if nthreads > 1 {
		// Owner-writes replication: deterministic, no atomics, and
		// bit-identical to the sequential kernel (per-vertex accumulation
		// stays in ascending edge order). METIS-quality splits where the
		// subdomain is big enough; natural blocks otherwise (Multilevel
		// rejects nparts > vertices — tiny subdomains at high rank counts).
		strat = flux.ReplicateMETIS
		if w.sub.NLocal < 4*nthreads {
			strat = flux.ReplicateNatural
		}
		part, err = flux.NewPartition(w.lm, nthreads, strat, w.cfg.Seed+uint64(w.rank.id))
		if err != nil {
			strat = flux.ReplicateNatural
			part, err = flux.NewPartition(w.lm, nthreads, strat, 0)
			if err != nil {
				return err
			}
		}
		if w.p2p, err = sparse.NewP2PSchedule(w.factor.M, nthreads); err != nil {
			return fmt.Errorf("mpisim: rank %d: %w", w.rank.id, err)
		}
		w.pool = par.NewPool(nthreads)
	}
	w.kern = flux.NewKernels(w.lm, w.cfg.Beta, w.qInf, w.pool, part, flux.Config{Strategy: strat})
	return nil
}

// haloBegin posts the full halo exchange of x nonblocking: pack+Isend to
// every peer, then Irecv from every peer. Returns the receive requests for
// haloEnd.
func (w *worker) haloBegin(x []float64) []*Request {
	s := w.sub
	for i, peer := range s.Neighbors {
		idx := s.SendIdx[i]
		if len(idx) == 0 {
			continue
		}
		buf := make([]float64, len(idx)*4)
		for j, l := range idx {
			copy(buf[j*4:j*4+4], x[l*4:l*4+4])
		}
		w.rank.Isend(peer, tagHalo, buf)
	}
	reqs := make([]*Request, len(s.Neighbors))
	for i, peer := range s.Neighbors {
		if len(s.RecvIdx[i]) == 0 {
			continue
		}
		reqs[i] = w.rank.Irecv(peer, tagHalo)
	}
	return reqs
}

// haloEnd completes the receives and scatters ghost values into x. Any
// compute done since haloBegin has already advanced the clock, so Wait
// charges only the uncovered remainder of each transfer.
func (w *worker) haloEnd(x []float64, reqs []*Request) {
	s := w.sub
	for i := range reqs {
		if reqs[i] == nil {
			continue
		}
		buf := w.rank.Wait(reqs[i])
		for j, l := range s.RecvIdx[i] {
			copy(x[l*4:l*4+4], buf[j*4:j*4+4])
		}
	}
}

// exchange refreshes ghost entries of x (length NLocal*4) from the owners,
// blocking (no compute overlapped).
func (w *worker) exchange(x []float64) {
	w.haloEnd(x, w.haloBegin(x))
}

// residualInterior evaluates the ghost-independent part of the residual:
// interior edges (both endpoints owned) and the boundary-node closure. Safe
// to run while a halo exchange of q is in flight.
func (w *worker) residualInterior(q, res []float64) {
	w.kern.ResidualBegin(res)
	w.kern.ResidualEdgeRange(q, nil, nil, res, 0, w.sub.NEdgeInterior)
	w.kern.ResidualBoundary(q, res)
	w.compute(prof.Flux, float64(w.sub.NEdgeInterior)*w.rates.FluxPerEdge)
	w.met.Inc(prof.FluxEdges, int64(w.sub.NEdgeInterior))
}

// residualFinish evaluates the ghost-touching boundary edges; ghosts of q
// must be current. Together with residualInterior this is the full local
// residual, traversed in the same order regardless of overlap.
func (w *worker) residualFinish(q, res []float64) {
	ne := len(w.sub.EV1)
	w.kern.ResidualEdgeRange(q, nil, nil, res, w.sub.NEdgeInterior, ne)
	w.kern.ResidualEnd(res)
	w.compute(prof.Flux, float64(ne-w.sub.NEdgeInterior)*w.rates.FluxPerEdge)
	w.met.Inc(prof.FluxEdges, int64(ne-w.sub.NEdgeInterior))
}

// evalResidual refreshes the ghosts of q and evaluates the full residual.
// With cfg.Overlap the halo is posted nonblocking and interior work hides
// the transfer; otherwise the exchange completes up front. Both paths
// produce bit-identical residuals — only the modeled wait time differs.
// Owned entries of res are meaningful; ghost entries are scratch.
func (w *worker) evalResidual(q, res []float64) {
	if w.cfg.Overlap {
		reqs := w.haloBegin(q)
		w.residualInterior(q, res)
		w.haloEnd(q, reqs)
		w.residualFinish(q, res)
	} else {
		w.exchange(q)
		w.residualInterior(q, res)
		w.residualFinish(q, res)
	}
}

// assembleJacobian fills the owned-rows first-order Jacobian with the
// pseudo-time shift. Hybrid ranks assemble threaded under the owner-writes
// partition: each thread walks its (ascending) edge list and writes only
// rows of vertices it owns, so block rows are touched by exactly one thread
// and per-row accumulation order matches the sequential loop — the
// assembled matrix is bit-identical.
func (w *worker) assembleJacobian(q []float64) {
	s := w.sub
	a := w.jac
	a.Zero()
	if w.pool != nil {
		p := w.kern.Part
		w.pool.Run(func(tid int) {
			w.jacEdgesOwner(q, p.EdgeList[tid], p.Owner, int32(tid))
			w.jacClosureOwner(q, p.Owner, int32(tid))
		})
	} else {
		w.jacEdgesSeq(q)
		w.jacClosureSeq(q)
	}
	for i := 0; i < s.NOwned; i++ {
		blas4.AddDiag(a.Block(a.Diag[i]), s.Vol[i]/w.dt[i])
	}
	w.compute(prof.Jacobian, float64(len(s.EV1))*w.rates.JacPerEdge)
	w.met.Inc(prof.JacEdges, int64(len(s.EV1)))
}

// jacEdgesSeq is the sequential edge-loop of the Jacobian assembly.
func (w *worker) jacEdgesSeq(q []float64) {
	s := w.sub
	a := w.jac
	beta := w.cfg.Beta
	var dL, dR [16]float64
	for e := range s.EV1 {
		va, vb := s.EV1[e], s.EV2[e]
		n := geom.Vec3{X: s.ENX[e], Y: s.ENY[e], Z: s.ENZ[e]}
		var qa, qb physics.State
		copy(qa[:], q[va*4:va*4+4])
		copy(qb[:], q[vb*4:vb*4+4])
		physics.RoeFluxJacobians(qa, qb, n, beta, &dL, &dR)
		aOwned := int(va) < s.NOwned
		bOwned := int(vb) < s.NOwned
		if aOwned {
			addTo(a, va, va, &dL, 1)
			if bOwned {
				addTo(a, va, vb, &dR, 1)
			}
		}
		if bOwned {
			addTo(a, vb, vb, &dR, -1)
			if aOwned {
				addTo(a, vb, va, &dL, -1)
			}
		}
	}
}

// jacEdgesOwner is the owner-writes edge loop: thread `tid` walks its edge
// list (cut edges recompute the two flux Jacobians redundantly, as in the
// flux kernel) and adds only into rows it owns. The owned-rows Schwarz
// gating (< NOwned) composes with the thread gating.
func (w *worker) jacEdgesOwner(q []float64, list []int32, owner []int32, tid int32) {
	s := w.sub
	a := w.jac
	beta := w.cfg.Beta
	var dL, dR [16]float64
	for _, e := range list {
		va, vb := s.EV1[e], s.EV2[e]
		n := geom.Vec3{X: s.ENX[e], Y: s.ENY[e], Z: s.ENZ[e]}
		var qa, qb physics.State
		copy(qa[:], q[va*4:va*4+4])
		copy(qb[:], q[vb*4:vb*4+4])
		physics.RoeFluxJacobians(qa, qb, n, beta, &dL, &dR)
		if owner[va] == tid && int(va) < s.NOwned {
			addTo(a, va, va, &dL, 1)
			if int(vb) < s.NOwned {
				addTo(a, va, vb, &dR, 1)
			}
		}
		if owner[vb] == tid && int(vb) < s.NOwned {
			addTo(a, vb, vb, &dR, -1)
			if int(va) < s.NOwned {
				addTo(a, vb, va, &dL, -1)
			}
		}
	}
}

// jacClosureSeq adds the boundary-node Jacobian contributions sequentially.
func (w *worker) jacClosureSeq(q []float64) {
	a := w.jac
	beta := w.cfg.Beta
	var d [16]float64
	for _, bn := range w.sub.BNodes {
		switch bn.Kind {
		case mesh.PatchWall, mesh.PatchSymmetry:
			physics.WallFluxJacobian(bn.Normal, &d)
		default:
			var qv physics.State
			copy(qv[:], q[int(bn.V)*4:int(bn.V)*4+4])
			physics.FarfieldFluxJacobian(qv, w.qInf, bn.Normal, beta, &d)
		}
		addTo(a, bn.V, bn.V, &d, 1)
	}
}

// jacClosureOwner is the owner-filtered boundary-node loop for hybrid
// ranks (BNodes reference owned vertices only).
func (w *worker) jacClosureOwner(q []float64, owner []int32, tid int32) {
	a := w.jac
	beta := w.cfg.Beta
	var d [16]float64
	for _, bn := range w.sub.BNodes {
		if owner[bn.V] != tid {
			continue
		}
		switch bn.Kind {
		case mesh.PatchWall, mesh.PatchSymmetry:
			physics.WallFluxJacobian(bn.Normal, &d)
		default:
			var qv physics.State
			copy(qv[:], q[int(bn.V)*4:int(bn.V)*4+4])
			physics.FarfieldFluxJacobian(qv, w.qInf, bn.Normal, beta, &d)
		}
		addTo(a, bn.V, bn.V, &d, 1)
	}
}

func addTo(a *sparse.BSR, i, j int32, blk *[16]float64, sign float64) {
	slot := a.BlockAt(i, j)
	dst := a.Block(slot)
	for t := 0; t < 16; t++ {
		dst[t] += sign * blk[t]
	}
}

// localTimeSteps fills w.dt for owned vertices.
func (w *worker) localTimeSteps(q []float64, cfl float64) {
	s := w.sub
	lam := make([]float64, s.NOwned)
	beta := w.cfg.Beta
	for e := range s.EV1 {
		a, b := s.EV1[e], s.EV2[e]
		n := geom.Vec3{X: s.ENX[e], Y: s.ENY[e], Z: s.ENZ[e]}
		area := n.Norm()
		if int(a) < s.NOwned {
			var qa physics.State
			copy(qa[:], q[a*4:a*4+4])
			lam[a] += physics.SpectralRadius(qa, n, beta) * area
		}
		if int(b) < s.NOwned {
			var qb physics.State
			copy(qb[:], q[b*4:b*4+4])
			lam[b] += physics.SpectralRadius(qb, n, beta) * area
		}
	}
	for v := 0; v < s.NOwned; v++ {
		if lam[v] == 0 {
			lam[v] = math.Sqrt(beta)
		}
		w.dt[v] = cfl * s.Vol[v] / lam[v]
	}
	w.compute(prof.Other, float64(len(s.EV1))*w.vecRates.VecPerElem)
}

// run executes the pseudo-transient NKS loop and returns this rank's view.
func (w *worker) run() (rr rankResult) {
	defer func() {
		if p := recover(); p != nil {
			switch e := p.(type) {
			case *CrashError:
				// Injected fault: the supervisor recovers this attempt
				// from the last checkpoint.
				rr.err = e
			case error:
				if e == errAborted {
					rr.err = e
				} else {
					rr.err = fmt.Errorf("mpisim worker panic: %v", p)
				}
			default:
				rr.err = fmt.Errorf("mpisim worker panic: %v", p)
			}
		}
		// A failing rank aborts the communicator so peers blocked on
		// receives or collectives error out instead of deadlocking
		// (MPI_Abort semantics). Harmless when the error was reached
		// collectively — nobody is left waiting.
		if rr.err != nil && rr.err != errAborted {
			w.rank.comm.Abort()
		}
	}()
	cfg := w.cfg
	s := w.sub
	nOwn := s.NOwned * 4
	ops := w.ops

	startStep := 0
	var rnorm float64
	if w.restore != nil {
		// Resume from the snapshot: restore the state vector (owned +
		// ghosts) and the trajectory counters, then rebuild the residual —
		// bit-identical to the value the uncrashed run held at this step,
		// so the continuation reproduces the fault-free trajectory exactly.
		copy(w.q, w.restore.q)
		startStep = w.restore.step
		rr.steps = w.restore.step
		rr.linIters = w.restore.linIters
		rr.rnorm0 = w.restore.rnorm0
		rr.history = append([]float64(nil), w.restore.history...)
		rnorm = w.restore.rnorm
		rr.rnorm = rnorm
		w.evalResidual(w.q, w.res)
	} else {
		w.evalResidual(w.q, w.res)
		rnorm = ops.Norm2(w.res[:nOwn])
		rr.rnorm0 = rnorm
		rr.rnorm = rnorm
		if rnorm <= 1e-14 {
			rr.converged = true
			return rr
		}
	}

	op := &distOp{w: w, ops: ops}
	pre := &distPre{w: w}
	rhs := make([]float64, nOwn)
	dq := make([]float64, nOwn)

	for step := startStep + 1; step <= cfg.MaxSteps; step++ {
		cfl := cfg.CFL0 * rr.rnorm0 / rnorm
		if cfl > 1e7 {
			cfl = 1e7
		}
		w.localTimeSteps(w.q, cfl)
		w.assembleJacobian(w.q)
		errFlag := 0.0
		ferr := w.factorize()
		w.compute(prof.ILU, float64(w.factor.M.NNZBlocks())*w.rates.ILUPerBlock)
		w.met.Inc(prof.ILUBlocks, int64(w.factor.M.NNZBlocks()))
		w.met.Inc(prof.ILURows, int64(w.factor.M.N))
		if ferr != nil {
			errFlag = 1
		}
		if g := ops.w.rank.Allreduce([]float64{errFlag}); g[0] != 0 {
			rr.err = fmt.Errorf("step %d: ILU factorization failed on some rank (%v)", step, ferr)
			return rr
		}

		for i := 0; i < nOwn; i++ {
			rhs[i] = -w.res[i]
			dq[i] = 0
		}
		w.qnorm = ops.Norm2(w.q[:nOwn])
		// The Krylov-collective window: reductions issued inside Solve are
		// booked into KrylovAllreduceCalls/Bytes — the per-iteration gate.
		ops.inSolve = true
		lres, lerr := w.gmres.Solve(op, pre, rhs, dq, krylov.Options{
			Restart:    cfg.Restart,
			MaxIters:   cfg.MaxLinearIters,
			RelTol:     cfg.LinearRelTol,
			FusedNorms: cfg.FusedNorms,
			Pipelined:  cfg.Pipelined,
			ZeroGuess:  true, // dq starts at zero; skips a matvec + its hidden norm collective
		})
		ops.inSolve = false
		if lerr != nil {
			rr.err = fmt.Errorf("step %d: %w", step, lerr)
			return rr
		}
		rr.linIters += lres.Iterations

		for i := 0; i < nOwn; i++ {
			w.q[i] += dq[i]
		}
		w.compute(prof.VecOps, float64(nOwn)*w.vecRates.VecPerElem)
		w.met.Inc(prof.VecElems, int64(nOwn))
		w.evalResidual(w.q, w.res)
		rnorm = ops.Norm2(w.res[:nOwn])
		rr.rnorm = rnorm
		rr.history = append(rr.history, rnorm)
		rr.steps = step
		if math.IsNaN(rnorm) || rnorm > 1e8*rr.rnorm0 {
			rr.err = fmt.Errorf("diverged at step %d: ||R||=%g", step, rnorm)
			return rr
		}
		if rnorm <= cfg.RelTol*rr.rnorm0 {
			rr.converged = true
			return rr
		}
		if w.store != nil && step%cfg.CheckpointEvery == 0 {
			// Distributed checkpoint. Consistency needs no extra
			// collective: the end-of-step residual norm above was this
			// step's last rendezvous, injected crashes fire only at
			// Compute/Wait/Allreduce *entry*, a completed collective is
			// observed by every participant even under a concurrent
			// abort, and nothing between that collective and this write
			// touches the communicator — so either every rank passed the
			// collective and snapshots step `step`, or no rank does. The
			// rank clocks are synchronized by that collective, making
			// stats.Clock identical across ranks.
			met := &prof.Metrics{}
			met.Merge(w.met)
			stats := *w.rank
			stats.comm, stats.fp = nil, nil
			w.store.save(w.rank.id, &rankSnapshot{
				step:     step,
				q:        append([]float64(nil), w.q...),
				rnorm0:   rr.rnorm0,
				rnorm:    rnorm,
				history:  append([]float64(nil), rr.history...),
				linIters: rr.linIters,
				stats:    stats,
				met:      met,
			})
		}
	}
	return rr
}

// distOp is the matrix-free Jacobian operator over owned dofs.
type distOp struct {
	w   *worker
	ops *distOps
}

// Apply computes y = (V/Δt) v + (R(q+hv) − R(q))/h with a fresh halo
// exchange of the perturbed state — one point-to-point round per matvec,
// as in a real distributed JFNK. The Norm2 here is the hidden collective
// that pipelined GMRES eliminates via ApplyWithNorm.
func (o *distOp) Apply(v, y []float64) {
	o.ApplyWithNorm(v, y, o.ops.Norm2(v))
}

// ApplyWithNorm is Apply with ||v|| supplied by the caller
// (krylov.NormedOperator): the pipelined solver tracks the exact norm via
// its lag-normalization recurrence, so the matvec issues no collective.
func (o *distOp) ApplyWithNorm(v, y []float64, vnorm float64) {
	w := o.w
	s := w.sub
	nOwn := s.NOwned * 4
	if vnorm == 0 {
		for i := range y {
			y[i] = 0
		}
		return
	}
	h := math.Sqrt(2.2e-16) * (1 + w.qnorm) / vnorm
	copy(w.qp, w.q)
	for i := 0; i < nOwn; i++ {
		w.qp[i] += h * v[i]
	}
	w.compute(prof.VecOps, float64(nOwn)*w.vecRates.VecPerElem)
	w.met.Inc(prof.VecElems, int64(nOwn))
	w.evalResidual(w.qp, w.rp)
	invH := 1 / h
	for vtx := 0; vtx < s.NOwned; vtx++ {
		shift := s.Vol[vtx] / w.dt[vtx]
		for c := 0; c < 4; c++ {
			i := vtx*4 + c
			y[i] = shift*v[i] + (w.rp[i]-w.res[i])*invH
		}
	}
	w.compute(prof.VecOps, float64(nOwn)*w.vecRates.VecPerElem)
	w.met.Inc(prof.VecElems, int64(nOwn))
}

// factorize runs the rank-local block ILU: P2P-scheduled across the pool
// on hybrid ranks (bit-identical to the sequential elimination), serial
// otherwise.
func (w *worker) factorize() error {
	if w.pool != nil {
		return w.factor.FactorizeILUP2P(w.pool, w.p2p, w.jac)
	}
	return w.factor.FactorizeILU(w.jac)
}

// distPre is the rank-local ILU solve (block-Jacobi Schwarz). Hybrid ranks
// run the P2P-scheduled triangular solves (Park et al.'s sparsified
// point-to-point waits) on the rank's pool.
type distPre struct {
	w *worker
}

// Apply implements krylov.Preconditioner over owned dofs.
func (p *distPre) Apply(r, z []float64) {
	w := p.w
	if w.pool != nil {
		w.factor.SolveP2P(w.pool, w.p2p, r, z)
	} else {
		w.factor.Solve(r, z)
	}
	w.compute(prof.TRSV, float64(w.factor.M.NNZBlocks())*w.rates.TRSVPerBlock)
	w.met.Inc(prof.TRSVBlocks, int64(w.factor.M.NNZBlocks()))
}
