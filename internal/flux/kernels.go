package flux

import (
	"math"
	"sort"

	"fun3d/internal/geom"
	"fun3d/internal/mesh"
	"fun3d/internal/par"
	"fun3d/internal/physics"
)

// Config selects the code variant for the edge kernels, mirroring the
// optimization ladder of Fig 6a.
type Config struct {
	Strategy Strategy
	// SoANodeData reads vertex state from field planes (q[d*nv+v], the
	// baseline layout) instead of interlaced AoS (q[v*4+d], the paper's
	// optimized layout). Supported by the residual kernel.
	SoANodeData bool
	// SIMD enables edge batching: fluxes for W=4 edges are computed into a
	// dependency-free temporary buffer, then written out separately — the
	// paper's vectorization restructuring.
	SIMD bool
	// Prefetch enables software lookahead touches of the vertex data of
	// edges PFDist ahead.
	Prefetch bool
	// PFDist is the prefetch lookahead distance in edges; <= 0 selects
	// DefaultPFDist. Only meaningful with Prefetch.
	PFDist int
	// TileEdges is the edge-span size of the fused residual pipeline's
	// cache blocking (ResidualFused); <= 0 selects tile.DefaultEdgesPerTile.
	TileEdges int
	// Staged enables the hierarchical staged residual pipeline
	// (ResidualStaged): LLC outer spans subdivided into L2 inner tiles whose
	// cover vertices are gathered into dense tile-local SoA staging buffers,
	// swept entirely on staged data, and scattered back once per tile.
	Staged bool
	// InnerTileEdges is the inner (L2) tile size of the staged pipeline's
	// two-level hierarchy; <= 0 selects tile.DefaultInnerEdgesPerTile. Only
	// meaningful with Staged.
	InnerTileEdges int
}

// W is the SIMD batch width (the paper's AVX 4-wide double).
const W = 4

// DefaultPFDist is the default prefetch lookahead distance in edges.
const DefaultPFDist = 16

// pfDist returns the configured prefetch lookahead distance.
func (k *Kernels) pfDist() int {
	if k.Cfg.PFDist > 0 {
		return k.Cfg.PFDist
	}
	return DefaultPFDist
}

// Kernels bundles a mesh, flow parameters, a thread pool and a partition,
// and exposes the edge-based kernels. Scratch buffers are owned by the
// struct so steady-state calls do not allocate.
type Kernels struct {
	M    *mesh.Mesh
	Beta float64
	QInf physics.State
	Pool *par.Pool
	Part *Partition
	Cfg  Config

	atomicRes *par.Float64Slice // scratch for the Atomic strategy
	edgeSlots [][4]int32        // per-edge BSR slots for Jacobian assembly
	sink      []float64         // defeats dead-code elimination of prefetch touches

	// Fused-pipeline state (fused.go): the read-only tiling + owned-cover
	// CSRs (shared across kernels via SetCover, or built lazily and owned
	// privately) and the per-solve gradient/limiter scratch the fused sweep
	// fills tile-by-tile.
	cover       *Cover
	sharedCover bool // cover was injected; never rebuilt or mutated
	fusedGrad   []float64
	fusedPhi    []float64

	// Staged-pipeline state (staged.go): per-worker dense staging buffers,
	// the per-outer-span edge-flux buffer the phase-B scatter reads, and the
	// SIMD batch counter (updated with atomic.AddInt64) the staged
	// conformance tests observe.
	stagedWS      []stagedWS
	stagedF       []float64
	stagedBatches int64

	// Operands of the in-flight owner-writes residual sweep, read by
	// repEdgeBody and repBoundaryBody. The pool hands its body to the
	// workers through a channel, so a per-call closure would escape to the
	// heap; the bodies are bound once in NewKernels instead and a
	// steady-state Residual allocates nothing.
	rep                          repArgs
	repEdgeBody, repBoundaryBody func(tid int)
}

type repArgs struct {
	q, grad, phi, res []float64
	lo, hi            int
}

// NewKernels constructs the kernel set. pool may be nil only for
// Sequential.
func NewKernels(m *mesh.Mesh, beta float64, qInf physics.State, pool *par.Pool, part *Partition, cfg Config) *Kernels {
	nw := 1
	if pool != nil {
		nw = pool.Size()
	}
	k := &Kernels{
		M: m, Beta: beta, QInf: qInf, Pool: pool, Part: part, Cfg: cfg,
		sink: make([]float64, nw*8), // padded
	}
	k.repEdgeBody, k.repBoundaryBody = k.repEdgeThread, k.repBoundaryThread
	return k
}

// PoisonScratch NaN-fills the per-solve fused-pipeline scratch (the shared
// cover and tiling are untouched — they are read-only). Solver instance
// pools poison recycled kernels so a sweep that read stale scratch would
// surface as NaN; every fused sweep fully rewrites its scratch tile before
// reading it, so a poisoned kernel solves correctly.
func (k *Kernels) PoisonScratch() {
	nan := math.NaN()
	for i := range k.fusedGrad {
		k.fusedGrad[i] = nan
	}
	for i := range k.fusedPhi {
		k.fusedPhi[i] = nan
	}
	for w := range k.stagedWS {
		k.stagedWS[w].poison(nan)
	}
	for i := range k.stagedF {
		k.stagedF[i] = nan
	}
}

// stateAt loads vertex v's state from AoS storage.
func stateAt(q []float64, v int32) physics.State {
	i := int(v) * 4
	return physics.State{q[i], q[i+1], q[i+2], q[i+3]}
}

// stateAtSoA loads vertex v's state from plane (SoA) storage.
func stateAtSoA(q []float64, nv int, v int32) physics.State {
	return physics.State{q[v], q[int(v)+nv], q[int(v)+2*nv], q[int(v)+3*nv]}
}

// reconstruct applies the second-order MUSCL extrapolation toward the edge
// midpoint: q + φ ⊙ (g · dx). grad layout is [v*12 + comp*3 + dim]; phi may
// be nil (unlimited).
func reconstruct(qv physics.State, grad, phi []float64, v int32, dx geom.Vec3) physics.State {
	g := grad[int(v)*12 : int(v)*12+12]
	var out physics.State
	for c := 0; c < 4; c++ {
		d := g[c*3]*dx.X + g[c*3+1]*dx.Y + g[c*3+2]*dx.Z
		if phi != nil {
			d *= phi[int(v)*4+c]
		}
		out[c] = qv[c] + d
	}
	return out
}

// loadState reads vertex v's state honoring the configured node layout.
func (k *Kernels) loadState(q []float64, v int32) physics.State {
	if k.Cfg.SoANodeData {
		return stateAtSoA(q, k.M.NumVertices(), v)
	}
	return stateAt(q, v)
}

// touch returns a lightweight load address component for the prefetch
// lookahead under the configured layout. AoS keeps a vertex's 4-tuple on
// one cache line, so a single load warms it; the SoA planes live nv apart,
// so all four must be touched or the lookahead warms only a quarter of the
// state the upcoming edge will read (and the layout comparison of Fig 6a
// would flatter the baseline).
func (k *Kernels) touch(q []float64, v int32) float64 {
	if k.Cfg.SoANodeData {
		nv := k.M.NumVertices()
		i := int(v)
		return q[i] + q[i+nv] + q[i+2*nv] + q[i+3*nv]
	}
	return q[v*4]
}

// edgeStates returns the left/right states of edge e, second-order if grad
// is non-nil.
func (k *Kernels) edgeStates(q, grad, phi []float64, e int32) (qa, qb physics.State, a, b int32, n geom.Vec3) {
	m := k.M
	a, b = m.EV1[e], m.EV2[e]
	n = geom.Vec3{X: m.ENX[e], Y: m.ENY[e], Z: m.ENZ[e]}
	qa = k.loadState(q, a)
	qb = k.loadState(q, b)
	if grad != nil {
		mid := geom.Mid(m.Coords[a], m.Coords[b])
		qa = reconstruct(qa, grad, phi, a, mid.Sub(m.Coords[a]))
		qb = reconstruct(qb, grad, phi, b, mid.Sub(m.Coords[b]))
	}
	return
}

// Residual computes res = R(q): the flux balance of every control volume
// (interior edge fluxes plus boundary fluxes). q and res are AoS nv*4
// vectors unless Cfg.SoANodeData (then q is plane-layout and grad must be
// nil; res stays AoS). grad enables second-order reconstruction, phi an
// optional limiter field.
//
// Residual is the one-shot composition of the split API below; callers that
// want to interleave other work (a halo exchange in flight) between edge
// sets use Begin / EdgeRange / Boundary / End directly.
func (k *Kernels) Residual(q, grad, phi, res []float64) {
	k.ResidualBegin(res)
	k.ResidualEdgeRange(q, grad, phi, res, 0, k.M.NumEdges())
	k.ResidualBoundary(q, res)
	k.ResidualEnd(res)
}

// ResidualBegin starts a split residual evaluation: it zeroes the
// accumulators. Follow with any sequence of ResidualEdgeRange calls whose
// half-open ranges tile [0, NumEdges) in ascending order, a
// ResidualBoundary, and a final ResidualEnd. Sequential and Replicate
// process each sub-range in the same per-vertex order they would inside a
// full-range call, so their split evaluation is bit-identical to Residual;
// Colored traverses color-major, so a split reorders across colors
// (deterministic, but only equal to within rounding).
func (k *Kernels) ResidualBegin(res []float64) {
	for i := range res {
		res[i] = 0
	}
	if k.Cfg.Strategy == Atomic {
		n4 := k.M.NumVertices() * 4
		if k.atomicRes == nil || k.atomicRes.Len() != n4 {
			k.atomicRes = par.NewFloat64Slice(n4)
		}
		k.atomicRes.Zero()
	}
}

// ResidualEdgeRange accumulates the fluxes of edges [lo,hi) into the
// residual, using the configured strategy. For list-driven strategies
// (Replicate, Colored) the per-thread lists are ascending by edge id, so
// the sub-list for [lo,hi) is found by binary search and processed in the
// same order as within a full-range call.
func (k *Kernels) ResidualEdgeRange(q, grad, phi, res []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	switch k.Cfg.Strategy {
	case Sequential:
		if k.Cfg.SIMD {
			k.resEdgesSIMDRange(q, grad, phi, res, lo, hi, 0)
		} else {
			k.resEdgesRange(q, grad, phi, res, lo, hi, k.Cfg.Prefetch, 0)
		}
	case Atomic:
		bits := k.atomicRes
		k.Pool.ParallelFor(hi-lo, func(tid, clo, chi int) {
			for e := lo + clo; e < lo+chi; e++ {
				qa, qb, a, b, nrm := k.edgeStates(q, grad, phi, int32(e))
				f := physics.RoeFlux(qa, qb, nrm, k.Beta)
				for c := 0; c < 4; c++ {
					bits.Add(int(a)*4+c, f[c])
					bits.Add(int(b)*4+c, -f[c])
				}
			}
		})
	case ReplicateNatural, ReplicateMETIS:
		k.rep = repArgs{q: q, grad: grad, phi: phi, res: res, lo: lo, hi: hi}
		k.Pool.Run(k.repEdgeBody)
		k.rep = repArgs{}
	case Colored:
		col := k.Part.Coloring
		for c := 0; c < col.NumColors(); c++ {
			edges := edgeSubRange(col.Color(c), lo, hi)
			k.Pool.ParallelFor(len(edges), func(_, clo, chi int) {
				for i := clo; i < chi; i++ {
					qa, qb, a, b, n := k.edgeStates(q, grad, phi, edges[i])
					f := physics.RoeFlux(qa, qb, n, k.Beta)
					ra := res[a*4 : a*4+4]
					rb := res[b*4 : b*4+4]
					for cc := 0; cc < 4; cc++ {
						ra[cc] += f[cc]
						rb[cc] -= f[cc]
					}
				}
			})
		}
	}
}

// ResidualBoundary accumulates the boundary-node closure fluxes. BNodes
// reference owned vertices only, so it never reads halo data and may run
// while an exchange is in flight.
func (k *Kernels) ResidualBoundary(q, res []float64) {
	switch k.Cfg.Strategy {
	case Sequential:
		k.boundarySeq(q, res)
	case Atomic:
		bits := k.atomicRes
		bn := k.M.BNodes
		k.Pool.ParallelFor(len(bn), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				f, v := k.boundaryFlux(q, bn[i])
				for c := 0; c < 4; c++ {
					bits.Add(int(v)*4+c, f[c])
				}
			}
		})
	case ReplicateNatural, ReplicateMETIS:
		k.rep = repArgs{q: q, res: res}
		k.Pool.Run(k.repBoundaryBody)
		k.rep = repArgs{}
	case Colored:
		k.boundaryAligned(q, res)
	}
}

// repEdgeThread is thread tid's share of an owner-writes edge sweep over
// k.rep: its edges in [lo, hi).
func (k *Kernels) repEdgeThread(tid int) {
	r, p := &k.rep, k.Part
	list := edgeSubRange(p.EdgeList[tid], r.lo, r.hi)
	if k.Cfg.SIMD {
		k.repEdgesSIMD(r.q, r.grad, r.phi, r.res, list, p.Owner, int32(tid))
	} else {
		k.repEdges(r.q, r.grad, r.phi, r.res, list, p.Owner, int32(tid), k.Cfg.Prefetch, tid)
	}
}

// repBoundaryThread is thread tid's share of the owner-writes boundary
// closure over k.rep: the boundary nodes of the vertices it owns.
func (k *Kernels) repBoundaryThread(tid int) {
	q, res, owner := k.rep.q, k.rep.res, k.Part.Owner
	for _, bn := range k.M.BNodes {
		if owner[bn.V] != int32(tid) {
			continue
		}
		f, v := k.boundaryFlux(q, bn)
		for c := 0; c < 4; c++ {
			res[int(v)*4+c] += f[c]
		}
	}
}

// ResidualEnd finishes a split evaluation (for Atomic it publishes the
// atomic accumulators into res; a no-op for the other strategies).
func (k *Kernels) ResidualEnd(res []float64) {
	if k.Cfg.Strategy == Atomic {
		k.atomicRes.CopyTo(res)
	}
}

// edgeSubRange returns the sub-slice of an ascending edge-id list whose
// ids fall in [lo,hi). Thread edge lists and color buckets are built in
// ascending edge order, so two binary searches suffice and the relative
// order — hence the floating-point accumulation order — is preserved.
func edgeSubRange(list []int32, lo, hi int) []int32 {
	a := sort.Search(len(list), func(i int) bool { return int(list[i]) >= lo })
	b := sort.Search(len(list), func(i int) bool { return int(list[i]) >= hi })
	return list[a:b]
}

// resEdgesRange processes edges [lo,hi) writing both endpoints (plain
// writes — caller guarantees exclusivity), with optional prefetch.
func (k *Kernels) resEdgesRange(q, grad, phi, res []float64, lo, hi int, prefetch bool, tid int) {
	m := k.M
	sink := 0.0
	pf := k.pfDist()
	for e := lo; e < hi; e++ {
		if prefetch && e+pf < hi {
			sink += k.touch(q, m.EV1[e+pf]) + k.touch(q, m.EV2[e+pf])
		}
		qa, qb, a, b, n := k.edgeStates(q, grad, phi, int32(e))
		f := physics.RoeFlux(qa, qb, n, k.Beta)
		ra := res[a*4 : a*4+4]
		rb := res[b*4 : b*4+4]
		for c := 0; c < 4; c++ {
			ra[c] += f[c]
			rb[c] -= f[c]
		}
	}
	k.sink[tid*8] += sink
}

// resEdgesSIMDRange processes [lo,hi) in W-wide batches: a compute phase
// filling a flux buffer, then a scalar write-out phase (both endpoints).
// slot is the caller's sink slot, forwarded to the scalar tail so the
// remainder edges accumulate into the same padded lane as the batches —
// never a hard-coded slot another thread could share.
func (k *Kernels) resEdgesSIMDRange(q, grad, phi, res []float64, lo, hi, slot int) {
	var fbuf [W]physics.State
	var av, bv [W]int32
	e := lo
	for ; e+W <= hi; e += W {
		for l := 0; l < W; l++ {
			qa, qb, a, b, n := k.edgeStates(q, grad, phi, int32(e+l))
			fbuf[l] = physics.RoeFlux(qa, qb, n, k.Beta)
			av[l], bv[l] = a, b
		}
		for l := 0; l < W; l++ {
			ra := res[av[l]*4 : av[l]*4+4]
			rb := res[bv[l]*4 : bv[l]*4+4]
			f := &fbuf[l]
			for c := 0; c < 4; c++ {
				ra[c] += f[c]
				rb[c] -= f[c]
			}
		}
	}
	k.resEdgesRange(q, grad, phi, res, e, hi, false, slot)
}

// repEdges is the owner-only-writes edge loop over an explicit edge list.
func (k *Kernels) repEdges(q, grad, phi, res []float64, list []int32, owner []int32, tid int32, prefetch bool, slot int) {
	sink := 0.0
	pf := k.pfDist()
	for idx, e := range list {
		if prefetch && idx+pf < len(list) {
			e2 := list[idx+pf]
			sink += k.touch(q, k.M.EV1[e2]) + k.touch(q, k.M.EV2[e2])
		}
		qa, qb, a, b, n := k.edgeStates(q, grad, phi, e)
		f := physics.RoeFlux(qa, qb, n, k.Beta)
		if owner[a] == tid {
			ra := res[a*4 : a*4+4]
			for c := 0; c < 4; c++ {
				ra[c] += f[c]
			}
		}
		if owner[b] == tid {
			rb := res[b*4 : b*4+4]
			for c := 0; c < 4; c++ {
				rb[c] -= f[c]
			}
		}
	}
	k.sink[slot*8] += sink
}

func (k *Kernels) repEdgesSIMD(q, grad, phi, res []float64, list []int32, owner []int32, tid int32) {
	var fbuf [W]physics.State
	var av, bv [W]int32
	i := 0
	sink := 0.0
	pf := k.pfDist()
	for ; i+W <= len(list); i += W {
		for l := 0; l < W; l++ {
			if k.Cfg.Prefetch && i+l+pf < len(list) {
				e2 := list[i+l+pf]
				sink += k.touch(q, k.M.EV1[e2]) + k.touch(q, k.M.EV2[e2])
			}
			qa, qb, a, b, n := k.edgeStates(q, grad, phi, list[i+l])
			fbuf[l] = physics.RoeFlux(qa, qb, n, k.Beta)
			av[l], bv[l] = a, b
		}
		for l := 0; l < W; l++ {
			f := &fbuf[l]
			if owner[av[l]] == tid {
				ra := res[av[l]*4 : av[l]*4+4]
				for c := 0; c < 4; c++ {
					ra[c] += f[c]
				}
			}
			if owner[bv[l]] == tid {
				rb := res[bv[l]*4 : bv[l]*4+4]
				for c := 0; c < 4; c++ {
					rb[c] -= f[c]
				}
			}
		}
	}
	k.sink[int(tid)*8] += sink
	k.repEdges(q, grad, phi, res, list[i:], owner, tid, false, int(tid))
}

// boundaryFlux evaluates one boundary node's flux.
func (k *Kernels) boundaryFlux(q []float64, bn mesh.BNode) (physics.State, int32) {
	qv := k.loadState(q, bn.V)
	switch bn.Kind {
	case mesh.PatchWall, mesh.PatchSymmetry:
		return physics.WallFlux(qv, bn.Normal), bn.V
	default:
		return physics.FarfieldFlux(qv, k.QInf, bn.Normal, k.Beta), bn.V
	}
}

func (k *Kernels) boundarySeq(q, res []float64) {
	for _, bn := range k.M.BNodes {
		f, v := k.boundaryFlux(q, bn)
		for c := 0; c < 4; c++ {
			res[int(v)*4+c] += f[c]
		}
	}
}

// boundaryAligned splits BNodes into chunks that never split entries of the
// same vertex (BNodes are sorted by vertex).
func (k *Kernels) boundaryAligned(q, res []float64) {
	bn := k.M.BNodes
	k.Pool.ParallelFor(len(bn), func(_, lo, hi int) {
		// Shift chunk boundaries forward past same-vertex runs.
		for lo > 0 && lo < len(bn) && bn[lo].V == bn[lo-1].V {
			lo++
		}
		for hi < len(bn) && hi > 0 && bn[hi].V == bn[hi-1].V {
			hi++
		}
		for i := lo; i < hi; i++ {
			f, v := k.boundaryFlux(q, bn[i])
			for c := 0; c < 4; c++ {
				res[int(v)*4+c] += f[c]
			}
		}
	})
}

// ResidualBytes estimates the memory traffic of one Residual evaluation —
// the numerator of a Fig-7b-style achieved-bandwidth estimate. Per edge:
// endpoint ids (8B), normal (24B), two 4-tuple state reads (64B), two
// residual read-modify-writes (128B). Second order adds two 12-entry
// gradient reads (192B); the limiter two 4-entry phi reads (64B).
func (k *Kernels) ResidualBytes(secondOrder, limiter bool) int64 {
	per := int64(8 + 24 + 64 + 128)
	if secondOrder {
		per += 192
		if limiter {
			per += 64
		}
	}
	return per * int64(k.M.NumEdges())
}

// GradientBytes estimates one Gradient evaluation: per edge two state reads
// (64B) plus two 12-entry gradient read-modify-writes (384B) and geometry
// (32B).
func (k *Kernels) GradientBytes() int64 {
	return int64(64+384+32) * int64(k.M.NumEdges())
}

// JacobianBytes estimates one Jacobian assembly: per edge two state reads
// (64B), geometry (32B), and four 4x4 block read-modify-writes (1024B).
func (k *Kernels) JacobianBytes() int64 {
	return int64(64+32+1024) * int64(k.M.NumEdges())
}

// AoSToSoA converts an AoS state vector to plane layout (for the baseline
// data-layout benchmarks).
func AoSToSoA(q []float64, nv int) []float64 {
	out := make([]float64, len(q))
	for v := 0; v < nv; v++ {
		for c := 0; c < 4; c++ {
			out[c*nv+v] = q[v*4+c]
		}
	}
	return out
}

// SoAToAoS converts back.
func SoAToAoS(q []float64, nv int) []float64 {
	out := make([]float64, len(q))
	for v := 0; v < nv; v++ {
		for c := 0; c < 4; c++ {
			out[v*4+c] = q[c*nv+v]
		}
	}
	return out
}
