// Package precond implements the additive-Schwarz preconditioner of the
// NKS solver: the global Jacobian's rows are divided into subdomains; each
// subdomain solves approximately with its own block-ILU factorization of
// the Jacobian restricted to the subdomain (zero overlap — block Jacobi —
// matching the paper's per-rank ILU). With one subdomain this degenerates
// to a global ILU whose factorization/solve can be threaded with level
// scheduling or P2P sparsification — exactly the paper's single-node
// configuration.
package precond

import (
	"fmt"

	"fun3d/internal/par"
	"fun3d/internal/sparse"
)

// Scheduling selects how the recurrences are parallelized.
type Scheduling int

const (
	// SchedSequential runs factorization and solves on one thread.
	SchedSequential Scheduling = iota
	// SchedLevel uses barrier-synchronized level scheduling.
	SchedLevel
	// SchedP2P uses sparsified point-to-point synchronization.
	SchedP2P
)

func (s Scheduling) String() string {
	switch s {
	case SchedSequential:
		return "sequential"
	case SchedLevel:
		return "level"
	case SchedP2P:
		return "p2p"
	}
	return fmt.Sprintf("Scheduling(%d)", int(s))
}

// Options configures the preconditioner.
type Options struct {
	// Subdomains is the number of Schwarz blocks (default 1).
	Subdomains int
	// FillLevel is the ILU(k) fill level; the zero value is ILU(0). The
	// paper's default configuration, ILU(1), is selected by the callers
	// that model it (core.BaselineConfig / cmd/fun3d's -fill default),
	// not here.
	FillLevel int
	// Sched is the recurrence parallelization (within subdomains).
	Sched Scheduling
	// Dedup content-deduplicates the factor and source value stores after
	// each factorization: repeated 4x4 blocks are stored once and the
	// triangular solves read them through a per-slot index, batching runs
	// of slots that share a block (sparse.DedupBSR). Bit-identical results
	// to the dense stores; FactorBytes/SolveBytes account the deduped
	// traffic.
	Dedup bool
}

// ASM is the additive-Schwarz/block-Jacobi ILU preconditioner. Build once
// per Jacobian pattern with New; refresh values with Factorize; apply with
// Apply.
type ASM struct {
	opt  Options
	pool *par.Pool
	n    int // block rows of the global matrix
	nnzA int // block entries of the global Jacobian pattern

	// One subdomain: global factor with optional parallel schedules.
	global *sparse.Factor
	levels *sparse.LevelSchedule
	p2p    *sparse.P2PSchedule

	// Multiple subdomains: per-subdomain row range and local factor.
	start []int32 // len Subdomains+1
	sub   []*subdomain
}

type subdomain struct {
	lo, hi  int32
	local   *sparse.BSR // local matrix scratch (pattern fixed)
	factor  *sparse.Factor
	rOff    []float64 // local rhs scratch
	zOff    []float64 // local solution scratch
	slotMap []int32   // global slot -> local slot (-1 for dropped couplings)
}

// New builds the preconditioner structure for the Jacobian pattern a.
// The pool is used for parallel scheduling (and parallel subdomain solves);
// it may be nil for SchedSequential with 1 subdomain.
func New(a *sparse.BSR, pool *par.Pool, opt Options) (*ASM, error) {
	if opt.Subdomains <= 0 {
		opt.Subdomains = 1
	}
	if opt.FillLevel < 0 {
		return nil, fmt.Errorf("precond: negative fill level")
	}
	if opt.Sched != SchedSequential && pool == nil {
		return nil, fmt.Errorf("precond: %v scheduling requires a pool", opt.Sched)
	}
	asm := &ASM{opt: opt, pool: pool, n: a.N, nnzA: a.NNZBlocks()}
	if opt.Subdomains == 1 {
		pat, err := sparse.SymbolicILU(a, opt.FillLevel)
		if err != nil {
			return nil, err
		}
		asm.global, err = sparse.NewFactorPattern(pat)
		if err != nil {
			return nil, err
		}
		asm.global.EnableDedup(opt.Dedup)
		switch opt.Sched {
		case SchedLevel:
			asm.levels = sparse.NewLevelSchedule(asm.global.M)
		case SchedP2P:
			if asm.p2p, err = sparse.NewP2PSchedule(asm.global.M, pool.Size()); err != nil {
				return nil, fmt.Errorf("precond: %w", err)
			}
		}
		return asm, nil
	}

	// Multi-subdomain: contiguous row blocks (callers order rows so that
	// contiguous blocks are good subdomains, e.g. via RCM or partitioner).
	if opt.Subdomains > a.N {
		return nil, fmt.Errorf("precond: %d subdomains > %d rows", opt.Subdomains, a.N)
	}
	asm.start = make([]int32, opt.Subdomains+1)
	for s := 0; s <= opt.Subdomains; s++ {
		lo, _ := par.Chunk(a.N, opt.Subdomains, min(s, opt.Subdomains-1))
		if s == opt.Subdomains {
			lo = a.N
		}
		asm.start[s] = int32(lo)
	}
	for s := 0; s < opt.Subdomains; s++ {
		lo, hi := asm.start[s], asm.start[s+1]
		sd := &subdomain{lo: lo, hi: hi}
		nloc := int(hi - lo)
		// Local pattern: global entries with both endpoints inside.
		rows := make([][]int32, nloc)
		sd.slotMap = make([]int32, a.NNZBlocks())
		for i := range sd.slotMap {
			sd.slotMap[i] = -1
		}
		for i := lo; i < hi; i++ {
			for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
				j := a.Col[k]
				if j >= lo && j < hi {
					rows[i-lo] = append(rows[i-lo], j-lo)
				}
			}
		}
		local, err := sparse.NewBSRFromPattern(rows)
		if err != nil {
			return nil, fmt.Errorf("precond: subdomain %d: %w", s, err)
		}
		// slot map for fast value refresh
		for i := lo; i < hi; i++ {
			for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
				j := a.Col[k]
				if j >= lo && j < hi {
					sd.slotMap[k] = local.BlockAt(i-lo, j-lo)
				}
			}
		}
		sd.local = local
		pat, err := sparse.SymbolicILU(local, opt.FillLevel)
		if err != nil {
			return nil, err
		}
		sd.factor, err = sparse.NewFactorPattern(pat)
		if err != nil {
			return nil, err
		}
		sd.factor.EnableDedup(opt.Dedup)
		asm.sub = append(asm.sub, sd)
	}
	return asm, nil
}

// Factorize refreshes the factorization from the current Jacobian values.
// a must have the same pattern as passed to New.
func (asm *ASM) Factorize(a *sparse.BSR) error {
	if asm.global != nil {
		switch asm.opt.Sched {
		case SchedLevel:
			return asm.global.FactorizeILULevel(asm.pool, asm.levels, a)
		case SchedP2P:
			return asm.global.FactorizeILUP2P(asm.pool, asm.p2p, a)
		default:
			return asm.global.FactorizeILU(a)
		}
	}
	// Copy values into local matrices, then factor each subdomain.
	errs := make([]error, len(asm.sub))
	work := func(s int) {
		sd := asm.sub[s]
		sd.local.Zero()
		for i := sd.lo; i < sd.hi; i++ {
			for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
				if ls := sd.slotMap[k]; ls >= 0 {
					copy(sd.local.Block(ls), a.Block(k))
				}
			}
		}
		errs[s] = sd.factor.FactorizeILU(sd.local)
	}
	if asm.pool == nil {
		for s := range asm.sub {
			work(s)
		}
	} else {
		asm.pool.ParallelFor(len(asm.sub), func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				work(s)
			}
		})
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Apply computes z = M^{-1} r.
func (asm *ASM) Apply(r, z []float64) {
	if asm.global != nil {
		switch asm.opt.Sched {
		case SchedLevel:
			asm.global.SolveLevel(asm.pool, asm.levels, r, z)
		case SchedP2P:
			asm.global.SolveP2P(asm.pool, asm.p2p, r, z)
		default:
			asm.global.Solve(r, z)
		}
		return
	}
	const b4 = sparse.B
	work := func(s int) {
		sd := asm.sub[s]
		lo, hi := int(sd.lo)*b4, int(sd.hi)*b4
		sd.factor.Solve(r[lo:hi], z[lo:hi])
	}
	if asm.pool == nil {
		for s := range asm.sub {
			work(s)
		}
		return
	}
	asm.pool.ParallelFor(len(asm.sub), func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			work(s)
		}
	})
}

// Parallelism reports the DAG parallelism of the (global) factor pattern;
// for multi-subdomain configurations it returns the subdomain count times
// the mean subdomain parallelism (independent subdomains multiply).
func (asm *ASM) Parallelism() float64 {
	if asm.global != nil {
		return sparse.DAGParallelism(asm.global.M)
	}
	s := 0.0
	for _, sd := range asm.sub {
		s += sparse.DAGParallelism(sd.factor.M)
	}
	return s
}

// NNZBlocks returns the factor's stored block count (fill included).
func (asm *ASM) NNZBlocks() int {
	if asm.global != nil {
		return asm.global.M.NNZBlocks()
	}
	n := 0
	for _, sd := range asm.sub {
		n += sd.factor.M.NNZBlocks()
	}
	return n
}

// Rows returns the global block-row count (the ILU row-rate denominator).
func (asm *ASM) Rows() int { return asm.n }

// eachFactor visits every factor with the block count of its source store
// (the Jacobian entries streamed into it by Factorize).
func (asm *ASM) eachFactor(visit func(f *sparse.Factor, srcBlocks int)) {
	if asm.global != nil {
		visit(asm.global, asm.nnzA)
		return
	}
	for _, sd := range asm.sub {
		visit(sd.factor, sd.local.NNZBlocks())
	}
}

// FactorBytes models the memory traffic of one Factorize, derived from the
// stores the factorization actually streams: the source Jacobian blocks
// with their column indices (copyValues), then every factor block read and
// written during elimination. In dedup mode the source read goes through
// the deduplicated store — unique blocks plus a 4-byte slot index per
// entry — which is exactly what the prof ILU counter books, so estimate
// and booking cannot drift. Before the first dedup factorization (no view
// built yet) the dense model applies.
func (asm *ASM) FactorBytes() int64 {
	var total int64
	asm.eachFactor(func(f *sparse.Factor, srcBlocks int) {
		if src := f.SourceDedup(); src != nil {
			total += src.StoreBytes() + int64(srcBlocks)*4
		} else {
			total += int64(srcBlocks) * (sparse.BB*8 + 4)
		}
		total += 2 * int64(f.M.NNZBlocks()) * sparse.BB * 8
	})
	return total
}

// SolveBytes models one Apply (the forward/backward TRSV pair): every
// factor block read once with its column index, plus ~3 streams over the
// rhs/solution vectors — the formula behind the paper's Fig 7b bandwidth
// figure. In dedup mode the block read comes from the deduplicated store
// (unique blocks + per-slot index) the solve actually walks.
func (asm *ASM) SolveBytes() int64 {
	var total int64
	asm.eachFactor(func(f *sparse.Factor, _ int) {
		if dd := f.Dedup(); dd != nil {
			total += dd.StoreBytes() + int64(f.M.NNZBlocks())*4
		} else {
			total += int64(f.M.NNZBlocks()) * (sparse.BB*8 + 4)
		}
	})
	return total + 3*int64(asm.n)*sparse.B*8
}

// DedupStats reports the deduplicated store sizes after the most recent
// Factorize. With dedup off (or before any factorization) the stores are
// dense: unique == total.
type DedupStats struct {
	SrcBlocks, SrcUnique int // source Jacobian store
	FacBlocks, FacUnique int // factor store (fill included)
}

// SrcRatio returns unique/total for the source Jacobian store.
func (s DedupStats) SrcRatio() float64 {
	if s.SrcBlocks == 0 {
		return 1
	}
	return float64(s.SrcUnique) / float64(s.SrcBlocks)
}

// FacRatio returns unique/total for the factor store.
func (s DedupStats) FacRatio() float64 {
	if s.FacBlocks == 0 {
		return 1
	}
	return float64(s.FacUnique) / float64(s.FacBlocks)
}

// DedupStats snapshots the store sizes (see type DedupStats).
func (asm *ASM) DedupStats() DedupStats {
	var st DedupStats
	asm.eachFactor(func(f *sparse.Factor, srcBlocks int) {
		st.SrcBlocks += srcBlocks
		if src := f.SourceDedup(); src != nil {
			st.SrcUnique += src.NumUnique()
		} else {
			st.SrcUnique += srcBlocks
		}
		nb := f.M.NNZBlocks()
		st.FacBlocks += nb
		if dd := f.Dedup(); dd != nil {
			st.FacUnique += dd.NumUnique()
		} else {
			st.FacUnique += nb
		}
	})
	return st
}
