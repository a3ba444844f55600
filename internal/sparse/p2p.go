package sparse

import (
	"fmt"

	"fun3d/internal/par"
)

// P2PSchedule implements the sparsified point-to-point synchronization of
// Park et al. (ISC'14), the paper's strategy (2) for the sparse
// recurrences. Rows are owned by threads through level sets: every
// forward wavefront of the dependency DAG is split across the threads into
// contiguous, nnz-balanced pieces, and each thread's task list is its
// pieces in level order. A thread runs its list front to back in the
// forward sweep (and the factorization) and back to front in the backward
// sweep, publishing a progress counter per sweep. A row's cross-thread
// dependencies are *sparsified* by approximate transitive reduction:
//
//   - within one foreign thread, only the dependency latest in that
//     thread's task list matters (the thread completes its list in order),
//     and
//   - a wait already implied by an earlier wait of the same thread (its
//     running high-water mark per foreign thread) is dropped.
//
// What remains is typically a handful of point-to-point waits per level
// instead of a global barrier per wavefront.
type P2PSchedule struct {
	nw int

	// Thread t's task list is order[start[t]:start[t+1]]; len(start) = nw+1.
	order []int32
	start []int32

	// Per-step wait lists, flattened. A wait (t, c) means: spin until
	// thread t's progress counter reaches c. Forward step q runs row
	// order[q]; backward step q of thread t runs row
	// order[start[t]+start[t+1]-1-q]. Both sweeps index their waits by
	// step, so each thread reads them front to back.
	fwdPtr, bwdPtr     []int32
	fwdWaits, bwdWaits []waitReq

	fwdFlags, bwdFlags []par.Flag

	// Operands of the in-flight SolveP2P, read by solveBody. The pool hands
	// its body to the workers through a channel, so a per-call closure would
	// escape to the heap; the body is bound once in NewP2PSchedule instead
	// and a steady-state solve allocates nothing.
	solveF    *Factor
	solveX    []float64
	solveBody func(tid int)
}

type waitReq struct {
	thread int32
	count  int64
}

// NewP2PSchedule builds the schedule for factor pattern m and nw threads.
// The pattern must be structurally symmetric: the backward sweep starts
// without a barrier, and only the symmetric pattern guarantees that a
// backward update of x_i (which waits on every U(i,k) row) never races a
// foreign forward read of x_i (through L(k,i)). Symmetry also makes the
// reversed forward order a valid backward order: U(i,j) != 0 implies
// L(j,i) != 0, so row j sits in a later forward level than row i. With one
// thread the schedule is the identity row order with no waits.
func NewP2PSchedule(m *BSR, nw int) (*P2PSchedule, error) {
	if nw < 1 {
		return nil, fmt.Errorf("sparse: P2P schedule needs at least one thread, got %d", nw)
	}
	if err := checkStructurallySymmetric(m); err != nil {
		return nil, fmt.Errorf("sparse: P2P schedule: %w", err)
	}
	s := &P2PSchedule{nw: nw, start: make([]int32, nw+1)}
	s.solveBody = s.solveThread
	s.fwdFlags = make([]par.Flag, nw)
	s.bwdFlags = make([]par.Flag, nw)
	if nw == 1 {
		s.order = make([]int32, m.N)
		for i := range s.order {
			s.order[i] = int32(i)
		}
		s.start[1] = int32(m.N)
		s.fwdPtr = make([]int32, m.N+1)
		s.bwdPtr = make([]int32, m.N+1)
		return s, nil
	}

	// Split every forward level into nw contiguous pieces of roughly equal
	// block-nnz (the recurrences' work metric); piece t joins thread t's
	// list.
	levOrder, levOff := buildLevels(m, true)
	owner := make([]int32, m.N)
	counts := make([]int32, nw+1)
	for l := 0; l+1 < len(levOff); l++ {
		rows := levOrder[levOff[l]:levOff[l+1]]
		total := int64(0)
		for _, i := range rows {
			total += int64(m.Ptr[i+1] - m.Ptr[i])
		}
		acc := int64(0)
		for _, i := range rows {
			t := int32(acc * int64(nw) / total)
			acc += int64(m.Ptr[i+1] - m.Ptr[i])
			owner[i] = t
			counts[t+1]++
		}
	}
	for t := 0; t < nw; t++ {
		s.start[t+1] = s.start[t] + counts[t+1]
	}
	s.order = make([]int32, m.N)
	pos := make([]int32, m.N) // row -> index into order
	fill := append([]int32(nil), s.start[:nw]...)
	for _, i := range levOrder {
		t := owner[i]
		pos[i] = fill[t]
		s.order[fill[t]] = i
		fill[t]++
	}

	s.fwdPtr, s.fwdWaits = s.buildWaits(m, owner, pos, true)
	s.bwdPtr, s.bwdWaits = s.buildWaits(m, owner, pos, false)
	return s, nil
}

// buildWaits computes one sweep's sparsified wait lists, visiting each
// thread's steps in execution order so the high-water reduction sees them
// as they will run. Forward, the dependencies of row i are its lower
// columns and depending on task p of thread u needs u's counter at
// p-start[u]+1; backward they are its upper columns and the counter must
// reach start[u+1]-p.
func (s *P2PSchedule) buildWaits(m *BSR, owner, pos []int32, forward bool) ([]int32, []waitReq) {
	ptr := make([]int32, len(s.order)+1)
	var waits []waitReq
	highWater := make([]int64, s.nw)
	reqs := make([]int64, s.nw) // per-row scratch, indexed by thread
	for t := 0; t < s.nw; t++ {
		clear(highWater)
		lo, hi := s.start[t], s.start[t+1]
		for q := lo; q < hi; q++ {
			i := s.order[q]
			deps := m.Col[m.Ptr[i]:m.Diag[i]]
			if !forward {
				i = s.order[lo+hi-1-q]
				deps = m.Col[m.Diag[i]+1 : m.Ptr[i+1]]
			}
			clear(reqs)
			for _, j := range deps {
				u := owner[j]
				if u == int32(t) {
					continue
				}
				need := int64(pos[j] - s.start[u] + 1)
				if !forward {
					need = int64(s.start[u+1] - pos[j])
				}
				reqs[u] = max(reqs[u], need)
			}
			for u, r := range reqs {
				if r > highWater[u] {
					waits = append(waits, waitReq{int32(u), r})
					highWater[u] = r
				}
			}
			ptr[q+1] = int32(len(waits))
		}
	}
	return ptr, waits
}

// checkStructurallySymmetric verifies in O(nnz) that (j,i) is in m's
// pattern whenever (i,j) is. Rows are visited in ascending order, so the
// transposes of the entries met so far must appear in every row j as an
// ascending prefix of its (sorted) columns; next[j] tracks that prefix.
func checkStructurallySymmetric(m *BSR) error {
	next := append([]int32(nil), m.Ptr[:m.N]...)
	for i := int32(0); i < int32(m.N); i++ {
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			j := m.Col[k]
			c := next[j]
			if c < m.Ptr[j+1] && m.Col[c] < i {
				return fmt.Errorf("pattern is not structurally symmetric: (%d,%d) present, (%d,%d) absent", j, m.Col[c], m.Col[c], j)
			}
			if c == m.Ptr[j+1] || m.Col[c] != i {
				return fmt.Errorf("pattern is not structurally symmetric: (%d,%d) present, (%d,%d) absent", i, j, j, i)
			}
			next[j]++
		}
	}
	return nil
}

// NumWaits returns the total forward+backward wait count — the schedule's
// synchronization cost, compared against the barrier count of level
// scheduling in the benches.
func (s *P2PSchedule) NumWaits() int { return len(s.fwdWaits) + len(s.bwdWaits) }

// resetFlags must run with no concurrent solver threads.
func (s *P2PSchedule) resetFlags() {
	for t := range s.fwdFlags {
		s.fwdFlags[t].Reset()
		s.bwdFlags[t].Reset()
	}
}

// SolveP2P performs x = U^{-1} L^{-1} b with point-to-point synchronized
// sweeps. There is no barrier between the forward and backward sweep: a
// thread's backward pass only reads x values it owns (produced by its own
// forward pass) and backward results of other threads, which are guarded by
// the backward progress flags.
func (f *Factor) SolveP2P(p *par.Pool, s *P2PSchedule, b, x []float64) {
	m := f.M
	n := m.N
	if n == 0 {
		return
	}
	if &b[0] != &x[0] {
		copy(x[:n*B], b[:n*B])
	}
	s.resetFlags()
	s.solveF, s.solveX = f, x
	p.Run(s.solveBody)
	s.solveF, s.solveX = nil, nil
}

// solveThread is thread tid's share of SolveP2P: its task list forward,
// then backward.
func (s *P2PSchedule) solveThread(tid int) {
	f, x := s.solveF, s.solveX
	lo, hi := s.start[tid], s.start[tid+1]
	done := int64(0)
	for q := lo; q < hi; q++ {
		for _, w := range s.fwdWaits[s.fwdPtr[q]:s.fwdPtr[q+1]] {
			s.fwdFlags[w.thread].WaitAtLeast(w.count)
		}
		f.fwdRow(s.order[q], x)
		done++
		s.fwdFlags[tid].Set(done)
	}
	done = 0
	for q := lo; q < hi; q++ {
		for _, w := range s.bwdWaits[s.bwdPtr[q]:s.bwdPtr[q+1]] {
			s.bwdFlags[w.thread].WaitAtLeast(w.count)
		}
		f.bwdRow(s.order[lo+hi-1-q], x)
		done++
		s.bwdFlags[tid].Set(done)
	}
}

// FactorizeILUP2P computes the ILU factorization with point-to-point
// synchronization: row i's elimination waits only on its sparsified
// cross-thread dependency set.
func (f *Factor) FactorizeILUP2P(p *par.Pool, s *P2PSchedule, a *BSR) error {
	if err := f.copyValues(a); err != nil {
		return err
	}
	s.resetFlags()
	errs := make([]error, p.Size())
	p.Run(func(tid int) {
		lo, hi := s.start[tid], s.start[tid+1]
		done := int64(0)
		for q := lo; q < hi; q++ {
			for _, w := range s.fwdWaits[s.fwdPtr[q]:s.fwdPtr[q+1]] {
				s.fwdFlags[w.thread].WaitAtLeast(w.count)
			}
			if err := f.factorRow(s.order[q]); err != nil && errs[tid] == nil {
				errs[tid] = err
			}
			done++
			s.fwdFlags[tid].Set(done)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	f.refreshDedup()
	return nil
}
