package sparse

import (
	"fmt"
	"math/rand"
	"testing"

	"fun3d/internal/par"
)

// randomPattern generates a random sparse pattern over n block rows:
// guaranteed diagonal, random off-diagonals with the given expected count
// per row. The pattern is made structurally symmetric (j in row i => i in
// row j), like a mesh adjacency.
func randomPattern(rng *rand.Rand, n, offPerRow int) [][]int32 {
	present := make([]map[int32]bool, n)
	for i := range present {
		present[i] = map[int32]bool{int32(i): true}
	}
	for i := 0; i < n; i++ {
		for k := 0; k < offPerRow; k++ {
			j := int32(rng.Intn(n))
			present[i][j] = true
			present[int(j)][int32(i)] = true
		}
	}
	rows := make([][]int32, n)
	for i, set := range present {
		for c := range set {
			rows[i] = append(rows[i], c)
		}
	}
	return rows
}

// randomDiagDominant fills a BSR with random values whose diagonal blocks
// strongly dominate, keeping every pivot comfortably invertible through
// incomplete elimination.
func randomDiagDominant(rng *rand.Rand, a *BSR) {
	for i := 0; i < a.N; i++ {
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			blk := a.Block(k)
			for t := 0; t < BB; t++ {
				blk[t] = 0.1 * rng.NormFloat64()
			}
			if k == a.Diag[i] {
				for d := 0; d < B; d++ {
					blk[d*B+d] += 4 + rng.Float64()
				}
			}
		}
	}
}

// TestP2PPropertyMatchesSerialBitForBit is the property-based conformance
// test over random BSR patterns: for random sizes, densities, fill levels
// and thread counts, the P2P-scheduled factorization and triangular solves
// must match the serial and level-scheduled ones bit-for-bit. The
// elimination and substitution orders are identical by construction —
// synchronization is the only thing the schedules change — so exact
// equality is the correct assertion.
func TestP2PPropertyMatchesSerialBitForBit(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 5
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(40)
		off := rng.Intn(4)
		level := rng.Intn(2)
		nw := []int{1, 2, 4, 7}[rng.Intn(4)]
		name := fmt.Sprintf("trial%d-n%d-off%d-l%d-nw%d", trial, n, off, level, nw)
		t.Run(name, func(t *testing.T) {
			a, err := NewBSRFromPattern(randomPattern(rng, n, off))
			if err != nil {
				t.Fatal(err)
			}
			randomDiagDominant(rng, a)
			pat, err := SymbolicILU(a, level)
			if err != nil {
				t.Fatal(err)
			}

			newFactor := func() *Factor {
				f, err := NewFactorPattern(pat)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			serial := newFactor()
			if err := serial.FactorizeILU(a); err != nil {
				t.Fatal(err)
			}

			pool := par.NewPool(nw)
			defer pool.Close()
			lvl := newFactor()
			ls := NewLevelSchedule(lvl.M)
			if err := lvl.FactorizeILULevel(pool, ls, a); err != nil {
				t.Fatal(err)
			}
			p2p := newFactor()
			ps := mustP2P(t, p2p.M, nw)
			if err := p2p.FactorizeILUP2P(pool, ps, a); err != nil {
				t.Fatal(err)
			}
			for i := range serial.M.Val {
				if lvl.M.Val[i] != serial.M.Val[i] {
					t.Fatalf("level factorization differs at val[%d]: %v != %v",
						i, lvl.M.Val[i], serial.M.Val[i])
				}
				if p2p.M.Val[i] != serial.M.Val[i] {
					t.Fatalf("p2p factorization differs at val[%d]: %v != %v",
						i, p2p.M.Val[i], serial.M.Val[i])
				}
			}

			b := make([]float64, n*B)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			want := make([]float64, n*B)
			serial.Solve(b, want)
			gotLvl := make([]float64, n*B)
			lvl.SolveLevel(pool, ls, b, gotLvl)
			gotP2P := make([]float64, n*B)
			p2p.SolveP2P(pool, ps, b, gotP2P)
			for i := range want {
				if gotLvl[i] != want[i] {
					t.Fatalf("level solve differs at x[%d]: %v != %v", i, gotLvl[i], want[i])
				}
				if gotP2P[i] != want[i] {
					t.Fatalf("p2p solve differs at x[%d]: %v != %v", i, gotP2P[i], want[i])
				}
			}
		})
	}
}

// TestP2PScheduleCoversAllDependencies is the missed-dependency regression
// property: replaying each thread's task list, every cross-thread
// dependency of the factor pattern (lower part for the forward sweep,
// upper part for the backward sweep) must be implied by the accumulated
// sparsified waits at the time the row runs, and every same-thread
// dependency must run earlier in that thread's sweep. This is exactly the
// invariant the level-set ownership and the high-water transitive
// reduction must preserve.
func TestP2PScheduleCoversAllDependencies(t *testing.T) {
	trials := 15
	if testing.Short() {
		trials = 6
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(60)
		off := rng.Intn(5)
		nw := []int{1, 2, 3, 4, 7, 11}[rng.Intn(6)]
		t.Run(fmt.Sprintf("trial%d-n%d-off%d-nw%d", trial, n, off, nw), func(t *testing.T) {
			a, err := NewBSRFromPattern(randomPattern(rng, n, off))
			if err != nil {
				t.Fatal(err)
			}
			pat, err := SymbolicILU(a, rng.Intn(2))
			if err != nil {
				t.Fatal(err)
			}
			f, err := NewFactorPattern(pat)
			if err != nil {
				t.Fatal(err)
			}
			m := f.M
			s := mustP2P(t, m, nw)
			owner, pos := taskOwners(t, s, m.N)

			// replay walks thread th's steps of one sweep, checking the
			// waits are sparsified (no self-waits, strictly rising per
			// foreign thread) and cover every dependency of each row.
			replay := func(th int, forward bool) {
				lo, hi := s.start[th], s.start[th+1]
				ptr, waits := s.fwdPtr, s.fwdWaits
				if !forward {
					ptr, waits = s.bwdPtr, s.bwdWaits
				}
				high := make([]int64, nw)
				for q := lo; q < hi; q++ {
					p := q
					i := s.order[p]
					deps := m.Col[m.Ptr[i]:m.Diag[i]]
					if !forward {
						p = lo + hi - 1 - q
						i = s.order[p]
						deps = m.Col[m.Diag[i]+1 : m.Ptr[i+1]]
					}
					for _, w := range waits[ptr[q]:ptr[q+1]] {
						if w.thread == int32(th) {
							t.Fatalf("fwd=%v row %d: self-wait on own thread %d", forward, i, th)
						}
						if w.count <= high[w.thread] {
							t.Fatalf("fwd=%v row %d: non-monotone wait on thread %d (%d <= %d): not sparsified",
								forward, i, w.thread, w.count, high[w.thread])
						}
						high[w.thread] = w.count
					}
					for _, j := range deps {
						tj := owner[j]
						if tj == int32(th) {
							if (forward && pos[j] >= p) || (!forward && pos[j] <= p) {
								t.Fatalf("fwd=%v row %d: same-thread dep %d does not run first", forward, i, j)
							}
							continue
						}
						need := int64(pos[j] - s.start[tj] + 1)
						if !forward {
							need = int64(s.start[tj+1] - pos[j])
						}
						if high[tj] < need {
							t.Fatalf("fwd=%v row %d: dep on row %d (thread %d) uncovered: have %d need %d",
								forward, i, j, tj, high[tj], need)
						}
					}
				}
			}
			for th := 0; th < nw; th++ {
				replay(th, true)
				replay(th, false)
			}
		})
	}
}
