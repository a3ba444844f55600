package sparse

import (
	"fmt"
	"math/rand"
	"testing"

	"fun3d/internal/par"
)

// injectRepeats overwrites the off-diagonal blocks of a random subset of
// rows with one shared stamp block, planting exact-bit repeats (including
// consecutive slots, so run batching has runs longer than one to chew on).
func injectRepeats(rng *rand.Rand, a *BSR) {
	stamp := make([]float64, BB)
	for t := range stamp {
		stamp[t] = 0.05 * rng.NormFloat64()
	}
	for i := 0; i < a.N; i++ {
		if rng.Intn(2) == 0 {
			continue
		}
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			if k == a.Diag[i] {
				continue
			}
			copy(a.Block(k), stamp)
		}
	}
}

// TestDedupRoundTripProperty is the store property test: over random
// patterns and values with planted duplicates, the deduplicated view must
// reproduce the dense value array bit-for-bit, find strictly fewer unique
// blocks than slots when duplicates exist, and keep RunEnd runs within
// their row segment with a constant Slot value.
func TestDedupRoundTripProperty(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 6
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(30)
		a, err := NewBSRFromPattern(randomPattern(rng, n, rng.Intn(4)))
		if err != nil {
			t.Fatal(err)
		}
		randomDiagDominant(rng, a)
		planted := rng.Intn(2) == 0
		if planted {
			injectRepeats(rng, a)
		}

		d := NewDedupBSR(a)
		// Round trip: expand back out and compare bit-for-bit, both through
		// ExpandInto and through per-slot Block reads.
		out := make([]float64, len(a.Val))
		d.ExpandInto(out)
		for i := range out {
			if out[i] != a.Val[i] {
				t.Fatalf("trial %d: ExpandInto[%d] = %v, dense %v", trial, i, out[i], a.Val[i])
			}
		}
		for k := int32(0); k < int32(a.NNZBlocks()); k++ {
			blk := d.Block(k)
			for t2 := 0; t2 < BB; t2++ {
				if blk[t2] != a.Val[int(k)*BB+t2] {
					t.Fatalf("trial %d: Block(%d)[%d] differs", trial, k, t2)
				}
			}
		}
		if d.NumUnique() > a.NNZBlocks() || d.Ratio() > 1 {
			t.Fatalf("trial %d: %d unique of %d blocks", trial, d.NumUnique(), a.NNZBlocks())
		}
		if d.StoreBytes() != int64(d.NumUnique())*BB*8+int64(a.NNZBlocks())*4 {
			t.Fatalf("trial %d: StoreBytes %d", trial, d.StoreBytes())
		}

		// RunEnd invariants: every run lies inside one of the row's three
		// solve segments and Slot is constant across it.
		for i := 0; i < a.N; i++ {
			segs := [3][2]int32{
				{a.Ptr[i], a.Diag[i]},
				{a.Diag[i], a.Diag[i] + 1},
				{a.Diag[i] + 1, a.Ptr[i+1]},
			}
			for _, seg := range segs {
				for k := seg[0]; k < seg[1]; k++ {
					e := d.RunEnd[k]
					if e <= k || e > seg[1] {
						t.Fatalf("trial %d: RunEnd[%d] = %d outside segment [%d,%d)", trial, k, e, seg[0], seg[1])
					}
					for j := k; j < e; j++ {
						if d.Slot[j] != d.Slot[k] {
							t.Fatalf("trial %d: run [%d,%d) mixes slots", trial, k, e)
						}
					}
				}
			}
		}
	}
}

// Duplicate blocks must collapse: two bit-identical stamps, one unique
// entry; a flipped sign or a NaN with a different payload must not.
func TestDedupExactBitSemantics(t *testing.T) {
	a, err := NewBSRFromPattern([][]int32{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Val {
		a.Val[k] = 0
	}
	for i := int32(0); i < 3; i++ {
		d := a.Block(a.Diag[i])
		for t2 := 0; t2 < B; t2++ {
			d[t2*B+t2] = 1
		}
	}
	// Every off-diagonal slot gets the same stamp; then one (row 2, col 0)
	// is changed only in the sign bit of a zero.
	stamp := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0, 16}
	for i := int32(0); i < 3; i++ {
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			if k != a.Diag[i] {
				copy(a.Block(k), stamp)
			}
		}
	}
	neg := a.Block(a.Ptr[2]) // row 2, col 0 (diag of row 2 is slot Ptr[2]+2)
	neg[14] = negZero()

	d := NewDedupBSR(a)
	// 3 identity diagonals collapse to 1; 5 stamp copies collapse to 1; the
	// -0.0 variant stays distinct: 3 unique blocks of 9 slots.
	if got := d.NumUnique(); got != 3 {
		t.Fatalf("unique = %d, want 3 (identity, stamp, -0.0 variant)", got)
	}
	out := make([]float64, len(a.Val))
	d.ExpandInto(out)
	for i := range out {
		if out[i] != a.Val[i] {
			t.Fatalf("ExpandInto[%d] = %v, want %v", i, out[i], a.Val[i])
		}
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

// TestDedupFactorSolveConformance is the end-to-end conformance property:
// with dedup enabled, factorization and the triangular solves must match
// the dense-path results bit-for-bit across sequential, level-scheduled
// and P2P-scheduled execution, every worker count, and both fill levels.
// The deduplicated store holds exactly the dense bytes and the batched
// kernels preserve evaluation order, so tolerance is zero.
func TestDedupFactorSolveConformance(t *testing.T) {
	a := testMatrix(t, 21)
	// Plant exact repeats so the deduplicated path actually batches
	// multi-slot runs rather than degenerating to run length one.
	injectRepeats(rand.New(rand.NewSource(22)), a)
	fillDiagDominantInPlace(a)

	for _, lev := range []int{0, 1} {
		pat, err := SymbolicILU(a, lev)
		if err != nil {
			t.Fatal(err)
		}
		fDense, _ := NewFactorPattern(pat)
		if err := fDense.FactorizeILU(a); err != nil {
			t.Fatal(err)
		}
		n := a.N * B
		b := randVec(n, 23)
		want := make([]float64, n)
		fDense.Solve(b, want)

		fd, _ := NewFactorPattern(pat)
		fd.EnableDedup(true)
		if err := fd.FactorizeILU(a); err != nil {
			t.Fatal(err)
		}
		if diff := maxAbsDiff(fd.M.Val, fDense.M.Val); diff != 0 {
			t.Fatalf("ILU(%d): dedup sequential factorization differs by %v", lev, diff)
		}
		if fd.Dedup() == nil || fd.SourceDedup() == nil {
			t.Fatalf("ILU(%d): dedup views missing after factorization", lev)
		}
		if fd.SourceDedup().Ratio() >= 1 {
			t.Fatalf("ILU(%d): planted repeats not found (ratio %v)", lev, fd.SourceDedup().Ratio())
		}
		got := make([]float64, n)
		fd.Solve(b, got)
		if diff := maxAbsDiff(got, want); diff != 0 {
			t.Fatalf("ILU(%d): dedup sequential solve differs by %v", lev, diff)
		}

		for _, nw := range []int{1, 2, 4, 7} {
			t.Run(fmt.Sprintf("lev%d-nw%d", lev, nw), func(t *testing.T) {
				p := par.NewPool(nw)
				defer p.Close()

				fLvl, _ := NewFactorPattern(pat)
				fLvl.EnableDedup(true)
				ls := NewLevelSchedule(fLvl.M)
				if err := fLvl.FactorizeILULevel(p, ls, a); err != nil {
					t.Fatal(err)
				}
				if diff := maxAbsDiff(fLvl.M.Val, fDense.M.Val); diff != 0 {
					t.Fatalf("level factorization differs by %v", diff)
				}
				gotL := make([]float64, n)
				fLvl.SolveLevel(p, ls, b, gotL)
				if diff := maxAbsDiff(gotL, want); diff != 0 {
					t.Fatalf("level solve differs by %v", diff)
				}

				fP2P, _ := NewFactorPattern(pat)
				fP2P.EnableDedup(true)
				ps := mustP2P(t, fP2P.M, nw)
				if err := fP2P.FactorizeILUP2P(p, ps, a); err != nil {
					t.Fatal(err)
				}
				if diff := maxAbsDiff(fP2P.M.Val, fDense.M.Val); diff != 0 {
					t.Fatalf("p2p factorization differs by %v", diff)
				}
				gotP := make([]float64, n)
				fP2P.SolveP2P(p, ps, b, gotP)
				if diff := maxAbsDiff(gotP, want); diff != 0 {
					t.Fatalf("p2p solve differs by %v", diff)
				}
			})
		}
	}
}

// fillDiagDominantInPlace restores strong diagonal dominance after repeat
// injection without disturbing the planted off-diagonal stamps.
func fillDiagDominantInPlace(a *BSR) {
	for i := 0; i < a.N; i++ {
		d := a.Block(a.Diag[i])
		for t := 0; t < B; t++ {
			d[t*B+t] += 8
		}
	}
}

// EnableDedup(false) must drop the views and return the factor to the
// dense path; re-enabling rebuilds them on the next factorization.
func TestEnableDedupToggle(t *testing.T) {
	a := testMatrix(t, 27)
	pat, _ := SymbolicILU(a, 0)
	f, _ := NewFactorPattern(pat)
	f.EnableDedup(true)
	if err := f.FactorizeILU(a); err != nil {
		t.Fatal(err)
	}
	if f.Dedup() == nil || f.SourceDedup() == nil {
		t.Fatal("views missing with dedup enabled")
	}
	f.EnableDedup(false)
	if f.Dedup() != nil || f.SourceDedup() != nil {
		t.Fatal("views survived EnableDedup(false)")
	}
	if err := f.FactorizeILU(a); err != nil {
		t.Fatal(err)
	}
	if f.Dedup() != nil {
		t.Fatal("dense refactorization rebuilt a dedup view")
	}
}
