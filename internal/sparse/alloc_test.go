package sparse

import (
	"testing"

	"fun3d/internal/par"
)

// The preconditioner apply runs once per GMRES iteration; a steady-state
// P2P solve must not allocate.
func TestSolveP2PZeroAlloc(t *testing.T) {
	f := ilu1Factor(t)
	a := testMatrix(t, 18)
	if err := f.FactorizeILU(a); err != nil {
		t.Fatal(err)
	}
	p := par.NewPool(2)
	defer p.Close()
	s := mustP2P(t, f.M, 2)
	n := f.M.N * B
	b := randVec(n, 19)
	x := make([]float64, n)
	run := func() { f.SolveP2P(p, s, b, x) }
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("SolveP2P: %v allocs per steady-state call, want 0", avg)
	}
}
