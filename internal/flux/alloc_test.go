package flux

import (
	"testing"

	"fun3d/internal/par"
	"fun3d/internal/physics"
)

// The residual is the hottest kernel of every pseudo-time step; a
// steady-state call must not allocate. The configuration is the flux half
// of core.OptimizedConfig (METIS owner-writes threading, SIMD batching,
// prefetch) with second-order reconstruction and the limiter on.
func TestResidualZeroAlloc(t *testing.T) {
	m := wingMesh(t)
	qInf := physics.FreeStream(3)
	nv := m.NumVertices()
	q := perturbedState(nv, qInf, 0.1, 4)
	pool := par.NewPool(2)
	defer pool.Close()
	part, err := NewPartition(m, pool.Size(), ReplicateMETIS, 3)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernels(m, beta, qInf, pool, part, Config{Strategy: ReplicateMETIS, SIMD: true, Prefetch: true})
	grad := make([]float64, nv*12)
	phi := make([]float64, nv*4)
	res := make([]float64, nv*4)
	k.Gradient(q, grad)
	k.Limiter(q, grad, phi, 5)
	f := func() { k.Residual(q, grad, phi, res) }
	f()
	if avg := testing.AllocsPerRun(20, f); avg != 0 {
		t.Errorf("Residual: %v allocs per steady-state call, want 0", avg)
	}
}
