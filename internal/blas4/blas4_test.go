package blas4

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBlock(rng *rand.Rand) []float64 {
	a := make([]float64, BB)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return a
}

func naiveGemv(a, x []float64) [B]float64 {
	var y [B]float64
	for i := 0; i < B; i++ {
		for j := 0; j < B; j++ {
			y[i] += a[i*B+j] * x[j]
		}
	}
	return y
}

func TestGemvVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a := randBlock(rng)
		x := randBlock(rng)[:B]
		want := naiveGemv(a, x)

		y := make([]float64, B)
		Gemv(a, x, y)
		for i := 0; i < B; i++ {
			if y[i] != want[i] {
				t.Fatalf("Gemv[%d] = %v want %v", i, y[i], want[i])
			}
		}
	}
}

func TestGemmAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		a, b := randBlock(rng), randBlock(rng)
		c := make([]float64, BB)
		Gemm(a, b, c)
		for i := 0; i < B; i++ {
			for j := 0; j < B; j++ {
				want := 0.0
				for k := 0; k < B; k++ {
					want += a[i*B+k] * b[k*B+j]
				}
				if math.Abs(c[i*B+j]-want) > 1e-12 {
					t.Fatalf("Gemm(%d,%d) = %v want %v", i, j, c[i*B+j], want)
				}
			}
		}
		// GemmSub(c, a, b) after Gemm(a,b,c) should give zero.
		c2 := make([]float64, BB)
		Copy(c2, c)
		GemmSub(a, b, c2)
		if MaxAbs(c2) > 1e-12 {
			t.Fatalf("GemmSub residue %v", MaxAbs(c2))
		}
	}
}

// Property: Invert produces A*Ainv = I for well-conditioned random blocks.
func TestInvertProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randBlock(rng)
		AddDiag(a, 5) // keep it comfortably nonsingular
		ainv := make([]float64, BB)
		Copy(ainv, a)
		if !Invert(ainv) {
			return false
		}
		prod := make([]float64, BB)
		Gemm(a, ainv, prod)
		for i := 0; i < B; i++ {
			prod[i*B+i] -= 1
		}
		return MaxAbs(prod) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInvertSingular(t *testing.T) {
	a := make([]float64, BB) // zero matrix
	if Invert(a) {
		t.Fatal("inverted a singular block")
	}
	// Rank-deficient: two identical rows.
	b := []float64{
		1, 2, 3, 4,
		1, 2, 3, 4,
		0, 1, 0, 0,
		0, 0, 1, 0,
	}
	if Invert(b) {
		t.Fatal("inverted a rank-deficient block")
	}
}

func TestInvertNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position forces a row swap.
	a := []float64{
		0, 1, 0, 0,
		1, 0, 0, 0,
		0, 0, 2, 0,
		0, 0, 0, 4,
	}
	orig := make([]float64, BB)
	Copy(orig, a)
	if !Invert(a) {
		t.Fatal("pivoting case failed")
	}
	prod := make([]float64, BB)
	Gemm(orig, a, prod)
	for i := 0; i < B; i++ {
		prod[i*B+i] -= 1
	}
	if MaxAbs(prod) > 1e-14 {
		t.Fatalf("residue %v", MaxAbs(prod))
	}
}

func TestZeroCopyAddDiag(t *testing.T) {
	a := make([]float64, BB)
	for i := range a {
		a[i] = float64(i)
	}
	b := make([]float64, BB)
	Copy(b, a)
	Zero(a)
	if MaxAbs(a) != 0 {
		t.Fatal("Zero")
	}
	if b[5] != 5 {
		t.Fatal("Copy clobbered source data path")
	}
	AddDiag(b, 10)
	if b[0] != 10 || b[5] != 15 || b[10] != 20 || b[15] != 25 {
		t.Fatalf("AddDiag %v", b)
	}
}

func BenchmarkGemmSub(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x, y := randBlock(rng), randBlock(rng)
	c := make([]float64, BB)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GemmSub(x, y, c)
	}
}

func BenchmarkInvert(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := randBlock(rng)
	AddDiag(a, 5)
	w := make([]float64, BB)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Copy(w, a)
		Invert(w)
	}
}
