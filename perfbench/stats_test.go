package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected cut points are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
		{[]float64{12.5, 10, 11, 14, 13, 9.5, 10.5, 12, 11.5, 13.5}, [3]float64{10.375, 11.75, 13.125}},
	} {
		q1, q2, q3, ok := quartiles(c.in)
		if !ok || math.Abs(q1-c.want[0]) > 1e-12 || math.Abs(q2-c.want[1]) > 1e-12 || math.Abs(q3-c.want[2]) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v (%v), want %v", c.in, q1, q2, q3, ok, c.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
	if got := iqrShare([]float64{12.5, 10, 11, 14, 13, 9.5, 10.5, 12, 11.5, 13.5}); math.Abs(got-(13.125-10.375)/11.75) > 1e-12 {
		t.Errorf("iqrShare = %v", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := beyond(xs, 95); got != 10 {
		t.Errorf("samples beyond p95 of 200 = %d, want 10", got)
	}
	if got := percentile(xs, 100); got != 200 {
		t.Errorf("p100 = %v, want 200", got)
	}
	if got := percentile([]float64{7}, 50); got != 7 {
		t.Errorf("p50 of one sample = %v", got)
	}
}

// The tail rule reports the highest percentile that still has ten samples
// beyond it, and the sample count it was taken over.
func TestTailRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		pct     float64
		value   float64
		nBeyond int
	}{
		{200, 95, 190, 10},
		{1000, 99, 990, 10},
		{11, 100 / 11.0, 1, 10},
		{10, 100, 10, 0}, // too few: the maximum, nothing beyond
		{3, 100, 3, 0},
	} {
		got := tail(ramp(c.n))
		if math.Abs(got.Pct-c.pct) > 1e-9 || got.Value != c.value || got.Beyond != c.nBeyond || got.N != c.n {
			t.Errorf("tail(1..%d) = %+v, want p%v = %v with %d beyond", c.n, got, c.pct, c.value, c.nBeyond)
		}
		above := 0
		for _, x := range ramp(c.n) {
			if x > got.Value {
				above++
			}
		}
		if above != c.nBeyond {
			t.Errorf("tail(1..%d): %d samples above %v, want %d", c.n, above, got.Value, c.nBeyond)
		}
	}
	if got := tail(nil); got.N != 0 {
		t.Errorf("tail(nil) = %+v", got)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{at(0), at(100)}
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []span{{at(10), at(20)}, {at(50), at(80)}}, 60 * time.Millisecond},
		{"overlap counted once", []span{{at(10), at(40)}, {at(30), at(60)}}, 50 * time.Millisecond},
		{"nested", []span{{at(10), at(90)}, {at(20), at(30)}}, 20 * time.Millisecond},
		{"clipped to parent", []span{{at(-50), at(10)}, {at(95), at(200)}}, 85 * time.Millisecond},
		{"outside parent", []span{{at(150), at(200)}}, 100 * time.Millisecond},
		{"fully covered", []span{{at(0), at(60)}, {at(60), at(100)}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestUnattributedFrac(t *testing.T) {
	total := 10 * time.Second
	parts := []attributed{
		{"flux", 50 * time.Millisecond, 100}, // 5 s
		{"ilu", 500 * time.Millisecond, 4},   // 2 s
	}
	if got := unattributedFrac(total, parts); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("unattributed = %v, want 0.3", got)
	}
	over := append(parts, attributed{"trsv", time.Second, 4}) // 11 s of 10
	if got := unattributedFrac(total, over); math.Abs(got-(-0.1)) > 1e-12 {
		t.Errorf("over-attributed = %v, want -0.1", got)
	}
	if got := unattributedFrac(0, parts); got != 0 {
		t.Errorf("zero total = %v, want 0", got)
	}
}
