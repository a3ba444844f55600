package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method), so
// spreads printed here match the ones an external check computes. It needs
// at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], true
}

// iqrShare is the interquartile distance as a share of the median: the
// run-to-run spread measure the benchmark's bounds are judged against.
func iqrShare(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(p * float64(len(s)) / 100))
	k = max(1, min(k, len(s)))
	return s[k-1]
}

// tailRule is the highest percentile of a timing sample that still has at
// least tailBeyond samples beyond it, with the sample count it was taken
// over. Below tailBeyond+1 samples no percentile qualifies and the rule
// falls back to the maximum (Pct 100, Beyond 0).
type tailRule struct {
	Pct    float64
	Value  float64
	Beyond int
	N      int
}

const tailBeyond = 10

func tail(xs []float64) tailRule {
	n := len(xs)
	if n == 0 {
		return tailRule{}
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return tailRule{Pct: 100, Value: s[n-1], N: n}
	}
	k := n - tailBeyond // nearest rank with exactly tailBeyond samples above
	return tailRule{Pct: 100 * float64(k) / float64(n), Value: s[k-1], Beyond: tailBeyond, N: n}
}

// beyond counts the samples strictly above the nearest-rank p-th percentile.
func beyond(xs []float64, p float64) int {
	v := percentile(xs, p)
	c := 0
	for _, x := range xs {
		if x > v {
			c++
		}
	}
	return c
}

// span is one timed interval recorded around a call into a layer.
type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// selfTime is a span's duration minus the part of its interval that its
// children cover (overlapping children are counted once, and child time
// outside the parent is ignored).
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.start, c.end
		if lo.Before(parent.start) {
			lo = parent.start
		}
		if hi.After(parent.end) {
			hi = parent.end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo.Before(ivs[b].lo) })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.lo.After(cur.hi):
			if v.hi.After(cur.hi) {
				cur.hi = v.hi
			}
		default:
			covered += cur.hi.Sub(cur.lo)
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi.Sub(cur.lo)
	}
	return parent.dur() - covered
}

// attributed is one layer's share of a solve reconstructed from a replay:
// the per-call time measured on the converged state times the number of
// calls the solve made.
type attributed struct {
	layer   string
	perCall time.Duration
	calls   float64
}

// unattributedFrac is 1 - sum(perCall*calls)/total: the part of a solve the
// replayed layers do not account for. Negative when the replays
// over-account (e.g. warmer caches in the replay than in the solve).
func unattributedFrac(total time.Duration, parts []attributed) float64 {
	if total <= 0 {
		return 0
	}
	sum := 0.0
	for _, p := range parts {
		sum += p.perCall.Seconds() * p.calls
	}
	return 1 - sum/total.Seconds()
}
