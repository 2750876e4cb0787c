package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for no samples. xs is not modified.
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

// tail is the highest percentile, up to p90, of a sample that still has at
// least minBeyond samples above it: with 300 samples it is p90, with 40 it
// is p75. Below minBeyond+1 samples no such percentile exists and the
// maximum is reported, with Beyond 0. The p90 cap
// keeps the percentile the same across runs whose job counts differ; above
// it, multi-second slowdowns of a shared 2-vCPU VM dominated (pr-cached's
// p95 over ten seeds spread by 26% of its median).
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

const (
	minBeyond  = 10
	maxTailPct = 90
)

// tailIndex returns the index, in ascending order, of the tail sample of n
// samples and the percentile it stands for.
func tailIndex(n int) (idx int, pct float64) {
	if n == 0 {
		return -1, 0
	}
	idx = min(n-1-minBeyond, int(math.Ceil(maxTailPct*float64(n)/100))-1)
	if idx < 0 {
		idx = n - 1
	}
	return idx, 100 * float64(idx+1) / float64(n)
}

func tailOf(xs []float64) tail {
	idx, pct := tailIndex(len(xs))
	if idx < 0 {
		return tail{}
	}
	s := sorted(xs)
	return tail{Value: s[idx], Percentile: pct, Samples: len(s), Beyond: len(s) - 1 - idx}
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload does not
// exercise reports 0 rather than NaN, which JSON cannot carry).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// bitsEqual is the correctness gate's comparison: float64 bit patterns, so
// +Inf equals +Inf, and any rounding difference is a mismatch.
func bitsEqual(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}
