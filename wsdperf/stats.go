package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: with fewer, the value is one or two unlucky samples, not a
// property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of all samples at or below it. It
// refuses (returns an error) when fewer than minBeyond samples lie beyond
// that rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", p, n, beyond, minBeyond)
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[rank-1], nil
}

// blockPercentile cuts the rounds' samples, in round order, into blocks of
// consecutive rounds each large enough for percentile to report p, and
// returns the median of the blocks' p-th percentiles: a stall that lands in
// a few blocks moves those blocks only, not the reported figure.
func blockPercentile(rounds [][]float64, p float64) (float64, error) {
	var vals, block []float64
	for _, xs := range rounds {
		block = append(block, xs...)
		if v, err := percentile(block, p); err == nil {
			vals = append(vals, v)
			block = block[:0]
		}
	}
	if len(vals) == 0 {
		return percentile(block, p)
	}
	return median(vals), nil
}

// median is the middle sample (the mean of the two middle samples for an
// even count); 0 for no samples. Used for per-round figures, where a run has
// too few rounds for a refusing percentile to apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mare is the mean absolute relative error of estimates against exact
// counts: mean over i of |est[i]-exact[i]| / exact[i]. Every exact count must
// be positive (a relative error against zero is undefined) and every
// estimate finite and non-negative.
func mare(est, exact []float64) (float64, error) {
	if len(est) != len(exact) || len(est) == 0 {
		return 0, fmt.Errorf("mare: %d estimates for %d exact counts", len(est), len(exact))
	}
	var sum float64
	for i, e := range est {
		if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
			return 0, fmt.Errorf("mare: estimate %d is %v (must be finite and non-negative)", i, e)
		}
		if exact[i] <= 0 {
			return 0, fmt.Errorf("mare: exact count %d is %v (must be positive)", i, exact[i])
		}
		sum += math.Abs(e-exact[i]) / exact[i]
	}
	return sum / float64(len(est)), nil
}

// interval is a closed time span [start, end] in nanoseconds on the
// benchmark's monotonic clock.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

// covered returns how much of parent the union of children covers: children
// are clipped to parent and overlaps are counted once.
func covered(parent interval, children []interval) int64 {
	var clipped []interval
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, c := range clipped {
		if i == 0 || c.start > cur.end {
			total += cur.dur()
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	return total + cur.dur()
}

// selfTime is a span's duration minus the part of it its child spans cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.dur() - covered(parent, children)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
