package main

import (
	"fmt"
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
// for an even count), or 0 for an empty slice.
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

// tail is a sample's tail latency, with the percentile it was taken at,
// the sample count and the number of blocks it is the median over.
type tail struct {
	Value      float64
	Percentile float64
	N, Blocks  int
}

const (
	// tailBeyond is how many samples must lie beyond a reported tail.
	tailBeyond = 10
	// tailBlock is the block size of a long sample's tail: each block's
	// tail is its 80th percentile. Over six tenants-mixed runs of one
	// commit the tail's quartile spread was 0.14 of its median with blocks
	// of 50, 0.20 with blocks of 100 and 0.32 with blocks of 200.
	tailBlock = 50
)

// tailOf returns the tail of xs, a sample in operation order. A sample of
// fewer than two blocks reports its highest nearest-rank percentile with at
// least tailBeyond samples beyond it. A longer one is cut into consecutive
// blocks of tailBlock operations, the last block taking any remainder, and
// reports the median of the blocks' tails, each taken the same way: a
// stall of the host then moves one block's tail, not the run's. A sample
// too small to have a tail at or above its median reports its maximum,
// flagged by Percentile 100.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n < 2*tailBlock {
		v, pct := blockTail(xs)
		return tail{Value: v, Percentile: pct, N: n, Blocks: 1}
	}
	var vals, pcts []float64
	for lo := 0; lo+tailBlock <= n; lo += tailBlock {
		hi := lo + tailBlock
		if n-hi < tailBlock {
			hi = n
		}
		v, pct := blockTail(xs[lo:hi])
		vals = append(vals, v)
		pcts = append(pcts, pct)
	}
	return tail{Value: median(vals), Percentile: median(pcts), N: n, Blocks: len(vals)}
}

func (t tail) String() string {
	if t.Blocks > 1 {
		return fmt.Sprintf("%.3f ms (median p%.1f of %d blocks)", t.Value, t.Percentile, t.Blocks)
	}
	return fmt.Sprintf("p%.1f %.3f ms", t.Percentile, t.Value)
}

// blockTail returns the highest nearest-rank percentile of xs with at least
// tailBeyond samples beyond it, and that percentile.
func blockTail(xs []float64) (float64, float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	i := n - 1 - tailBeyond
	if i < (n-1)/2 {
		return s[n-1], 100
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// f1 returns 2tp / (2tp + fp + fn), or 0 with no matches possible.
func f1(tp, fp, fn int) float64 {
	den := 2*tp + fp + fn
	if den == 0 {
		return 0
	}
	return 2 * float64(tp) / float64(den)
}
