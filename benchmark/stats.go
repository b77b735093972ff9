package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// low and high are the estimators every gated timing and rate uses:
// the best decile over reps or segments. Interference on a shared box
// only ever adds time, in phases that last seconds, so the median of a
// run moves with the neighbours while the best decile stays at what the
// program costs when it has the machine. The median and quartiles are
// still reported beside it.
func low(xs []float64) float64  { return quantile(xs, 0.1) }
func high(xs []float64) float64 { return quantile(xs, 0.9) }

// summary is a sample's median with its quartiles and count, the form
// every timed statistic is reported in.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	return summary{Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

// relSpread is the interquartile range as a share of the median, by
// the exclusive method Python's statistics.quantiles(n=4) uses, so the
// A/A table reads the same as the driver's check.
func relSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / math.Abs(med)
}
