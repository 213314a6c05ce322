package main

import (
	"math"
	"sort"
	"time"
)

// opLog records the operations of one measured phase. A failed
// operation — an error, a refusal (503) or a failed output check — is
// logged with an infinite latency, so it counts against every latency
// percentile as a miss of any latency limit.
type opLog struct {
	lat        []float64       // milliseconds; +Inf for failed operations
	start, end []time.Duration // offsets from the start of the phase
	failed     int
	failures   []string // first few failure reasons, for the report
}

// add logs one operation that ran from start to start+d (offsets from
// the start of the phase); err non-nil marks it failed.
func (l *opLog) add(start, d time.Duration, err error) {
	l.start = append(l.start, start)
	l.end = append(l.end, start+d)
	if err != nil {
		l.failed++
		if len(l.failures) < 5 {
			l.failures = append(l.failures, err.Error())
		}
		l.lat = append(l.lat, math.Inf(1))
		return
	}
	l.lat = append(l.lat, float64(d)/float64(time.Millisecond))
}

// fail turns logged operation i into a failure.
func (l *opLog) fail(i int, err error) {
	if len(l.lat) == 0 {
		l.add(0, 0, err)
		return
	}
	if i < 0 || i >= len(l.lat) {
		i = len(l.lat) - 1
	}
	if math.IsInf(l.lat[i], 1) { // already failed
		return
	}
	l.lat[i] = math.Inf(1)
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, err.Error())
	}
}

// rateWindows is how many equal windows a phase is cut into for its
// throughput.
const rateWindows = 20

// rates returns the completed operations per second in each of
// rateWindows equal windows of a phase of length wall. An operation
// counts in every window it overlaps, in proportion to the overlap, so
// a window's rate has no rounding to whole operations.
func (l *opLog) rates(wall time.Duration) []float64 {
	w := wall / rateWindows
	if w <= 0 {
		return nil
	}
	counts := make([]float64, rateWindows)
	for i, s := range l.start {
		if math.IsInf(l.lat[i], 1) {
			continue
		}
		e := l.end[i]
		if e <= s {
			if k := int(e / w); k < rateWindows {
				counts[k]++
			}
			continue
		}
		for k := int(s / w); k < rateWindows && time.Duration(k)*w < e; k++ {
			lo, hi := max(s, time.Duration(k)*w), min(e, time.Duration(k+1)*w)
			counts[k] += float64(hi-lo) / float64(e-s)
		}
	}
	for k := range counts {
		counts[k] /= w.Seconds()
	}
	return counts
}

// throughput is the median of the per-window rates: a stall of the
// shared machine in a few windows does not move it.
func (l *opLog) throughput(wall time.Duration) float64 {
	return median(l.rates(wall))
}

func (l *opLog) attempted() int { return len(l.lat) }

// tailPerMille lists the candidate tail percentiles, highest first, in
// per-mille (999 = p99.9).
var tailPerMille = []int{999, 990, 950, 900, 750, 500}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile picks the highest candidate percentile that leaves at
// least minBeyond of n samples beyond it, and returns it in per-mille
// with the number of samples beyond it. Below 2·minBeyond samples no
// candidate qualifies and the median is reported instead.
func tailPercentile(n int) (perMille, beyond int) {
	for _, pm := range tailPerMille {
		if b := n - rankOf(pm, n); b >= minBeyond {
			return pm, b
		}
	}
	pm := tailPerMille[len(tailPerMille)-1]
	return pm, n - rankOf(pm, n)
}

// rankOf is the 1-based nearest rank of the pm-per-mille percentile of
// n samples: ceil(pm·n/1000).
func rankOf(pm, n int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// quantile returns the nearest-rank pm-per-mille percentile of vals
// (which it sorts in place); +Inf entries sort last.
func quantile(vals []float64, pm int) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	return vals[rankOf(pm, len(vals))-1]
}

// median of vals (sorted in place), the mean of the two middle values
// for an even count.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// mean of vals.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// latencySummary is the latency part of an end-to-end report.
type latencySummary struct {
	P50Ms, TailMs float64
	TailPerMille  int // the tail's percentile, in per-mille
	TailBeyond    int // samples beyond the tail percentile
	Samples       int
}

// summarize computes the median and the tail latency of l. A
// percentile that falls on a failed operation is infinite; it reports
// as ceilMs, the length of the measured phase — no operation of the
// phase can have taken longer than that.
func (l *opLog) summarize(ceilMs float64) latencySummary {
	vals := append([]float64(nil), l.lat...)
	pm, beyond := tailPercentile(len(vals))
	s := latencySummary{
		P50Ms:        quantile(vals, 500),
		TailMs:       quantile(vals, pm),
		TailPerMille: pm,
		TailBeyond:   beyond,
		Samples:      len(vals),
	}
	if math.IsInf(s.P50Ms, 1) {
		s.P50Ms = ceilMs
	}
	if math.IsInf(s.TailMs, 1) {
		s.TailMs = ceilMs
	}
	return s
}
