package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"packetmill/internal/stats"
	"packetmill/internal/trace"
)

// tailPercentiles are the candidates for a timing's tail, highest first.
var tailPercentiles = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile before it
// may stand for the tail.
const minBeyond = 10

// summary is a timing distribution reduced to what the benchmark prints:
// the median, the tail percentile chosen by pickTail, and the counts
// that justify it.
type summary struct {
	n       int
	p50     float64
	tailPct float64
	tail    float64
	beyond  int
}

// pickTail returns the highest candidate percentile with at least
// minBeyond of n samples strictly beyond it, and that count. ok is false
// when n is too small for any candidate.
func pickTail(n int) (pct float64, beyond int, ok bool) {
	for _, p := range tailPercentiles {
		b := n - int(math.Ceil(p/100*float64(n)))
		if b >= minBeyond {
			return p, b, true
		}
	}
	return 0, 0, false
}

// quantile is the linearly interpolated p-th percentile of sorted xs,
// the same rule stats.LatencyRecorder uses.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// summarize sorts xs in place and reduces it to a summary.
func summarize(xs []float64) (summary, error) {
	pct, beyond, ok := pickTail(len(xs))
	if !ok {
		return summary{}, fmt.Errorf("%d samples leave no percentile with %d beyond it", len(xs), minBeyond)
	}
	sort.Float64s(xs)
	return summary{
		n: len(xs), p50: quantile(xs, 50),
		tailPct: pct, tail: quantile(xs, pct), beyond: beyond,
	}, nil
}

// summarizeHist reduces a latency histogram the same way; quantiles
// interpolate within its log-spaced buckets.
func summarizeHist(h *trace.Hist) (summary, error) {
	n := int(h.Count())
	pct, beyond, ok := pickTail(n)
	if !ok {
		return summary{}, fmt.Errorf("%d samples leave no percentile with %d beyond it", n, minBeyond)
	}
	return summary{n: n, p50: h.Quantile(0.5), tailPct: pct, tail: h.Quantile(pct / 100), beyond: beyond}, nil
}

// median returns the middle of xs (mean of the middle two when even)
// without reordering the caller's slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 50)
}

// chunkNSPerPkt turns wall-clock marks taken every chunk packets into
// ns/packet, one value per complete chunk.
func chunkNSPerPkt(marks []int64, chunk int) []float64 {
	var out []float64
	for i := 1; i < len(marks); i++ {
		out = append(out, float64(marks[i]-marks[i-1])/float64(chunk))
	}
	return out
}

// lossClass says whether a drop reason is the network function's own
// verdict or a loss the benchmark counts against the datapath.
type lossClass uint8

const (
	// verdict: the NF chose to drop (Discard, unresolved ARP, a strict
	// tracker refusing an out-of-state segment). Correct behaviour.
	verdict lossClass = iota
	// capacity: a ring, pool, table or socket buffer ran out, or the
	// overload plane shed. The datapath failed to keep up.
	capacity
	// fault: the frame was malformed, injected away, or oversize. The
	// benchmark injects no faults, so any of these is a failure too.
	fault
)

func (c lossClass) String() string {
	return [...]string{"verdict", "capacity", "fault"}[c]
}

// classify maps every drop reason of the taxonomy to its class. The
// table is written out in NOTES.md; TestClassifyCoversTaxonomy keeps the
// two in step.
func classify(r stats.DropReason) lossClass {
	switch r {
	case stats.DropEngine, stats.DropFlowTableInvalid:
		return verdict
	case stats.DropRxNoBuf, stats.DropRxRingFull, stats.DropPoolExhausted,
		stats.DropTxRingFull, stats.DropTxTransient, stats.DropFlowTableFull,
		stats.DropFlowTableNoPort:
		return capacity
	}
	if r.IsOverload() {
		return capacity
	}
	return fault
}

// lost sums the drops that count against the datapath: every reason
// that is not an NF verdict.
func lost(d *stats.DropCounters) uint64 {
	var n uint64
	for _, r := range stats.Reasons() {
		if classify(r) != verdict {
			n += d.Get(r)
		}
	}
	return n
}

// dropDelta returns after − before per reason: the testbed's ledgers are
// cumulative over a build, so a later phase's drops are a difference.
func dropDelta(after, before *stats.DropCounters) stats.DropCounters {
	var d stats.DropCounters
	for _, r := range stats.Reasons() {
		d.Add(r, after.Get(r)-before.Get(r))
	}
	return d
}

// expGaps draws unit-mean exponential gaps from a seeded stream, so
// Poisson arrivals repeat exactly for one seed.
type expGaps struct{ rng *rand.Rand }

func newExpGaps(seed uint64) *expGaps {
	return &expGaps{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
}

func (g *expGaps) next() float64 { return g.rng.ExpFloat64() }
