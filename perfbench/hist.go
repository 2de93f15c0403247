package main

import (
	"math/bits"
	"time"
)

// hist is a log-linear latency histogram over nanoseconds. Values
// below 2^subBits are counted exactly; above, each power-of-two octave
// is split into 2^subBits equal sub-buckets, so a bucket is at most
// 1/128 of its lower bound wide and its midpoint is within 0.4% of any
// value in it — well inside the 1% error the latency metrics promise.
// The zero value is ready to use; add never allocates.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits = 7
	subN    = 1 << subBits
	// maxHistBits caps recorded values at 2^40 ns (about 18 minutes).
	maxHistBits = 40
	histBuckets = (maxHistBits - subBits + 1) * subN
)

// bucketOf maps v (ns) to its bucket index.
func bucketOf(v uint64) int {
	if v < subN {
		return int(v)
	}
	if v >= 1<<maxHistBits {
		v = 1<<maxHistBits - 1
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)<<subBits + int(v>>shift) - subN
}

// bucketMid returns the value a bucket reports: the exact value below
// subN, the bucket's midpoint above.
func bucketMid(b int) float64 {
	if b < subN {
		return float64(b)
	}
	shift := b>>subBits - 1
	lo := uint64(b&(subN-1)+subN) << shift
	return float64(lo) + float64(uint64(1)<<shift)/2
}

func (h *hist) add(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile in nanoseconds: the
// bucket holding the ceil(q·n)-th smallest value (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			return bucketMid(b)
		}
	}
	return bucketMid(histBuckets - 1)
}
