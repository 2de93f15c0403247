package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

// exactQuantile is the nearest-rank quantile of sorted: the
// ceil(q·n)-th smallest value.
func exactQuantile(sorted []uint64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

func TestHistQuantilesWithinBucketError(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	inputs := map[string]func() uint64{
		"uniform":   func() uint64 { return 1 + rng.Uint64N(1_000_000) },
		"lognormal": func() uint64 { return uint64(math.Exp(6 + 1.5*rng.NormFloat64())) },
		// The engine-ingest read shape: a fast mode near 0.5 µs and an
		// escalated mode near 12 µs, with the boundary between p50 and p90.
		"bimodal": func() uint64 {
			if rng.Float64() < 0.3 {
				return uint64(12000 + 1500*rng.NormFloat64())
			}
			return uint64(500 + 60*rng.NormFloat64())
		},
		"small": func() uint64 { return rng.Uint64N(200) },
	}
	for name, gen := range inputs {
		var h hist
		vals := make([]uint64, 100_000)
		for i := range vals {
			vals[i] = gen()
			h.add(time.Duration(vals[i]))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.01, 0.25, 0.5, 0.69, 0.7, 0.71, 0.9, 0.99, 1} {
			want, got := exactQuantile(vals, q), h.quantile(q)
			if err := math.Abs(got-want) / math.Max(want, 1); err > 0.01 {
				t.Errorf("%s q%.2f: hist %.1f, exact %.1f (error %.4f > 1%%)", name, q, got, want, err)
			}
		}
	}
}

func TestHistBucketsCoverTheirValues(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 123456789, 1<<40 - 1} {
		b := bucketOf(v)
		if mid := bucketMid(b); math.Abs(mid-float64(v)) > float64(v)/256+0.5 {
			t.Errorf("value %d: bucket %d reports %.1f", v, b, mid)
		}
		if b > 0 && bucketOf(v-1) > b {
			t.Errorf("bucketOf not monotonic at %d", v)
		}
	}
	if b := bucketOf(1 << 50); b != histBuckets-1 {
		t.Errorf("overflow value maps to bucket %d, want last (%d)", b, histBuckets-1)
	}
	var h hist
	if h.quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
}
