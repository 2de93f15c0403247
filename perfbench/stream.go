package main

import "math/rand/v2"

// The dataset every workload loads and flushes before it measures.
const (
	dataLines = 65536
	numRanks  = 4
	metaCache = 512 // MetadataCache entries per rank
	hotRange  = 4096
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

type op struct {
	kind opKind
	line uint64
}

// stream is one worker's seeded op generator. A share sweepFrac of
// ops are writes walking the whole keyspace in order; of the rest,
// readFrac/(1-sweepFrac) are reads and the remainder writes, both to
// lines drawn from hot — by a zipf rank when zipf is set, uniformly
// otherwise.
type stream struct {
	rng       *rand.Rand
	zipf      *rand.Zipf
	hot       []uint64
	sweepFrac float64
	readFrac  float64
	cursor    uint64
	w         int
	workers   int
}

func newStream(seed uint64, w, workers int, hot []uint64, zipfS, sweepFrac, readFrac float64) *stream {
	rng := rand.New(rand.NewPCG(seed, uint64(w)+1))
	s := &stream{rng: rng, hot: hot, sweepFrac: sweepFrac, readFrac: readFrac, w: w, workers: workers}
	if zipfS > 0 {
		s.zipf = rand.NewZipf(rng, zipfS, 1, uint64(len(hot)-1))
	}
	return s
}

func (s *stream) next() op {
	u := s.rng.Float64()
	if u < s.sweepFrac {
		l := s.cursor
		s.cursor = (s.cursor + 1) % dataLines
		return op{opWrite, l}
	}
	var line uint64
	if s.zipf != nil {
		line = s.hot[s.zipf.Uint64()]
	} else {
		line = s.hot[s.rng.IntN(len(s.hot))]
	}
	if u < s.sweepFrac+s.readFrac {
		return op{opRead, line}
	}
	return op{opWrite, s.owned(line)}
}

// owned maps a write target to the line of its pair {line, line^4}
// that this worker owns, so every line has exactly one writer and the
// shadow's versions stay totally ordered. Pairs differ in bit 2, which
// keeps both members on the same rank and in any hot set built from
// whole groups of eight lines.
func (s *stream) owned(line uint64) uint64 {
	if s.workers > 1 && int(line>>2)%s.workers != s.w {
		line ^= 4
	}
	return line
}

// zipfHot is the hot range [0, hotRange) in a seeded order, so which
// line is hottest depends on the seed but not on the worker.
func zipfHot(seed uint64) []uint64 {
	p := rand.New(rand.NewPCG(seed, 0)).Perm(hotRange)
	hot := make([]uint64, hotRange)
	for i, v := range p {
		hot[i] = uint64(v)
	}
	return hot
}

// rankHot is n lines all on rank 0.
func rankHot(n int) []uint64 {
	hot := make([]uint64, n)
	for i := range hot {
		hot[i] = uint64(i) * numRanks
	}
	return hot
}
