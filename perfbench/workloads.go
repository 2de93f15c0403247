package main

import (
	"synergy/internal/core"
	"synergy/internal/telemetry"
)

// workload is one traffic mix. Every workload is a closed loop: each
// worker waits for a reply before its next op, the way callers of a
// memory service do. Worker counts stay at or below the 2 CPUs of the
// reference box (see README.md).
type workload struct {
	name    string
	workers int
	rpc     bool
	// warmOps is each worker's fixed warm-up before measuring: enough
	// for the metadata cache to reach its steady state.
	warmOps uint64
	// tracedRate sizes the fixed-length phases of a traced run: each
	// worker issues tracedRate×seconds/2 ops per phase, so the counts
	// depend on the seed and run length only.
	tracedRate float64
	streams    func(seed uint64, workers int) []*stream
}

// Engine-hot's hot set: lines on rank 0 whose counter and tree paths
// together fit well inside one rank's metadata cache.
const engineHotLines = 1024

// Engine-ingest's mix: sequential sweep writes over the whole
// keyspace, the rest hot zipf reads and writes. The sweep keeps
// evicting hot metadata, so a steady share of hot reads escalate on a
// cache miss; the shares put that share well between the read p50 and
// p90, so neither percentile sits on the fast/escalated boundary.
const (
	ingestSweep = 0.45
	ingestRead  = 0.54
)

var workloads = []workload{
	{
		name: "rpc-mix", workers: 2, rpc: true, warmOps: 3000, tracedRate: 10000,
		streams: func(seed uint64, workers int) []*stream {
			hot := zipfHot(seed)
			return makeStreams(workers, func(w int) *stream { return newStream(seed, w, workers, hot, 1.1, 0, 0.9) })
		},
	},
	{
		name: "engine-hot", workers: 2, warmOps: 100000, tracedRate: 450000,
		streams: func(seed uint64, workers int) []*stream {
			hot := rankHot(engineHotLines)
			return makeStreams(workers, func(w int) *stream { return newStream(seed, w, workers, hot, 0, 0, 0.9) })
		},
	},
	{
		name: "engine-ingest", workers: 1, warmOps: 300000, tracedRate: 200000,
		streams: func(seed uint64, workers int) []*stream {
			hot := zipfHot(seed)
			return makeStreams(workers, func(w int) *stream { return newStream(seed, w, workers, hot, 1.1, ingestSweep, ingestRead) })
		},
	},
}

func makeStreams(n int, f func(w int) *stream) []*stream {
	s := make([]*stream, n)
	for w := range s {
		s[w] = f(w)
	}
	return s
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setup builds the target and loads the dataset. In a traced phase
// the engine gets a telemetry registry (the server always has one) and
// RPC handler calls are spanned.
func (wl *workload) setup(traced bool) (target, *telemetry.Registry, error) {
	if wl.rpc {
		var handler *spanLog
		if traced {
			handler = newSpanLog(wl.workers)
		}
		r, err := setupRPC(wl.workers, handler)
		if err != nil {
			return nil, nil, err
		}
		return r, r.reg, nil
	}
	var reg *telemetry.Registry
	if traced {
		reg = telemetry.New()
	}
	e, err := setupEngine(reg)
	if err != nil {
		return nil, nil, err
	}
	return e, reg, nil
}

// newWorkers builds fresh workers on fresh streams, so every phase
// replays the seed's op stream from its start.
func (wl *workload) newWorkers(seed uint64) []*worker {
	names := [2]spanName{spanCoreRead, spanCoreWrite}
	if wl.rpc {
		names = [2]spanName{spanClientRead, spanClientWrite}
	}
	var ws []*worker
	for w, s := range wl.streams(seed, wl.workers) {
		ws = append(ws, &worker{id: w, s: s, names: names})
	}
	return ws
}

func arrayOf(t target) *core.Array {
	switch t := t.(type) {
	case *engineTarget:
		return t.arr
	case *rpcTarget:
		return t.arr
	}
	return nil
}
