package main

import (
	"fmt"
	"runtime"

	"synergy/internal/core"
	"synergy/internal/telemetry"
)

// counters is every count a layer exposes, read before and after a
// phase.
type counters struct {
	st             core.Stats
	dimmR, dimmW   uint64
	mallocs, bytes uint64
	gcs            uint64
	tel            telemetry.Snapshot
}

// sub returns the counts c − o.
func (c counters) sub(o counters) counters {
	return counters{
		st: core.Stats{
			Reads:           c.st.Reads - o.st.Reads,
			Writes:          c.st.Writes - o.st.Writes,
			MACComputations: c.st.MACComputations - o.st.MACComputations,
			MetaCacheHits:   c.st.MetaCacheHits - o.st.MetaCacheHits,
			MetaCacheMisses: c.st.MetaCacheMisses - o.st.MetaCacheMisses,
			MetaWritebacks:  c.st.MetaWritebacks - o.st.MetaWritebacks,
			FastReads:       c.st.FastReads - o.st.FastReads,
			ReadEscalations: c.st.ReadEscalations - o.st.ReadEscalations,
			GenRetries:      c.st.GenRetries - o.st.GenRetries,
		},
		dimmR:   c.dimmR - o.dimmR,
		dimmW:   c.dimmW - o.dimmW,
		mallocs: c.mallocs - o.mallocs,
		bytes:   c.bytes - o.bytes,
		gcs:     c.gcs - o.gcs,
		tel:     c.tel.Sub(o.tel),
	}
}

func readCounters(t target, reg *telemetry.Registry) counters {
	arr := arrayOf(t)
	c := counters{st: arr.Stats(), tel: reg.Snapshot()}
	for r := 0; r < arr.Ranks(); r++ {
		c.dimmR += arr.Rank(r).Module().Reads()
		c.dimmW += arr.Rank(r).Module().Writes()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.bytes, c.gcs = ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC)
	return c
}

// tracedPhase is one fixed-length phase of a traced run.
type tracedPhase struct {
	res     *phaseResult
	d       counters // deltas across the phase
	spans   spanTotals
	opsPerS float64
}

// runFixed sets up, warms up and runs ops fixed ops per worker,
// untraced when spansPath is empty. Both phases replay the same op
// stream from the same loaded state, and the engine's behaviour does
// not depend on telemetry, so with one worker every count repeats
// exactly from run to run and between the two phases.
func runFixed(wl *workload, seed, ops uint64, spansPath string) (*tracedPhase, error) {
	traced := spansPath != ""
	t, reg, err := wl.setup(traced)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer t.close()
	sh := newShadow(dataLines)
	ws := wl.newWorkers(seed)
	if _, err := runPhase(t, ws, sh, 0, wl.warmOps); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var logs []*spanLog
	if traced {
		for _, w := range ws {
			w.spans = newSpanLog(w.id)
			logs = append(logs, w.spans)
		}
		if r, ok := t.(*rpcTarget); ok {
			logs = append(logs, r.handler)
		}
	}
	runtime.GC()
	c0 := readCounters(t, reg)
	res, err := runPhase(t, ws, sh, 0, ops)
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	c1 := readCounters(t, reg)
	if err := verify(t, sh); err != nil {
		return nil, err
	}
	if traced {
		if err := writeSpans(spansPath, logs); err != nil {
			return nil, err
		}
		fmt.Println("spans", spansPath)
	}
	if err := t.close(); err != nil {
		return nil, err
	}
	return &tracedPhase{
		res:     res,
		d:       c1.sub(c0),
		spans:   sumSpans(logs),
		opsPerS: float64(res.ops) / res.elapsed.Seconds(),
	}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced runs the untraced phase A and the traced phase B, each
// tracedRate×seconds/2 ops per worker, and reports the per-layer
// metrics. Counts come from phase A, where no tracing runs; the split
// by escalation reason, the stage times and the span times need the
// telemetry registry and spans of phase B.
func runTraced(wl *workload, seed uint64, seconds float64, spansPath string) (*result, error) {
	ops := uint64(wl.tracedRate * seconds / 2)
	if ops < 1000 {
		ops = 1000
	}
	a, err := runFixed(wl, seed, ops, "")
	if err != nil {
		return nil, fmt.Errorf("untraced phase: %w", err)
	}
	b, err := runFixed(wl, seed, ops, spansPath)
	if err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	m := layerMetrics(wl, a, b)
	return &result{
		Correct:   true,
		Attempted: a.res.ops + b.res.ops,
		Failed:    a.res.failed + b.res.failed,
		Metrics:   m,
	}, nil
}

func layerMetrics(wl *workload, a, b *tracedPhase) map[string]metric {
	ops := float64(a.res.ops)
	st := a.d.st
	reads, writes := float64(st.Reads), float64(st.Writes)
	m := map[string]metric{
		"core.fast_read_frac":            {ratio(float64(st.FastReads), reads), "ratio"},
		"core.escalations_per_kread":     {1000 * ratio(float64(st.ReadEscalations), reads), "1/kread"},
		"core.gen_retries_per_kread":     {1000 * ratio(float64(st.GenRetries), reads), "1/kread"},
		"core.meta_hit_ratio":            {ratio(float64(st.MetaCacheHits), float64(st.MetaCacheHits+st.MetaCacheMisses)), "ratio"},
		"core.meta_writebacks_per_write": {ratio(float64(st.MetaWritebacks), writes), "1/write"},
		"core.mac_per_op":                {ratio(float64(st.MACComputations), reads+writes), "1/op"},
		"dimm.reads_per_op":              {ratio(float64(a.d.dimmR), ops), "1/op"},
		"dimm.writes_per_op":             {ratio(float64(a.d.dimmW), ops), "1/op"},
		"server.allocs_per_op":           {ratio(float64(a.d.mallocs), ops), "1/op"},
		"server.alloc_bytes_per_op":      {ratio(float64(a.d.bytes), ops), "B/op"},
		"server.gc_per_kop":              {1000 * ratio(float64(a.d.gcs), ops), "1/kop"},
		"server.rejected_frac":           {ratio(float64(a.d.tel.Ops[telemetry.OpRPCRejected.String()].Count), ops), "ratio"},
		"trace.overhead_frac":            {1 - ratio(b.opsPerS, a.opsPerS), "ratio"},
	}

	var esc [telemetry.NumEscReasons]uint64
	for _, r := range b.d.tel.Ranks {
		for k, n := range r.Escalations {
			esc[k] += n
		}
	}
	for k := telemetry.EscReason(0); k < telemetry.NumEscReasons; k++ {
		m["core.esc."+k.String()] = metric{1000 * ratio(float64(esc[k]), float64(b.d.st.Reads)), "1/kread"}
	}
	for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
		h := b.d.tel.Stages[s.String()]
		m["stage."+s.String()+"_ns"] = metric{ratio(float64(h.SumNanos), float64(h.Count)), "ns"}
	}

	// Self time per layer, from the spans of phase B. A client span
	// holds exactly one handler span, and the engine time inside a
	// handler is the registry's mean read/write time weighted by the
	// phase's mix (the engine samples its read timings).
	var engineUS float64
	if wl.rpc {
		rd, wr := b.d.tel.Ops[telemetry.OpRead.String()], b.d.tel.Ops[telemetry.OpWrite.String()]
		nr, nw := float64(b.res.reads), float64(b.res.ops-b.res.reads)
		engineUS = ratio(float64(rd.Latency.Mean())*nr+float64(wr.Latency.Mean())*nw, nr+nw) / 1e3
	} else {
		engineUS = b.spans.meanUS(spanCoreRead, spanCoreWrite)
	}
	var rtt, handler float64
	if wl.rpc {
		rtt = b.spans.meanUS(spanClientRead, spanClientWrite)
		handler = b.spans.meanUS(spanHandler)
	}
	m["core.op_us"] = metric{engineUS, "us"}
	m["server.rtt_us"] = metric{rtt, "us"}
	m["server.handler_us"] = metric{handler, "us"}
	m["server.transport_self_us"] = metric{rtt - handler, "us"}
	m["server.handler_self_us"] = metric{0, "us"}
	if wl.rpc {
		m["server.handler_self_us"] = metric{handler - engineUS, "us"}
	}
	return m
}
