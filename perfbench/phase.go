package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// target is the system under test as the workers see it.
type target interface {
	// read and write serve worker w; span is the op's span ID in a
	// traced phase and 0 otherwise.
	read(w int, line uint64, dst []byte, span uint64) error
	write(w int, line uint64, src []byte, span uint64) error
	// readAll flushes the engine and reads every line, in order, into
	// dst (dataLines×lineSize bytes).
	readAll(dst []byte) error
	close() error
}

// worker is one closed-loop client: it issues its stream's next op
// only after the previous one returned.
type worker struct {
	id     int
	s      *stream
	spans  *spanLog // nil: untraced
	names  [2]spanName
	ops    atomic.Uint64
	failed uint64
	reads  uint64
	readH  hist
	writeH hist
	buf    [lineSize]byte
}

func (w *worker) step(t target, sh *shadow) error {
	o := w.s.next()
	id := w.spans.newID()
	switch o.kind {
	case opRead:
		w.reads++
		lo := sh.done[o.line].Load()
		t0 := time.Now()
		err := t.read(w.id, o.line, w.buf[:], id)
		d := time.Since(t0)
		w.spans.add(w.names[opRead], id, 0, t0, d)
		if err != nil {
			w.failed++
			break
		}
		w.readH.add(d)
		if err := sh.checkRead(w.buf[:], o.line, lo); err != nil {
			return err
		}
	case opWrite:
		v := sh.issued[o.line].Add(1)
		fillPayload(w.buf[:], o.line, v)
		t0 := time.Now()
		err := t.write(w.id, o.line, w.buf[:], id)
		d := time.Since(t0)
		w.spans.add(w.names[opWrite], id, 0, t0, d)
		if err != nil {
			w.failed++
			break
		}
		sh.done[o.line].Store(v)
		w.writeH.add(d)
	}
	w.ops.Add(1)
	return nil
}

// run issues ops until stop is set or, when fixed > 0, fixed ops are done.
func (w *worker) run(t target, sh *shadow, stop *atomic.Bool, fixed uint64) error {
	for n := uint64(0); fixed == 0 || n < fixed; n++ {
		if stop.Load() {
			return nil
		}
		if err := w.step(t, sh); err != nil {
			stop.Store(true)
			return err
		}
	}
	return nil
}

const (
	// window is the span of one throughput and CPU sample; the
	// reported values are medians over a phase's windows, so a second
	// or two of host slow-down moves a few windows, not the result.
	window = 500 * time.Millisecond
	// heapEvery is the peak-heap sampling period.
	heapEvery = 10 * time.Millisecond
)

type phaseResult struct {
	ops, failed, reads uint64
	readH, writeH      hist
	winOPS, winCPU     []float64 // per full window: ops/s, CPU µs per op
	peakHeap           uint64
	cpuUS              float64
	elapsed            time.Duration
}

// opsPerS is the median window rate, or the whole-phase rate when the
// phase was shorter than two windows.
func (r *phaseResult) opsPerS() float64 {
	if len(r.winOPS) >= 2 {
		return median(r.winOPS)
	}
	return float64(r.ops) / r.elapsed.Seconds()
}

func (r *phaseResult) cpuPerOp() float64 {
	if len(r.winCPU) >= 2 {
		return median(r.winCPU)
	}
	return r.cpuUS / float64(r.ops)
}

// runPhase drives every worker for dur, or for fixed ops each when
// dur is 0, sampling throughput, CPU and heap while they run. A
// worker's error (a payload mismatch) stops the phase and is returned.
func runPhase(t target, ws []*worker, sh *shadow, dur time.Duration, fixed uint64) (*phaseResult, error) {
	for _, w := range ws {
		w.ops.Store(0)
		w.failed, w.reads = 0, 0
		w.readH, w.writeH = hist{}, hist{}
	}
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		errs = make([]error, len(ws))
		done = make(chan struct{})
	)
	start := time.Now()
	cpu0 := cpuMicros()
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.run(t, sh, &stop, fixed)
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	res := &phaseResult{}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(heapEvery)
	winStart, winOps, winCPU := start, uint64(0), cpu0
loop:
	for {
		select {
		case <-done:
			break loop
		case now := <-tick.C:
			metrics.Read(heap)
			if h := heap[0].Value.Uint64(); h > res.peakHeap {
				res.peakHeap = h
			}
			if now.Sub(winStart) >= window {
				ops, cpu := totalOps(ws), cpuMicros()
				if n := ops - winOps; n > 0 {
					res.winOPS = append(res.winOPS, float64(n)/now.Sub(winStart).Seconds())
					res.winCPU = append(res.winCPU, (cpu-winCPU)/float64(n))
				}
				winStart, winOps, winCPU = now, ops, cpu
			}
			if dur > 0 && now.Sub(start) >= dur {
				stop.Store(true)
			}
		}
	}
	tick.Stop()
	res.elapsed = time.Since(start)
	res.cpuUS = cpuMicros() - cpu0
	for i, w := range ws {
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.ops += w.ops.Load()
		res.failed += w.failed
		res.reads += w.reads
		res.readH.merge(&w.readH)
		res.writeH.merge(&w.writeH)
	}
	return res, nil
}

func totalOps(ws []*worker) uint64 {
	var n uint64
	for _, w := range ws {
		n += w.ops.Load()
	}
	return n
}

// cpuMicros is the process's user+system CPU time in microseconds.
func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
