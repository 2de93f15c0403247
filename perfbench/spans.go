package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

type spanName uint8

const (
	spanClientRead spanName = iota
	spanClientWrite
	spanHandler
	spanCoreRead
	spanCoreWrite
	numSpanNames
)

var spanNames = [numSpanNames]string{"client.read", "client.write", "server.handler", "core.read", "core.write"}

// spanCap bounds the spans a log keeps for writing out; totals keep
// counting past it. A traced phase issues up to millions of ops, and
// holding every span would cost more memory than the engine itself.
const spanCap = 1 << 14

type span struct {
	id, parent uint64
	start, dur int64 // ns; start is Unix time
	name       spanName
}

// spanLog records spans at the boundaries the benchmark calls. A nil
// log records nothing, so the untraced path pays one pointer compare.
// Span IDs are unique across logs (the high 16 bits are the log's
// tag); an op's trace ID is its root span's ID.
type spanLog struct {
	mu    sync.Mutex // only the handler log is shared between goroutines
	tag   uint64
	seq   uint64
	kept  []span
	n     [numSpanNames]uint64
	total [numSpanNames]int64 // ns
}

func newSpanLog(tag int) *spanLog {
	return &spanLog{tag: uint64(tag+1) << 48, kept: make([]span, 0, spanCap)}
}

func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	l.seq++
	return l.tag | l.seq
}

func (l *spanLog) add(name spanName, id, parent uint64, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.n[name]++
	l.total[name] += int64(d)
	if len(l.kept) < spanCap {
		l.kept = append(l.kept, span{id: id, parent: parent, start: start.UnixNano(), dur: int64(d), name: name})
	}
}

// spanTotals sums span counts and durations by name over logs.
type spanTotals struct {
	n     [numSpanNames]uint64
	total [numSpanNames]int64
}

func sumSpans(logs []*spanLog) spanTotals {
	var t spanTotals
	for _, l := range logs {
		for k := range t.n {
			t.n[k] += l.n[k]
			t.total[k] += l.total[k]
		}
	}
	return t
}

// meanUS is the mean duration in µs of the named spans (0 if none).
func (t spanTotals) meanUS(names ...spanName) float64 {
	var n uint64
	var ns int64
	for _, k := range names {
		n += t.n[k]
		ns += t.total[k]
	}
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

// writeSpans writes every kept span as one JSON object per line.
func writeSpans(path string, logs []*spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	for _, l := range logs {
		for _, s := range l.kept {
			trace := s.id
			if s.parent != 0 {
				trace = s.parent
			}
			fmt.Fprintf(bw, `{"trace":"%016x","span":"%016x","parent":"%016x","name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				trace, s.id, s.parent, spanNames[s.name], s.start, s.start+s.dur)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
