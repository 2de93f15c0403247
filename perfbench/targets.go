package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"synergy/internal/core"
	"synergy/internal/server"
	"synergy/internal/telemetry"
)

// batchLines is the chunk size of the set-up load and the final
// verification sweep: the server's default per-request batch limit.
const batchLines = server.DefaultMaxBatchLines

// loadDataset writes version 1 of every line in batches.
func loadDataset(writeBatch func(lines []uint64, src []byte) error) error {
	lines := make([]uint64, batchLines)
	src := make([]byte, batchLines*lineSize)
	for first := uint64(0); first < dataLines; first += batchLines {
		for k := range lines {
			lines[k] = first + uint64(k)
			fillPayload(src[k*lineSize:(k+1)*lineSize], lines[k], 1)
		}
		if err := writeBatch(lines, src); err != nil {
			return fmt.Errorf("load lines %d..: %w", first, err)
		}
	}
	return nil
}

// readDataset reads every line into dst in batches.
func readDataset(dst []byte, readBatch func(lines []uint64, dst []byte) error) error {
	lines := make([]uint64, batchLines)
	for first := uint64(0); first < dataLines; first += batchLines {
		for k := range lines {
			lines[k] = first + uint64(k)
		}
		if err := readBatch(lines, dst[first*lineSize:(first+batchLines)*lineSize]); err != nil {
			return fmt.Errorf("verify lines %d..: %w", first, err)
		}
	}
	return nil
}

func newArray(reg *telemetry.Registry) (*core.Array, error) {
	return core.NewArray(core.Config{DataLines: dataLines, Ranks: numRanks, MetadataCache: metaCache, Telemetry: reg})
}

// engineTarget drives a core.Array in-process.
type engineTarget struct {
	arr *core.Array
}

// setupEngine builds the array, loads the dataset and flushes it. reg
// is nil on untraced runs.
func setupEngine(reg *telemetry.Registry) (*engineTarget, error) {
	arr, err := newArray(reg)
	if err != nil {
		return nil, err
	}
	if err := loadDataset(arr.WriteBatch); err != nil {
		return nil, err
	}
	if err := arr.Flush(context.Background()); err != nil {
		return nil, fmt.Errorf("flush after load: %w", err)
	}
	return &engineTarget{arr: arr}, nil
}

func (e *engineTarget) read(_ int, line uint64, dst []byte, _ uint64) error {
	_, err := e.arr.Read(line, dst)
	return err
}

func (e *engineTarget) write(_ int, line uint64, src []byte, _ uint64) error {
	return e.arr.Write(line, src)
}

func (e *engineTarget) readAll(dst []byte) error {
	if err := e.arr.Flush(context.Background()); err != nil {
		return fmt.Errorf("flush before verify: %w", err)
	}
	infos := make([]core.ReadInfo, batchLines)
	return readDataset(dst, func(lines []uint64, dst []byte) error {
		return e.arr.ReadBatchInto(lines, dst, infos)
	})
}

func (e *engineTarget) close() error { return nil }

const benchToken = "perfbench"

// rpcTarget drives an in-process synergy-server over loopback, one
// server.Client (and so one keep-alive connection) per worker.
type rpcTarget struct {
	arr     *core.Array
	reg     *telemetry.Registry
	srv     *server.Server
	clients []*server.Client
	// traced phases only: a second listener serving the server's
	// handler through handlerSpans.
	handler *spanLog
	traced  *http.Server
	served  chan error

	closeOnce sync.Once
	closeErr  error
}

// setupRPC builds the tenant array, starts the server with
// synergy-server's defaults (telemetry, flight recorder and SLO on)
// except the patrol scrubber, whose periodic passes are work no
// request asks for, connects one client per worker, loads the dataset
// through WriteBatch and flushes. A non-nil handler log puts a span
// around every Handler().ServeHTTP call.
func setupRPC(workers int, handler *spanLog) (*rpcTarget, error) {
	reg := telemetry.New()
	arr, err := newArray(reg)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Tenants:   []server.TenantConfig{{Name: "bench", Token: benchToken, Backend: arr}},
		Telemetry: reg,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	r := &rpcTarget{arr: arr, reg: reg, srv: srv, handler: handler}
	addr := srv.Addr
	if handler != nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(err, r.close())
		}
		r.traced = &http.Server{Handler: &handlerSpans{next: srv.Handler(), log: handler}, ReadHeaderTimeout: 5 * time.Second}
		r.served = make(chan error, 1)
		go func() { r.served <- r.traced.Serve(ln) }()
		addr = ln.Addr().String()
	}
	for w := 0; w < workers; w++ {
		r.clients = append(r.clients, server.NewClient(addr, benchToken))
	}
	ctx := context.Background()
	if err := loadDataset(func(lines []uint64, src []byte) error {
		return r.clients[0].WriteBatch(ctx, lines, src)
	}); err != nil {
		return nil, errors.Join(err, r.close())
	}
	if err := arr.Flush(ctx); err != nil {
		return nil, errors.Join(fmt.Errorf("flush after load: %w", err), r.close())
	}
	return r, nil
}

// traceCtx carries the op's span to the server as a traceparent whose
// parent-id is the client span (the handler wrapper strips it again).
func traceCtx(span uint64) context.Context {
	if span == 0 {
		return context.Background()
	}
	var tid telemetry.TraceID
	var sid telemetry.SpanID
	binary.BigEndian.PutUint64(tid[8:], span)
	binary.BigEndian.PutUint64(sid[:], span)
	return server.WithTrace(context.Background(), &server.Trace{Traceparent: telemetry.Traceparent(tid, sid)})
}

func (r *rpcTarget) read(w int, line uint64, dst []byte, span uint64) error {
	_, err := r.clients[w].Read(traceCtx(span), line, dst)
	return err
}

func (r *rpcTarget) write(w int, line uint64, src []byte, span uint64) error {
	return r.clients[w].Write(traceCtx(span), line, src)
}

func (r *rpcTarget) readAll(dst []byte) error {
	ctx := context.Background()
	if err := r.arr.Flush(ctx); err != nil {
		return fmt.Errorf("flush before verify: %w", err)
	}
	return readDataset(dst, func(lines []uint64, dst []byte) error {
		return r.clients[0].ReadBatch(ctx, lines, dst, nil)
	})
}

// close stops the clients and servers; it is safe to call twice.
func (r *rpcTarget) close() error {
	r.closeOnce.Do(func() {
		for _, c := range r.clients {
			c.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var errs []error
		if r.traced != nil {
			if err := r.traced.Shutdown(ctx); err != nil {
				errs = append(errs, err)
			}
			if err := <-r.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
				errs = append(errs, err)
			}
		}
		if err := r.srv.Close(ctx); err != nil {
			errs = append(errs, err)
		}
		r.closeErr = errors.Join(errs...)
	})
	return r.closeErr
}

// handlerSpans times the server's handler. It takes the client's span
// from the traceparent header and removes the header, so the server
// serves the request exactly as it would an untraced one instead of
// deep-tracing it.
type handlerSpans struct {
	next http.Handler
	log  *spanLog
}

func (h *handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, parent, ok := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		// Set-up, warm-up and verification requests carry no client
		// span and are not measured.
		h.next.ServeHTTP(w, r)
		return
	}
	r.Header.Del("traceparent")
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	pid := binary.BigEndian.Uint64(parent[:])
	h.log.mu.Lock()
	h.log.add(spanHandler, h.log.newID(), pid, t0, d)
	h.log.mu.Unlock()
}
