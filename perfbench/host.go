package main

import (
	"errors"
	"net"
	"net/http"
	"sync"

	"repro/internal/server"
	"repro/internal/wire"
)

// host serves one store the way counterd does: a wire listener feeding a
// sink, and an HTTP listener serving a handler, both on loopback.
type host struct {
	wire     *wire.Server
	http     *http.Server
	wireAddr string
	baseURL  string
	wg       sync.WaitGroup
}

func listen(addr string) (net.Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	return net.Listen("tcp", addr)
}

// serve starts the wire and HTTP servers on the given listeners.
func serve(st *server.Store, wln, hln net.Listener, sink wire.Sink, handler http.Handler, errorCode func(error) int) *host {
	h := &host{
		wire: wire.NewServer(sink, wire.ServerConfig{
			MaxBatch:  st.MaxBatch(),
			MaxKey:    st.Len(),
			ErrorCode: errorCode,
			Metrics:   st.Metrics(),
		}),
		http:     &http.Server{Handler: handler},
		wireAddr: wln.Addr().String(),
		baseURL:  "http://" + hln.Addr().String(),
	}
	h.wg.Add(2)
	go func() { defer h.wg.Done(); h.wire.Serve(wln) }()
	go func() {
		defer h.wg.Done()
		if err := h.http.Serve(hln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			panic(err)
		}
	}()
	return h
}

// stop closes both listeners and every open connection, and waits for the
// accept loops to return.
func (h *host) stop() {
	h.http.Close()
	h.wire.Close()
	h.wg.Wait()
}

// storeSink applies wire batches to a single-node store, as counterd's
// own single-node sink does. With a tracer it records a server.apply span
// per batch, tagged with the batch the writer is sending.
type storeSink struct {
	st    *server.Store
	tr    *tracer
	batch *batchID
}

func (s storeSink) Batch(keys []int) (int, error) {
	id := s.tr.begin(spStoreApply, 0, s.batch.get())
	err := s.st.Apply(keys)
	s.tr.end(id)
	if err != nil {
		return 0, err
	}
	return len(keys), nil
}

func (s storeSink) Repl(keys []int) (int, error) { return s.Batch(keys) }
