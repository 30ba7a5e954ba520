package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// Span names. Each is recorded by the benchmark around one call into a
// layer's public functions; none is inside the program.
const (
	spWireSend    = "wire.send"     // wire.Conn.SendBatch, client side
	spStoreApply  = "server.apply"  // Store.Apply inside the wire sink
	spStoreOpen   = "server.open"   // server.Open (recovery)
	spCheckpoint  = "server.ckpt"   // Store.Checkpoint
	spQueryHTTP   = "http.query"    // one HTTP read, send to decoded answer
	spQueryDirect = "server.query"  // Estimate / RangeEstimate / TopK called directly
	spSnapEncode  = "snapcodec.enc" // Store.SnapshotTo
	spCoord       = "cluster.coord" // node wire sink Batch (ring coordination)
	spRepl        = "cluster.repl"  // node wire sink Repl (replica apply)
	spRoute       = "client.route"  // client.Client.IncBatch
	spFlush       = "client.flush"  // client.Client.Flush
	spClientQuery = "client.query"  // client.Client.Query
	spPhase       = "bench.phase"   // a benchmark phase
	spEngineApply = "engine.apply"  // bare engine ApplyBatch
	spWireDecode  = "wire.decode"   // wire.DecodeBatch over a recorded frame
	spSnapDecode  = "snapcodec.dec" // snapcodec.Decode of the final snapshot
	spSetup       = "bench.setup"   // open to first acked batch
)

// span is one timed call: name, start and end (ns since the tracer began),
// the span that caused it, and the batch it served (0 = none).
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int
	Batch  int64
}

// tracer keeps spans in memory; a nil tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its id (1-based; 0 means untraced).
func (t *tracer) begin(name string, parent int, batch int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Batch: batch})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the closed spans of one name, in microseconds, in
// recording order.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// byBatch sums the durations (µs) of one span name per batch id.
func (t *tracer) byBatch(name string) map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]float64)
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 && s.Batch > 0 {
			out[s.Batch] += float64(s.End-s.Start) / 1e3
		}
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"start":%d,"end":%d,"parent":%d,"batch":%d}`+"\n",
			s.Name, s.Start, s.End, s.Parent, s.Batch)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
