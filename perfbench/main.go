// Command perfbench is the counting service's benchmark. It hosts the
// service in-process the way cmd/counterd wires it — server.Open, a wire
// server over a store sink or a cluster node's sink, and the HTTP handler
// on loopback — drives it with seeded, pre-generated inputs, checks every
// answer against exact values computed apart from the service, and prints
// one JSON result line.
//
//	perfbench --workload bank-zipf --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, derived from spans the
// benchmark records around each call into a layer plus the registry's
// counters, and the spans are written to <data>/trace-<workload>.jsonl.
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opCount is one phase's tally of operations attempted and failed.
type opCount struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

// run carries one benchmark run's settings, tallies and findings.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	data     string
	sync     wal.SyncPolicy
	tr       *tracer

	ops       map[string]*opCount // phase.operation → tally
	eventsOut int64               // events handed to the service
	eventsAck int64               // events the service acknowledged
	problems  []string            // failed checks

	e2e   map[string]metric
	layer map[string]metric
}

func (r *run) op(name string, err error) {
	c := r.ops[name]
	if c == nil {
		c = &opCount{}
		r.ops[name] = c
	}
	c.Attempted++
	if err != nil {
		c.Failed++
		r.failf("%s: %v", name, err)
	}
}

func (r *run) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	r.problems = append(r.problems, msg)
}

func (r *run) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// batchID is the batch the writer is sending right now, read by traced
// sinks to tag their spans (one writer, synchronous sends).
type batchID struct{ atomic.Int64 }

func (b *batchID) get() int64 {
	if b == nil {
		return 0
	}
	return b.Load()
}

var workloads = map[string]func(*run) error{
	"bank-zipf": runBankZipf,
	"f2-window": runF2Window,
	"ring-topk": runRingTopK,
}

func main() {
	workload := flag.String("workload", "", "workload: bank-zipf | f2-window | ring-topk")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured time per run, split between ingest and queries")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	data := flag.String("data", filepath.Join(".bench_build", "perfbench"), "scratch directory for data dirs and traces")
	fsync := flag.String("fsync", "interval", "WAL fsync policy: interval (the gated runs) | always (reference figures)")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds,
		data: filepath.Join(*data, *workload),
		ops:  make(map[string]*opCount),
		e2e:  make(map[string]metric), layer: make(map[string]metric),
	}
	var err error
	if r.sync, err = wal.ParseSyncPolicy(*fsync); err != nil {
		fatal(err)
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	if err := os.RemoveAll(r.data); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(r.data, 0o755); err != nil {
		fatal(err)
	}
	start := time.Now()
	err = fn(r)
	if rmErr := os.RemoveAll(r.data); err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	if r.tr != nil {
		path := filepath.Join(*data, "trace-"+*workload+".jsonl")
		if err := r.tr.write(path); err != nil {
			fatal(err)
		}
	}

	res := result{Correct: len(r.problems) == 0, Metrics: r.e2e}
	if r.tr != nil {
		r.fillLayers(perLayer)
		res.Metrics = r.layer
		// The traced run's end-to-end figures, for the tracing overhead.
		logJSON("traced end-to-end", r.e2e)
	}
	names := make([]string, 0, len(r.ops))
	for name, c := range r.ops {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
		names = append(names, name)
	}
	sort.Strings(names)
	phases := make(map[string]any, len(r.ops)+2)
	for _, name := range names {
		phases[name] = r.ops[name]
	}
	phases["events"] = map[string]int64{"sent": r.eventsOut, "acked": r.eventsAck}
	phases["wall_s"] = time.Since(start).Seconds()
	line, _ := json.Marshal(map[string]any{"phases": phases})
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func logJSON(what string, v any) {
	b, _ := json.Marshal(v)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", what, b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
