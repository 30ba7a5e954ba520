package main

import (
	"bytes"
	"time"

	"repro/internal/snapcodec"
	"repro/internal/wire"
)

type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric with its unit, in BENCHMARK.json
// order. A traced run reports each one; where a workload's engine lacks
// the mechanism (dirty blocks on an engine without delta checkpoints) it
// reads 0.
var perLayer = []layerMetric{
	{"wire.bytes_per_event", "B/event"},
	{"wire.decode_ns_per_event", "ns/event"},
	{"wire.transport_us_p50", "us"},
	{"server.apply_us_p50", "us"},
	{"server.apply_self_us_mean", "us"},
	{"server.open_ms", "ms"},
	{"server.replayed_records", "count"},
	{"server.checkpoint_ms", "ms"},
	{"server.query_ns", "ns"},
	{"http.query_self_us", "us"},
	{"wal.append_us_mean", "us"},
	{"wal.commit_us_mean", "us"},
	{"wal.bytes_per_event", "B/event"},
	{"wal.records_per_batch", "records"},
	{"wal.fsyncs", "count"},
	{"engine.apply_ns_per_event", "ns/event"},
	{"engine.dirty_blocks_per_checkpoint", "blocks"},
	{"snapcodec.encode_ms", "ms"},
	{"snapcodec.decode_ms", "ms"},
	{"checkpoint.delta_share", "ratio"},
	{"checkpoint.count", "count"},
	{"runtime.alloc_bytes_per_event", "B/event"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

// ringLayers are the cluster and client metrics only the ring-topk
// reference workload reaches; its traced run reports them beside perLayer.
var ringLayers = []layerMetric{
	{"cluster.coord_us_p50", "us"},
	{"cluster.repl_us_p50", "us"},
	{"cluster.repl_events_per_event", "ratio"},
	{"cluster.ae_repairs", "count"},
	{"cluster.outbox_backlog_max", "keys"},
	{"client.route_ns_per_event", "ns/event"},
	{"client.query_us_p50", "us"},
}

// fillLayers sets every per-layer metric the workload did not reach to 0.
func (r *run) fillLayers(list []layerMetric) {
	for _, m := range list {
		if _, ok := r.layer[m.name]; !ok {
			r.setLayer(m.name, 0, m.unit)
		}
	}
}

// storeLayers derives the per-layer metrics one store and the ingest
// phase share on every workload: WAL, checkpoints, the runtime, recovery
// and the snapshot codec. before and after bracket the ingest phase.
func (r *run) storeLayers(before, after scrape, rt0, rt1 rtStats, events float64, batches int) {
	appendUs := histMean(before, after, "counterd_wal_append_seconds") * 1e6
	commitUs := histMean(before, after, "counterd_wal_commit_seconds") * 1e6
	applyUs := histMean(before, after, "counterd_store_apply_seconds") * 1e6
	r.setLayer("server.apply_self_us_mean", applyUs-appendUs-commitUs, "us")
	r.setLayer("wal.append_us_mean", appendUs, "us")
	r.setLayer("wal.commit_us_mean", commitUs, "us")
	r.setLayer("wal.bytes_per_event", delta(before, after, "counterd_wal_staged_bytes_total")/events, "B/event")
	r.setLayer("wal.records_per_batch", delta(before, after, "counterd_wal_staged_records_total")/float64(batches), "records")
	r.setLayer("wal.fsyncs", delta(before, after, "counterd_wal_fsync_seconds_count"), "count")

	ckpts := delta(before, after, "counterd_checkpoint_total")
	r.setLayer("checkpoint.count", ckpts, "count")
	if ckpts > 0 {
		r.setLayer("checkpoint.delta_share", delta(before, after, `counterd_checkpoint_total{kind="delta"}`)/ckpts, "ratio")
	}
	r.setLayer("server.open_ms", median(r.tr.durations(spStoreOpen))/1e3, "ms")
	r.setLayer("server.checkpoint_ms", median(r.tr.durations(spCheckpoint))/1e3, "ms")

	r.setLayer("runtime.alloc_bytes_per_event", (rt1.allocBytes-rt0.allocBytes)/events, "B/event")
	r.setLayer("runtime.gc_cycles", rt1.gcCycles-rt0.gcCycles, "count")
	r.setLayer("runtime.gc_pause_ms", (rt1.pauseNs-rt0.pauseNs)/1e6, "ms")
}

// wireLayers measures the wire codec on the batches the run sent: frame
// bytes per event, and wire.DecodeBatch time per event over the frames'
// payloads.
func (r *run) wireLayers(pool [][]int, maxBatch, maxKey int) error {
	var frameBytes, keys int
	payloads := make([][]byte, len(pool))
	for i, b := range pool {
		payloads[i] = wire.EncodeBatch(b)
		frameBytes += len(wire.AppendFrame(nil, wire.FrameBatch, payloads[i]))
		keys += len(b)
	}
	r.setLayer("wire.bytes_per_event", float64(frameBytes)/float64(keys), "B/event")
	id := r.tr.begin(spWireDecode, 0, 0)
	t := time.Now()
	for _, p := range payloads {
		if _, err := wire.DecodeBatch(p, maxBatch, maxKey); err != nil {
			return err
		}
	}
	d := time.Since(t)
	r.tr.end(id)
	r.setLayer("wire.decode_ns_per_event", float64(d.Nanoseconds())/float64(keys), "ns/event")
	return nil
}

// snapLayers times Store.SnapshotTo (through snapshot) and snapcodec.Decode
// of the blob it produced.
func (r *run) snapLayers(snapshot func(*bytes.Buffer) error) error {
	var buf bytes.Buffer
	id := r.tr.begin(spSnapEncode, 0, 0)
	t := time.Now()
	err := snapshot(&buf)
	enc := time.Since(t)
	r.tr.end(id)
	if err != nil {
		return err
	}
	id = r.tr.begin(spSnapDecode, 0, 0)
	t = time.Now()
	_, err = snapcodec.Decode(buf.Bytes())
	dec := time.Since(t)
	r.tr.end(id)
	if err != nil {
		return err
	}
	r.setLayer("snapcodec.encode_ms", float64(enc.Nanoseconds())/1e6, "ms")
	r.setLayer("snapcodec.decode_ms", float64(dec.Nanoseconds())/1e6, "ms")
	return nil
}

// bareEngine times ApplyBatch of a bare engine over the pool.
func (r *run) bareEngine(pool [][]int, apply func([]int)) {
	id := r.tr.begin(spEngineApply, 0, 0)
	keys := 0
	t := time.Now()
	for _, b := range pool {
		apply(b)
		keys += len(b)
	}
	d := time.Since(t)
	r.tr.end(id)
	r.setLayer("engine.apply_ns_per_event", float64(d.Nanoseconds())/float64(keys), "ns/event")
}

// queryLayers times direct calls into the store's query functions and
// splits the HTTP read latency into the store's share and the rest.
func (r *run) queryLayers(count int, direct func(i int) error) error {
	id := r.tr.begin(spQueryDirect, 0, 0)
	t := time.Now()
	for i := 0; i < count; i++ {
		if err := direct(i); err != nil {
			return err
		}
	}
	d := time.Since(t)
	r.tr.end(id)
	ns := float64(d.Nanoseconds()) / float64(count)
	r.setLayer("server.query_ns", ns, "ns")
	r.setLayer("http.query_self_us", median(r.tr.durations(spQueryHTTP))-ns/1e3, "us")
	return nil
}
