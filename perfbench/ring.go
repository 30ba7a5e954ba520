package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/perfbench/truth"
)

// The ring-topk shape: two nodes at RF=2 on loopback serving the topk
// engine (SpaceSaving summaries of 64 Morris slots per partition) over
// 100k keys in 32 partitions, Zipf(1.1) keys.
const (
	ringN        = 100_000
	ringParts    = 32
	ringCap      = 64
	ringZipfS    = 1.1
	ringBatch    = 1024
	ringPrepFull = 384 // batches before the full checkpoint
	ringPrepTail = 256 // batches left in the WAL
	ringPool     = 512
	ringRound    = 2048 // a checkpoint of both stores starts at each round's end
	ringReps     = 3
	ringTopK     = 10
	// ringQueryEvery is the reader's schedule: one cluster-wide top-k per
	// period, timed from when it was due.
	ringQueryEvery = 50 * time.Millisecond
	// ringSlack widens the SpaceSaving bound by the slot registers' Morris
	// error: 5σ at a=0.005, σ = √(a/2) = 5%.
	ringSlack = 0.25
)

var ringAlg = bankSpec.cfg.Alg

// ringNode is one member: its store, node and servers.
type ringNode struct {
	dir                string
	httpAddr, wireAddr string
	st                 *server.Store
	node               *cluster.Node
	h                  *host
}

func (n *ringNode) self() string { return "http://" + n.httpAddr }

// ringSink is the node's wire sink with coord and repl spans around its two
// ingest verbs; the optional verbs pass straight through.
type ringSink struct {
	inner interface {
		wire.Sink
		wire.HandoffSink
		wire.DeltaSink
		wire.EpochSink
	}
	tr    *tracer
	batch *batchID
}

func (s ringSink) Batch(keys []int) (int, error) {
	id := s.tr.begin(spCoord, 0, s.batch.get())
	n, err := s.inner.Batch(keys)
	s.tr.end(id)
	return n, err
}

func (s ringSink) Repl(keys []int) (int, error) {
	id := s.tr.begin(spRepl, 0, 0)
	n, err := s.inner.Repl(keys)
	s.tr.end(id)
	return n, err
}

func (s ringSink) Fetch(p int, ver uint64) (byte, []byte, error) { return s.inner.Fetch(p, ver) }
func (s ringSink) BlockHashes(p int) (uint64, []uint64, error)   { return s.inner.BlockHashes(p) }
func (s ringSink) BlockDelta(p int, blocks []uint32) ([]byte, error) {
	return s.inner.BlockDelta(p, blocks)
}
func (s ringSink) ReplAt(keys []int, epoch uint64) (int, error) { return s.inner.ReplAt(keys, epoch) }

// ring is one ring-topk run in progress.
type ring struct {
	r      *run
	z      *zipf
	counts truth.Counts
	seed   uint64
	pool   [][]int
	nodes  [2]*ringNode
	bid    batchID
	hc     *http.Client
	acked  int

	logMu    sync.Mutex
	logLines int // the nodes' operational log lines, summarized at the end
	logFirst string
}

// logf counts the nodes' log lines; the first one and the total are
// reported on stderr at the end of the run.
func (g *ring) logf(format string, args ...any) {
	g.logMu.Lock()
	defer g.logMu.Unlock()
	if g.logLines == 0 {
		g.logFirst = fmt.Sprintf(format, args...)
	}
	g.logLines++
}

func (g *ring) storeCfg(dir string) server.Config {
	return server.Config{
		Dir: dir, N: ringN, Partitions: ringParts, Engine: engine.KindTopK,
		TopKCap: ringCap, Alg: ringAlg, Seed: g.seed,
		Sync: g.r.sync, SyncInterval: 100 * time.Millisecond,
	}
}

// open opens both stores; the returned durations are server.Open's.
func (g *ring) open(dirs [2]string, addrs [2][2]string) ([]float64, error) {
	var opens []float64
	for i := range g.nodes {
		id := g.r.tr.begin(spStoreOpen, 0, 0)
		t := time.Now()
		st, err := server.Open(g.storeCfg(dirs[i]))
		opens = append(opens, time.Since(t).Seconds())
		g.r.tr.end(id)
		g.r.op("setup.opens", err)
		if err != nil {
			return nil, err
		}
		g.nodes[i] = &ringNode{dir: dirs[i], httpAddr: addrs[i][0], wireAddr: addrs[i][1], st: st}
	}
	return opens, nil
}

// start builds both cluster nodes, serves them on their fixed loopback
// addresses and starts their loops, as counterd -cluster does.
func (g *ring) start() error {
	for i, n := range g.nodes {
		peer := g.nodes[1-i]
		node, err := cluster.New(n.st, cluster.Config{
			Self: n.self(), Join: []string{peer.self()}, RF: 2,
			HintDir: filepath.Join(n.dir, "hints"), WireAddr: n.wireAddr,
			GossipInterval: time.Second, ReplInterval: 200 * time.Millisecond,
			AntiEntropyInterval: time.Second, RebalanceInterval: 500 * time.Millisecond,
			Logf: g.logf,
		})
		if err != nil {
			return err
		}
		n.node = node
		var sink wire.Sink = node.WireSink()
		if g.r.tr != nil {
			all, ok := sink.(interface {
				wire.Sink
				wire.HandoffSink
				wire.DeltaSink
				wire.EpochSink
			})
			if !ok {
				return errors.New("cluster node sink lacks an optional wire verb")
			}
			sink = ringSink{inner: all, tr: g.r.tr, batch: &g.bid}
		}
		wln, err := listen(n.wireAddr)
		if err != nil {
			return err
		}
		hln, err := listen(n.httpAddr)
		if err != nil {
			wln.Close()
			return err
		}
		n.h = serve(n.st, wln, hln, sink, node.Handler(), cluster.StatusFor)
		n.st.SetWireInfo(n.wireAddr, wire.ProtocolVersion)
	}
	for _, n := range g.nodes {
		n.node.Start()
	}
	return nil
}

// stop shuts both members down the way counterd does, without a final
// checkpoint.
func (g *ring) stop() error {
	var errs []error
	for _, n := range g.nodes {
		if n == nil {
			continue
		}
		if n.h != nil {
			n.h.stop()
		}
		if n.node != nil {
			n.node.Stop()
		}
		errs = append(errs, n.st.Close(false))
	}
	return errors.Join(errs...)
}

func (g *ring) newClient() (*client.Client, error) {
	return client.New(client.Config{
		Seeds: []string{g.nodes[0].self()}, BatchSize: 4 * ringBatch,
		Transport: client.TransportWire, HTTPTimeout: 30 * time.Second,
	})
}

// send hands one batch to the client and flushes it: the ack point.
func (g *ring) send(c *client.Client, keys []int, batch int64) error {
	g.bid.Store(batch)
	id := g.r.tr.begin(spRoute, 0, batch)
	err := c.IncBatch(keys)
	g.r.tr.end(id)
	if err != nil {
		return err
	}
	id = g.r.tr.begin(spFlush, 0, batch)
	err = c.Flush()
	g.r.tr.end(id)
	return err
}

// converge waits until neither node holds queued replication and both
// serve byte-identical snapshots, and returns node 0's.
func (g *ring) converge(timeout time.Duration) ([]byte, error) {
	deadline := time.Now().Add(timeout)
	for {
		pending := 0.0
		for _, n := range g.nodes {
			pending += scrapeRegistry(n.st.Metrics()).sum("counterd_cluster_outbox_pending_keys")
		}
		if pending == 0 {
			var a, b bytes.Buffer
			if err := g.nodes[0].st.SnapshotTo(&a); err != nil {
				return nil, err
			}
			if err := g.nodes[1].st.SnapshotTo(&b); err != nil {
				return nil, err
			}
			if bytes.Equal(a.Bytes(), b.Bytes()) {
				return a.Bytes(), nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("replicas did not converge in %v (outbox backlog %.0f keys)", timeout, pending)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// prepare runs the ring once on fresh dirs: a prehistory, a full
// checkpoint of both stores, a WAL tail, convergence, and a clean stop.
// It returns the converged snapshot and the addresses the ring used.
func (g *ring) prepare(dirs [2]string) ([]byte, [2][2]string, error) {
	var addrs [2][2]string
	for i := range addrs {
		for j := range addrs[i] {
			ln, err := listen("")
			if err != nil {
				return nil, addrs, err
			}
			addrs[i][j] = ln.Addr().String()
			ln.Close()
		}
	}
	if _, err := g.open(dirs, addrs); err != nil {
		return nil, addrs, err
	}
	snap, err := g.prepareRing()
	if serr := g.stop(); err == nil {
		err = serr
	}
	return snap, addrs, err
}

func (g *ring) prepareRing() ([]byte, error) {
	if err := g.start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for g.nodes[0].node.Ready() != nil || g.nodes[1].node.Ready() != nil {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("ring not ready: %v / %v", g.nodes[0].node.Ready(), g.nodes[1].node.Ready())
		}
		time.Sleep(20 * time.Millisecond)
	}
	c, err := g.newClient()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rng := newRand(g.r.seed, rolePrep)
	buf := make([]int, ringBatch)
	apply := func(count int) error {
		for i := 0; i < count; i++ {
			g.z.fill(rng, buf)
			if err := g.send(c, buf, 0); err != nil {
				return err
			}
			g.counts.Add(buf)
		}
		return nil
	}
	if err := apply(ringPrepFull); err != nil {
		return nil, err
	}
	if _, err := g.converge(30 * time.Second); err != nil {
		return nil, err
	}
	for _, n := range g.nodes {
		if err := n.st.Checkpoint(); err != nil {
			return nil, err
		}
	}
	if err := apply(ringPrepTail); err != nil {
		return nil, err
	}
	return g.converge(30 * time.Second)
}

func runRingTopK(r *run) error {
	g := &ring{r: r, z: newZipf(ringN, ringZipfS, newRand(r.seed, rolePerm))}
	g.counts = make(truth.Counts, ringN)
	g.seed = newRand(r.seed, roleStoreSeed).Uint64()
	g.hc = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	g.pool = g.z.batches(newRand(r.seed, roleIngest), ringPool, ringBatch)

	prep := [2]string{filepath.Join(r.data, "prepared-0"), filepath.Join(r.data, "prepared-1")}
	prepSnap, addrs, err := g.prepare(prep)
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}

	// Setup: reopen copies of both prepared dirs, timed to the first ack.
	var times []float64
	var c *client.Client
	var before [2]scrape
	for rep := 0; rep < ringReps; rep++ {
		var dirs [2]string
		for i := range dirs {
			dirs[i] = filepath.Join(r.data, fmt.Sprintf("live-%d-%d", rep, i))
			if err := copyDir(prep[i], dirs[i]); err != nil {
				return err
			}
		}
		setupID := r.tr.begin(spSetup, 0, 0)
		opens, err := g.open(dirs, addrs)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		for i, n := range g.nodes {
			var snap bytes.Buffer
			if err := n.st.SnapshotTo(&snap); err != nil {
				return err
			}
			if !bytes.Equal(snap.Bytes(), prepSnap) {
				r.failf("recovery: node %d snapshot after reopen (%d bytes) differs from the one at close (%d bytes)", i, snap.Len(), len(prepSnap))
			}
			before[i] = scrapeRegistry(n.st.Metrics())
		}
		t1 := time.Now()
		err = g.start()
		if err == nil {
			c, err = g.newClient()
		}
		if err == nil {
			err = g.send(c, g.pool[0], 1)
		}
		r.op("setup.first_batches", err)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, opens[0]+opens[1]+time.Since(t1).Seconds())
		r.tr.end(setupID)
		if rep < ringReps-1 {
			c.Close()
			if err := g.stop(); err != nil {
				return err
			}
			for _, d := range dirs {
				if err := os.RemoveAll(d); err != nil {
					return err
				}
			}
		}
	}
	r.setE2E("setup_s", median(times), "s")
	g.acked = 1
	r.eventsOut += ringBatch
	r.eventsAck += ringBatch
	defer func() {
		c.Close()
		g.stop()
		logJSON("cluster log lines", map[string]any{"lines": g.logLines, "first": g.logFirst})
	}()
	return g.measure(c, before)
}

// measure runs the ingest phase with the scheduled reader beside it, then
// converges the replicas and checks them.
func (g *ring) measure(c *client.Client, before [2]scrape) error {
	r := g.r
	reader, err := g.newClient()
	if err != nil {
		return err
	}
	defer reader.Close()

	scrapeBoth := func() scrape {
		out := scrapeRegistry(g.nodes[0].st.Metrics())
		for k, v := range scrapeRegistry(g.nodes[1].st.Metrics()) {
			out[k] += v
		}
		return out
	}

	// The reader: one cluster-wide top-k per period, on schedule. Each
	// read is filed under the ingest round it was due in.
	stopRead := make(chan struct{})
	var readWG sync.WaitGroup
	var round atomic.Int64
	qLat := make(map[int64][]float64)
	var readErrs []string
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		t0 := time.Now()
		for j := 0; ; j++ {
			due := t0.Add(time.Duration(j) * ringQueryEvery)
			select {
			case <-stopRead:
				return
			case <-time.After(time.Until(due)):
			}
			id := r.tr.begin(spClientQuery, 0, 0)
			res, err := reader.Query(context.Background(), client.QueryOptions{Kind: client.KindTopK, K: ringTopK})
			r.tr.end(id)
			rd := round.Load()
			qLat[rd] = append(qLat[rd], float64(time.Since(due).Nanoseconds())/1e3)
			if err == nil {
				err = validTopK(res.TopK, ringTopK)
			}
			if err != nil {
				readErrs = append(readErrs, err.Error())
			}
		}
	}()

	// The backlog sampler, traced runs only.
	var backlogMax float64
	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	if r.tr != nil {
		sampleWG.Add(1)
		go func() {
			defer sampleWG.Done()
			tk := time.NewTicker(20 * time.Millisecond)
			defer tk.Stop()
			for {
				select {
				case <-stopSample:
					return
				case <-tk.C:
					backlogMax = math.Max(backlogMax, scrapeBoth().sum("counterd_cluster_outbox_pending_keys"))
				}
			}
		}()
	}

	ckptReq := make(chan struct{})
	ckptDone := make(chan error)
	go func() {
		for range ckptReq {
			var err error
			for _, n := range g.nodes {
				id := r.tr.begin(spCheckpoint, 0, 0)
				err = errors.Join(err, n.st.Checkpoint())
				r.tr.end(id)
			}
			ckptDone <- err
		}
	}()

	ingestBefore := scrapeBoth()
	rt0 := readRuntime()
	deadline := time.Now().Add(time.Duration((ingestShare + queryShare) * r.seconds * float64(time.Second)))
	pending := false
	var events int64
	ack := newRounds()
	for i := 1; ; i++ {
		if i%ringRound == 0 {
			if pending {
				err := <-ckptDone
				r.op("ingest.checkpoints", err)
				if err != nil {
					close(ckptReq)
					return err
				}
			}
			ack.close()
			round.Add(1)
			ckptReq <- struct{}{}
			pending = true
			if time.Now().After(deadline) {
				break
			}
		}
		b := g.pool[i%len(g.pool)]
		tb := time.Now()
		err := g.send(c, b, int64(i+1))
		d := time.Since(tb)
		r.eventsOut += int64(len(b))
		r.op("ingest.batches", err)
		if err != nil {
			close(ckptReq)
			return err
		}
		r.eventsAck += int64(len(b))
		events += int64(len(b))
		g.acked++
		ack.add(float64(d.Nanoseconds())/1e3, int64(len(b)))
	}
	err = <-ckptDone
	close(ckptReq)
	r.op("ingest.checkpoints", err)
	close(stopRead)
	readWG.Wait()
	close(stopSample)
	sampleWG.Wait()
	rt1 := readRuntime()
	after := scrapeBoth()
	if err != nil {
		return err
	}
	for _, e := range readErrs {
		r.op("query.reads", errors.New(e))
	}
	// Queries due in the final, unmeasured stretch after the last round
	// closed are not filed under any round.
	q := &rounds{}
	reads := 0
	for rd := int64(0); rd < round.Load(); rd++ {
		for _, l := range qLat[rd] {
			q.add(l, 0)
		}
		q.close()
	}
	for _, l := range qLat {
		reads += len(l)
	}
	for range reads - len(readErrs) {
		r.op("query.reads", nil)
	}

	r.setE2E("ingest_events_per_s", median(ack.rate), "1/s")
	r.setE2E("cpu_ns_per_event", median(ack.cpuPerEvent), "ns")
	r.setE2E("ack_p50_us", median(ack.p50), "us")
	r.setE2E("ack_p90_us", median(ack.p90), "us")
	r.setE2E("query_p50_us", median(q.p50), "us")
	r.setE2E("query_p90_us", median(q.p90), "us")
	if ckpts := delta(ingestBefore, after, "counterd_checkpoint_total"); ckpts > 0 {
		r.setE2E("checkpoint_kib", delta(ingestBefore, after, "counterd_checkpoint_bytes_total")/ckpts/1024, "KiB")
	}
	logJSON("tails", map[string]float64{
		"ack_p99_us": quantile(ack.all, 0.99), "batches": float64(len(ack.all)), "rounds": float64(len(ack.p50)),
		"query_p99_us": quantile(q.all, 0.99), "queries": float64(reads),
	})

	// Convergence: every acked event reaches both replicas, which end
	// byte-identical.
	convID := r.tr.begin(spPhase, 0, 0)
	if _, err := g.converge(60 * time.Second); err != nil {
		r.failf("ring: %v", err)
	}
	r.tr.end(convID)
	final := scrapeBoth()
	applied := final.sum("counterd_store_apply_keys_total") - before[0].sum("counterd_store_apply_keys_total") - before[1].sum("counterd_store_apply_keys_total")
	if want := 2 * float64(r.eventsAck); applied != want {
		r.failf("apply keys: counterd_store_apply_keys_total grew by %.0f on the two replicas, want 2 × %d acked", applied, r.eventsAck)
	}
	snap, err := fetch(g.hc, g.nodes[0].h.baseURL+"/v1/snapshot")
	r.op("final.snapshots", err)
	if err != nil {
		return err
	}
	r.setE2E("snapshot_kib", float64(len(snap))/1024, "KiB")

	for i := 0; i < g.acked; i++ {
		g.counts.Add(g.pool[i%len(g.pool)])
	}
	g.check(reader)

	if r.tr != nil {
		if err := g.layers(ingestBefore, after, rt0, rt1, events, len(ack.all), backlogMax); err != nil {
			return err
		}
	}
	g.pool, g.counts, g.z = nil, nil, nil
	ack, q, qLat, snap = nil, nil, nil, nil
	r.setE2E("heap_live_mib", liveHeapMiB(), "MiB")
	return nil
}

// validTopK checks a top-k answer's form: k distinct in-range keys by
// non-increasing positive estimate.
func validTopK(top []engine.Entry, k int) error {
	if len(top) != k {
		return fmt.Errorf("top-%d answered %d entries", k, len(top))
	}
	seen := make(map[int]bool, k)
	for i, e := range top {
		if e.Key < 0 || e.Key >= ringN || seen[e.Key] || !(e.Estimate > 0) {
			return fmt.Errorf("top-%d entry %d malformed: %+v", k, i, e)
		}
		if i > 0 && e.Estimate > top[i-1].Estimate {
			return fmt.Errorf("top-%d not ranked at entry %d", k, i)
		}
		seen[e.Key] = true
	}
	return nil
}

// check holds the converged ring to the SpaceSaving guarantee: on both
// replicas, every key whose count exceeds its partition's stream length
// over the capacity holds a slot, with an estimate within the summary's
// overestimate bound widened by the slot registers' Morris error; and the
// cluster-wide top-k holds the true top five.
func (g *ring) check(reader *client.Client) {
	r := g.r
	heavy := g.counts.HeavyHitters(ringParts, ringCap)
	if len(heavy) == 0 {
		r.failf("ring: no key above the SpaceSaving threshold")
	}
	for i, n := range g.nodes {
		byPart := make(map[int]map[int]float64)
		for _, h := range heavy {
			m := byPart[h.Partition]
			if m == nil {
				var out struct {
					TopK []engine.Entry `json:"topk"`
				}
				err := getJSON(g.hc, fmt.Sprintf("%s/v1/topk?k=%d&partition=%d", n.h.baseURL, ringCap, h.Partition), &out)
				r.op("final.partition_reads", err)
				m = make(map[int]float64)
				for _, e := range out.TopK {
					m[e.Key] = e.Estimate
				}
				byPart[h.Partition] = m
			}
			est, ok := m[h.Key]
			c := float64(h.Count)
			lo, hi := c*(1-ringSlack), (c+float64(h.PartTotal)/ringCap)*(1+ringSlack)
			if !ok {
				r.failf("ring: node %d: key %d (%d of %d events in partition %d) holds no slot", i, h.Key, h.Count, h.PartTotal, h.Partition)
			} else if est < lo || est > hi {
				r.failf("ring: node %d: key %d estimate %.0f outside [%.0f, %.0f] for count %d", i, h.Key, est, lo, hi, h.Count)
			}
		}
	}
	res, err := reader.Query(context.Background(), client.QueryOptions{Kind: client.KindTopK, K: ringTopK})
	r.op("final.topk_reads", err)
	if err != nil {
		return
	}
	if err := validTopK(res.TopK, ringTopK); err != nil {
		r.failf("ring: final %v", err)
	}
	keys := make([]int, len(g.counts))
	for k := range keys {
		keys[k] = k
	}
	sort.Slice(keys, func(a, b int) bool { return g.counts[keys[a]] > g.counts[keys[b]] })
	got := make(map[int]bool)
	for _, e := range res.TopK {
		got[e.Key] = true
	}
	for rank, k := range keys[:5] {
		if !got[k] {
			r.failf("ring: true rank-%d key %d (%d events) missing from the cluster-wide top-%d", rank+1, k, g.counts[k], ringTopK)
		}
	}
}

// layers derives the ring's per-layer metrics from the spans and both
// registries.
func (g *ring) layers(before, after scrape, rt0, rt1 rtStats, events int64, batches int, backlogMax float64) error {
	r := g.r
	ev := float64(events)
	r.storeLayers(before, after, rt0, rt1, ev, batches)
	replayed := 0
	for _, n := range g.nodes {
		replayed += n.st.Stats().ReplayedRecords
	}
	r.setLayer("server.replayed_records", float64(replayed), "count")
	r.setLayer("server.apply_us_p50", histQuantile(before, after, "counterd_store_apply_seconds", 0.5)*1e6, "us")

	flush, coord := r.tr.byBatch(spFlush), r.tr.byBatch(spCoord)
	var transport []float64
	for b, d := range flush {
		if c, ok := coord[b]; ok {
			transport = append(transport, d-c)
		}
	}
	r.setLayer("wire.transport_us_p50", median(transport), "us")
	r.setLayer("cluster.coord_us_p50", median(r.tr.durations(spCoord)), "us")
	r.setLayer("cluster.repl_us_p50", median(r.tr.durations(spRepl)), "us")
	r.setLayer("cluster.repl_events_per_event", delta(before, after, "counterd_cluster_repl_keys_received_total")/ev, "ratio")
	r.setLayer("cluster.ae_repairs", delta(before, after, `counterd_store_merges_total{kind="max"}`)+delta(before, after, `counterd_store_merges_total{kind="delta"}`), "count")
	r.setLayer("cluster.outbox_backlog_max", backlogMax, "keys")
	route := 0.0
	for _, d := range r.tr.durations(spRoute) {
		route += d
	}
	r.setLayer("client.route_ns_per_event", route*1e3/ev, "ns/event")
	r.setLayer("client.query_us_p50", median(r.tr.durations(spClientQuery)), "us")

	st := g.nodes[0].st
	if err := r.wireLayers(g.pool, st.MaxBatch(), st.Len()); err != nil {
		return err
	}
	if err := r.snapLayers(func(b *bytes.Buffer) error { return st.SnapshotTo(b) }); err != nil {
		return err
	}
	id := r.tr.begin(spQueryDirect, 0, 0)
	t := time.Now()
	const rounds = 16
	for i := 0; i < rounds*ringParts; i++ {
		if _, err := st.TopK(ringTopK, i%ringParts); err != nil {
			return err
		}
	}
	d := time.Since(t)
	r.tr.end(id)
	ns := float64(d.Nanoseconds()) / (rounds * ringParts)
	r.setLayer("server.query_ns", ns, "ns")
	r.setLayer("http.query_self_us", median(r.tr.durations(spClientQuery))-ringParts*ns/1e3, "us")

	e, err := engine.NewTopK(ringN, ringAlg, ringParts, ringCap, g.seed)
	if err != nil {
		return err
	}
	r.bareEngine(g.pool, e.ApplyBatch)
	return nil
}
