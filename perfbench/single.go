package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
	"repro/perfbench/truth"
)

// Shares of --seconds given to the two measured phases; the rest covers
// the final snapshot and the checks.
const (
	ingestShare = 0.6
	queryShare  = 0.3
)

// singleSpec is the shape of a single-node workload: the store it serves,
// the input law, how its data dir is prepared, and how ingest is cut into
// rounds.
type singleSpec struct {
	cfg   server.Config // engine shape; Dir, Clock and Seed are set per open
	zipfS float64
	batch int // keys per wire batch

	// Preparation: prepFull batches, a full checkpoint, then prepDeltas
	// short segments of prepDeltaLen batches each closed by a checkpoint
	// (block deltas where the engine tracks dirty blocks), then prepTail
	// batches left in the WAL for recovery to replay.
	prepFull, prepDeltas, prepDeltaLen, prepTail int
	prepEpoch                                    int // prep batches per bucket epoch (0 = no bucket clock)

	pool      int // distinct ingest batches, sent in rotation
	round     int // ingest batches per round; a checkpoint starts at each round's end
	epochLen  int // ingest batches per bucket epoch (0 = no bucket clock)
	setupReps int // reopens of the prepared dir; setup_s is their median

	queryRound int // queries per query round
}

// single is one single-node workload run in progress.
type single struct {
	r    *run
	spec singleSpec
	z    *zipf

	counts truth.Counts
	win    *truth.Window // bucket-clocked workloads only

	epoch      atomic.Uint64 // the store's bucket clock
	liveEpoch0 uint64        // epoch of ingest batch 0
	prepSnap   []byte        // snapshot at the prepared dir's close

	pool  [][]int
	st    *server.Store
	h     *host
	conn  *wire.Conn
	bid   batchID
	hc    *http.Client
	seed  uint64 // the store's generator seed
	acked int    // ingest batches acked, batch 0 included
}

func newSingle(r *run, spec singleSpec) *single {
	s := &single{r: r, spec: spec, z: newZipf(spec.cfg.N, spec.zipfS, newRand(r.seed, rolePerm))}
	s.counts = make(truth.Counts, spec.cfg.N)
	s.seed = newRand(r.seed, roleStoreSeed).Uint64()
	s.hc = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	return s
}

func (s *single) storeCfg(dir string) server.Config {
	c := s.spec.cfg
	c.Dir = dir
	c.Seed = s.seed
	c.Sync = s.r.sync
	c.SyncInterval = 100 * time.Millisecond
	if s.win != nil {
		c.Clock = s.epoch.Load
	}
	return c
}

func (s *single) liveEpoch(i int) uint64 {
	if s.spec.epochLen == 0 {
		return 0
	}
	return s.liveEpoch0 + uint64(i/s.spec.epochLen)
}

// prepare builds the data dir every setup reopens: a full checkpoint, a
// checkpoint chain and a WAL tail, written by the store under test.
func (s *single) prepare(dir string) error {
	st, err := server.Open(s.storeCfg(dir))
	if err != nil {
		return err
	}
	rng := newRand(s.r.seed, rolePrep)
	buf := make([]int, s.spec.batch)
	j := 0
	apply := func(count int) error {
		for c := 0; c < count; c++ {
			s.z.fill(rng, buf)
			if s.spec.prepEpoch > 0 {
				s.epoch.Store(uint64(1 + j/s.spec.prepEpoch))
			}
			if err := st.Apply(buf); err != nil {
				return err
			}
			s.counts.Add(buf)
			if s.win != nil {
				s.win.Add(s.epoch.Load(), buf)
			}
			j++
		}
		return nil
	}
	if err := apply(s.spec.prepFull); err != nil {
		return err
	}
	if err := st.Checkpoint(); err != nil {
		return err
	}
	for d := 0; d < s.spec.prepDeltas; d++ {
		if err := apply(s.spec.prepDeltaLen); err != nil {
			return err
		}
		if err := st.Checkpoint(); err != nil {
			return err
		}
	}
	if err := apply(s.spec.prepTail); err != nil {
		return err
	}
	var snap bytes.Buffer
	if err := st.SnapshotTo(&snap); err != nil {
		return err
	}
	s.prepSnap = snap.Bytes()
	s.liveEpoch0 = s.epoch.Load() + 1
	return st.Close(false)
}

// setup reopens copies of the prepared dir setupReps times. Each reopen is
// timed from server.Open to the first acked batch; the recovered snapshot
// is compared with the one taken at the prepared dir's close, outside the
// timing. The last reopen stays up for the rest of the run.
func (s *single) setup(prepDir string) (before scrape, err error) {
	var times []float64
	for rep := 0; rep < s.spec.setupReps; rep++ {
		dir := filepath.Join(s.r.data, fmt.Sprintf("live-%d", rep))
		if err := copyDir(prepDir, dir); err != nil {
			return nil, err
		}
		s.epoch.Store(s.liveEpoch(0))
		setupID := s.r.tr.begin(spSetup, 0, 0)
		t0 := time.Now()
		openID := s.r.tr.begin(spStoreOpen, setupID, 0)
		st, err := server.Open(s.storeCfg(dir))
		s.r.tr.end(openID)
		openDur := time.Since(t0)
		s.r.op("setup.opens", err)
		if err != nil {
			return nil, err
		}
		var snap bytes.Buffer
		if err := st.SnapshotTo(&snap); err != nil {
			return nil, err
		}
		if !bytes.Equal(snap.Bytes(), s.prepSnap) {
			s.r.failf("recovery: snapshot after reopen (%d bytes) differs from the one at close (%d bytes)", snap.Len(), len(s.prepSnap))
		}
		before = scrapeRegistry(st.Metrics())

		t1 := time.Now()
		wln, err := listen("")
		if err != nil {
			return nil, err
		}
		hln, err := listen("")
		if err != nil {
			return nil, err
		}
		h := serve(st, wln, hln, storeSink{st: st, tr: s.r.tr, batch: &s.bid}, server.Handler(st), server.StatusFor)
		conn, err := wire.Dial(h.wireAddr, 30*time.Second)
		if err != nil {
			return nil, err
		}
		s.bid.Store(1)
		n, err := conn.SendBatch(s.pool[0])
		s.r.op("setup.first_batches", err)
		if err != nil {
			return nil, err
		}
		times = append(times, (openDur + time.Since(t1)).Seconds())
		s.r.tr.end(setupID)
		if rep < s.spec.setupReps-1 {
			conn.Close()
			h.stop()
			if err := st.Close(false); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		s.st, s.h, s.conn = st, h, conn
		s.acked = 1
		s.r.eventsOut += int64(len(s.pool[0]))
		s.r.eventsAck += int64(n)
	}
	s.r.setE2E("setup_s", median(times), "s")
	return before, nil
}

// ingest sends the pool in rotation over one wire connection, a closed
// loop, in whole rounds until its share of the run has passed. A
// checkpoint starts at each round's end and runs beside the next round's
// writes, as counterd's checkpoint loop does; the writer waits for it at
// the following round's end, so every run takes the same checkpoints at
// the same batch positions.
func (s *single) ingest() (rs *rounds, events int64, err error) {
	ckptReq := make(chan struct{})
	ckptDone := make(chan error)
	var dirty []float64
	go func() {
		for range ckptReq {
			if s.r.tr != nil {
				dirty = append(dirty, float64(s.st.Stats().DirtyBlocks))
			}
			id := s.r.tr.begin(spCheckpoint, 0, 0)
			err := s.st.Checkpoint()
			s.r.tr.end(id)
			ckptDone <- err
		}
	}()
	defer func() {
		close(ckptReq)
		if s.r.tr != nil && len(dirty) > 0 {
			s.r.setLayer("engine.dirty_blocks_per_checkpoint", mean(dirty), "blocks")
		}
	}()

	deadline := time.Now().Add(time.Duration(ingestShare * s.r.seconds * float64(time.Second)))
	pending := false
	rs = newRounds()
	for i := 1; ; i++ {
		if i%s.spec.round == 0 {
			if pending {
				err := <-ckptDone
				s.r.op("ingest.checkpoints", err)
				if err != nil {
					return nil, 0, err
				}
			}
			rs.close()
			ckptReq <- struct{}{}
			pending = true
			if time.Now().After(deadline) {
				break
			}
		}
		b := s.pool[i%len(s.pool)]
		s.epoch.Store(s.liveEpoch(i))
		s.bid.Store(int64(i + 1))
		id := s.r.tr.begin(spWireSend, 0, int64(i+1))
		tb := time.Now()
		n, err := s.conn.SendBatch(b)
		d := time.Since(tb)
		s.r.tr.end(id)
		s.r.eventsOut += int64(len(b))
		s.r.op("ingest.batches", err)
		if err != nil {
			return nil, 0, err
		}
		if n != len(b) {
			s.r.failf("ingest: batch %d acked %d of %d events", i, n, len(b))
		}
		s.r.eventsAck += int64(n)
		events += int64(n)
		s.acked++
		rs.add(float64(d.Nanoseconds())/1e3, int64(n))
	}
	err = <-ckptDone
	s.r.op("ingest.checkpoints", err)
	return rs, events, err
}

// queries runs a closed loop of HTTP reads from one reader, in whole rounds
// of queryRound until its share of the run has passed. ask performs read i
// and returns an error for a transport failure or a malformed answer.
func (s *single) queries(ask func(i int) error) *rounds {
	deadline := time.Now().Add(time.Duration(queryShare * s.r.seconds * float64(time.Second)))
	rs := newRounds()
	for i := 0; ; {
		for q := 0; q < s.spec.queryRound; q, i = q+1, i+1 {
			id := s.r.tr.begin(spQueryHTTP, 0, 0)
			t := time.Now()
			err := ask(i)
			d := time.Since(t)
			s.r.tr.end(id)
			s.r.op("query.reads", err)
			rs.add(float64(d.Nanoseconds())/1e3, 0)
		}
		rs.close()
		if time.Now().After(deadline) {
			return rs
		}
	}
}

// fetch GETs url and returns the body of its 200 answer.
func fetch(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// getJSON fetches url and decodes its JSON answer into out.
func getJSON(hc *http.Client, url string, out any) error {
	body, err := fetch(hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// run drives one single-node workload end to end. ask performs query i;
// check compares the service's answers with the truth; traced adds the
// workload's own per-layer metrics on a traced run.
func (s *single) run(ask func(i int) error, check func(), traced func() error) error {
	r := s.r
	s.pool = s.z.batches(newRand(r.seed, roleIngest), s.spec.pool, s.spec.batch)

	prepDir := filepath.Join(r.data, "prepared")
	if err := s.prepare(prepDir); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	before, err := s.setup(prepDir)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer func() {
		s.conn.Close()
		s.h.stop()
		s.st.Close(false)
	}()

	// Ingest.
	ingestBefore := scrapeRegistry(s.st.Metrics())
	rt0 := readRuntime()
	phaseID := r.tr.begin(spPhase, 0, 0)
	ack, events, err := s.ingest()
	r.tr.end(phaseID)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	rt1 := readRuntime()
	after := scrapeRegistry(s.st.Metrics())
	batches := len(ack.all)
	r.setE2E("ingest_events_per_s", median(ack.rate), "1/s")
	r.setE2E("cpu_ns_per_event", median(ack.cpuPerEvent), "ns")
	r.setE2E("ack_p50_us", median(ack.p50), "us")
	r.setE2E("ack_p90_us", median(ack.p90), "us")
	ckpts := delta(ingestBefore, after, "counterd_checkpoint_total")
	if ckpts > 0 {
		r.setE2E("checkpoint_kib", delta(ingestBefore, after, "counterd_checkpoint_bytes_total")/ckpts/1024, "KiB")
	}
	logJSON("ack tail", map[string]float64{"ack_p99_us": quantile(ack.all, 0.99), "batches": float64(batches), "rounds": float64(len(ack.p50))})

	// Every acked increment is counted exactly once.
	if got, want := delta(before, after, "counterd_store_apply_keys_total"), float64(r.eventsAck); got != want {
		r.failf("apply keys: counterd_store_apply_keys_total grew by %.0f, %.0f events acked", got, want)
	}
	for i := 0; i < s.acked; i++ {
		b := s.pool[i%len(s.pool)]
		s.counts.Add(b)
		if s.win != nil {
			s.win.Add(s.liveEpoch(i), b)
		}
	}

	// Queries, with no writes running.
	q := s.queries(ask)
	r.setE2E("query_p50_us", median(q.p50), "us")
	r.setE2E("query_p90_us", median(q.p90), "us")
	logJSON("query tail", map[string]float64{"query_p99_us": quantile(q.all, 0.99), "queries": float64(len(q.all)), "rounds": float64(len(q.p50))})

	// Final snapshot, as a peer or operator would pull it.
	snap, err := fetch(s.hc, s.h.baseURL+"/v1/snapshot")
	r.op("final.snapshots", err)
	if err != nil {
		return err
	}
	r.setE2E("snapshot_kib", float64(len(snap))/1024, "KiB")

	check()

	if r.tr != nil {
		r.storeLayers(ingestBefore, after, rt0, rt1, float64(events), batches)
		r.setLayer("server.replayed_records", float64(s.st.Stats().ReplayedRecords), "count")
		r.setLayer("server.apply_us_p50", median(r.tr.durations(spStoreApply)), "us")
		send, apply := r.tr.byBatch(spWireSend), r.tr.byBatch(spStoreApply)
		var transport []float64
		for b, d := range send {
			if a, ok := apply[b]; ok {
				transport = append(transport, d-a)
			}
		}
		r.setLayer("wire.transport_us_p50", median(transport), "us")
		if err := r.wireLayers(s.pool, s.st.MaxBatch(), s.st.Len()); err != nil {
			return err
		}
		if err := r.snapLayers(func(b *bytes.Buffer) error { return s.st.SnapshotTo(b) }); err != nil {
			return err
		}
		if err := traced(); err != nil {
			return err
		}
	}

	s.pool, s.counts, s.win, ack, q, snap = nil, nil, nil, nil, nil, nil
	s.z = nil
	r.setE2E("heap_live_mib", liveHeapMiB(), "MiB")
	return nil
}

// copyDir copies the regular files of src (and of its subdirectories) into
// a fresh dst and fsyncs them, so the reopen that follows starts from a
// durable dir, as after a real restart, instead of paying for the copy's
// writeback in its own directory fsync.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := copyDir(from, to); err != nil {
				return err
			}
			continue
		}
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(from, to); err != nil {
			return err
		}
	}
	return syncPath(dst)
}

func copyFile(from, to string) error {
	b, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(to, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// zipfKeys draws count query keys from the workload's law.
func (s *single) zipfKeys(count int) []int {
	keys := make([]int, count)
	s.z.fill(newRand(s.r.seed, roleQuery), keys)
	return keys
}
