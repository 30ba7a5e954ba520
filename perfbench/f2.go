package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
	"repro/perfbench/truth"
)

// f2Spec is the windowed AMS F2 engine: 5×64 cells per bucket, 8 buckets,
// over the bank's key space and law. The bucket clock advances with the
// event count, so rotations land on the same batches in every run.
var f2Spec = singleSpec{
	cfg: server.Config{
		N: 1_000_000, Partitions: 64, Engine: engine.KindF2,
		F2Rows: 5, F2Cols: 64, Buckets: 8, BucketDur: time.Minute,
		Alg: bankSpec.cfg.Alg,
	},
	zipfS: 1.05, batch: 1024,
	prepFull: 512, prepTail: 384, prepEpoch: 64,
	pool: 512, round: 512, epochLen: 256,
	setupReps:  5,
	queryRound: 64,
}

// f2MaxRelErr is TestF2ErrorBound's median-of-means bound, 3·√(2/cols).
var f2MaxRelErr = 3 * math.Sqrt(2/float64(f2Spec.cfg.F2Cols))

// runF2Window: the windowed F2 engine, where engine apply is nearly all of
// the cost per event. Reads are GET /v1/f2?window=w for w = 1..8.
func runF2Window(r *run) error {
	s := newSingle(r, f2Spec)
	s.win = truth.NewWindow(f2Spec.cfg.Buckets)
	b := f2Spec.cfg.Buckets
	answers := make(map[int]float64)
	ask := func(i int) error {
		w := 1 + i%b
		var out struct {
			Estimate float64 `json:"estimate"`
		}
		if err := getJSON(s.hc, s.h.baseURL+"/v1/f2?window="+strconv.Itoa(w), &out); err != nil {
			return err
		}
		if prev, ok := answers[w]; ok && prev != out.Estimate {
			return fmt.Errorf("window %d answered %v, then %v with no write between", w, prev, out.Estimate)
		}
		answers[w] = out.Estimate
		return nil
	}
	check := func() {
		cur := s.liveEpoch(s.acked - 1)
		if len(answers) != b {
			r.failf("f2: answers for %d of %d windows", len(answers), b)
		}
		for w, est := range answers {
			want := s.win.F2(cur, w)
			if rel := math.Abs(est-want) / want; !(rel <= f2MaxRelErr) {
				r.failf("f2: window %d estimate %.4g vs exact %.4g: rel err %.3f exceeds %.3f", w, est, want, rel, f2MaxRelErr)
			}
		}
	}
	traced := func() error {
		if err := r.queryLayers(4*b, func(i int) error {
			_, err := s.st.RangeEstimate(-1, 1+i%b)
			return err
		}); err != nil {
			return err
		}
		c := s.spec.cfg
		e, err := engine.NewF2Window(c.N, c.Partitions, c.F2Rows, c.F2Cols, c.Buckets, int64(c.BucketDur), s.seed)
		if err != nil {
			return err
		}
		r.bareEngine(s.pool, e.ApplyBatch)
		return nil
	}
	return s.run(ask, check, traced)
}
