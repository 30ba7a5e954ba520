package main

import (
	"fmt"
	"strconv"

	"repro/internal/bank"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/shardbank"
)

// bankSpec is counterd's default shape: the Morris bank (a=0.005, 14-bit
// registers) over 1M keys, 256 lock stripes, 64 partitions.
var bankSpec = singleSpec{
	cfg: server.Config{
		N: 1_000_000, Shards: 256, Partitions: 64,
		Alg: bank.NewMorrisAlg(0.005, 14), Engine: engine.KindBank,
	},
	zipfS: 1.05, batch: 1024,
	prepFull: 3072, prepDeltas: 4, prepDeltaLen: 4, prepTail: 1024,
	pool: 1024, round: 2048,
	setupReps:  9,
	queryRound: 256,
}

// bankMinCount and bankMaxMeanRelErr are the hot-key accuracy bound the
// repository's Morris(a=0.005) bank tests use: over keys with at least 1000
// events, the mean |relative error| stays below 3·√(a/2) ≈ 0.15.
const (
	bankMinCount      = 1000
	bankMaxMeanRelErr = 0.15
)

// runBankZipf: the paper's counters as served. Zipf(1.05) keys in
// 1024-key batches over one wire connection; reads are GET
// /v1/estimate/{key} from one reader.
func runBankZipf(r *run) error {
	s := newSingle(r, bankSpec)
	qkeys := s.zipfKeys(4096)
	answers := make(map[int]float64)
	ask := func(i int) error {
		k := qkeys[i%len(qkeys)]
		var out struct {
			Key      int     `json:"key"`
			Estimate float64 `json:"estimate"`
		}
		if err := getJSON(s.hc, s.h.baseURL+"/v1/estimate/"+strconv.Itoa(k), &out); err != nil {
			return err
		}
		if out.Key != k {
			return fmt.Errorf("asked for key %d, answered key %d", k, out.Key)
		}
		if prev, ok := answers[k]; ok && prev != out.Estimate {
			return fmt.Errorf("key %d answered %v, then %v with no write between", k, prev, out.Estimate)
		}
		answers[k] = out.Estimate
		return nil
	}
	check := func() {
		est := func(k int) float64 {
			v, err := s.st.Estimate(k)
			if err != nil {
				r.failf("estimate %d: %v", k, err)
			}
			return v
		}
		if m, keys := s.counts.MeanRelErr(est, bankMinCount); keys == 0 || m > bankMaxMeanRelErr {
			r.failf("bank: mean |rel err| %.4f over %d keys with ≥ %d events exceeds %.2f", m, keys, bankMinCount, bankMaxMeanRelErr)
		}
		// The HTTP answers, held to the same bound over the keys read.
		sum, keys := 0.0, 0
		for k, v := range answers {
			c := float64(s.counts[k])
			if c < bankMinCount {
				continue
			}
			d := (v - c) / c
			if d < 0 {
				d = -d
			}
			sum += d
			keys++
		}
		if keys == 0 || sum/float64(keys) > bankMaxMeanRelErr {
			r.failf("bank: HTTP answers' mean |rel err| %.4f over %d hot keys exceeds %.2f", sum/float64(max(keys, 1)), keys, bankMaxMeanRelErr)
		}
	}
	traced := func() error {
		if err := r.queryLayers(len(qkeys), func(i int) error {
			_, err := s.st.Estimate(qkeys[i])
			return err
		}); err != nil {
			return err
		}
		c := s.spec.cfg
		e := engine.NewBank(shardbank.New(c.N, c.Alg, c.Shards, s.seed))
		r.bareEngine(s.pool, e.ApplyBatch)
		return nil
	}
	return s.run(ask, check, traced)
}
