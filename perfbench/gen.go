package main

import (
	"math"
	"math/rand/v2"
	"sort"
)

// zipf draws keys of [0, n) with P(rank r) ∝ 1/(r+1)^s. Ranks map to keys
// through a seeded permutation, so the hot keys scatter over every shard,
// partition and snapshot block instead of crowding the low key ids.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(n int, s float64, rng *rand.Rand) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return &zipf{cdf: cdf, perm: rng.Perm(n)}
}

func (z *zipf) next(rng *rand.Rand) int {
	return z.perm[sort.SearchFloat64s(z.cdf, rng.Float64())]
}

// fill overwrites keys with fresh draws.
func (z *zipf) fill(rng *rand.Rand, keys []int) {
	for i := range keys {
		keys[i] = z.next(rng)
	}
}

// batches draws count batches of size keys each.
func (z *zipf) batches(rng *rand.Rand, count, size int) [][]int {
	flat := make([]int, count*size)
	z.fill(rng, flat)
	out := make([][]int, count)
	for i := range out {
		out[i] = flat[i*size : (i+1)*size : (i+1)*size]
	}
	return out
}

// newRand derives an independent stream per input role from the run seed,
// so adding a role never shifts the draws of another.
func newRand(seed uint64, role uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, role*0x9e3779b97f4a7c15+1))
}

// Input roles (the second PCG word).
const (
	rolePerm = iota + 1
	rolePrep
	roleIngest
	roleQuery
	roleStoreSeed
)
