// Package truth computes the exact answers the benchmark checks the
// counting service against. It sees only the generated stream (keys, and
// the bucket epoch each batch was sent in) and shares no code with the
// service: partitions are recomputed here from their definition, key k of
// n in partition floor(k·parts/n).
package truth

import "sort"

// Counts is the exact number of events per key.
type Counts []uint64

// Add counts one batch.
func (c Counts) Add(keys []int) {
	for _, k := range keys {
		c[k]++
	}
}

// Total is the number of events counted.
func (c Counts) Total() uint64 {
	var t uint64
	for _, v := range c {
		t += v
	}
	return t
}

// PartitionOf is the partition of key k when n keys are split into parts
// contiguous ranges.
func PartitionOf(k, n, parts int) int { return int(int64(k) * int64(parts) / int64(n)) }

// MeanRelErr is the mean of |est(k) − c(k)| / c(k) over the keys with at
// least minCount events, and how many keys that mean covers.
func (c Counts) MeanRelErr(est func(k int) float64, minCount uint64) (mean float64, keys int) {
	sum := 0.0
	for k, v := range c {
		if v < minCount {
			continue
		}
		d := (est(k) - float64(v)) / float64(v)
		if d < 0 {
			d = -d
		}
		sum += d
		keys++
	}
	if keys == 0 {
		return 0, 0
	}
	return sum / float64(keys), keys
}

// Heavy is one key above its partition's SpaceSaving threshold.
type Heavy struct {
	Key, Partition int
	Count          uint64
	// PartTotal is the partition's stream length; PartTotal/capacity is the
	// most a SpaceSaving summary of that capacity overestimates by, and the
	// count above which a key is guaranteed a slot.
	PartTotal uint64
}

// HeavyHitters returns, per partition of n keys split into parts, every
// key whose count exceeds the partition's stream length divided by
// capacity — the keys a SpaceSaving summary of that capacity must hold —
// ordered by partition, then by descending count.
func (c Counts) HeavyHitters(parts, capacity int) []Heavy {
	n := len(c)
	totals := make([]uint64, parts)
	for k, v := range c {
		totals[PartitionOf(k, n, parts)] += v
	}
	var out []Heavy
	for k, v := range c {
		p := PartitionOf(k, n, parts)
		if v*uint64(capacity) > totals[p] {
			out = append(out, Heavy{Key: k, Partition: p, Count: v, PartTotal: totals[p]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Partition != out[j].Partition {
			return out[i].Partition < out[j].Partition
		}
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Window keeps exact per-key counts for each bucket epoch of a sliding
// window, retaining the newest Buckets epochs.
type Window struct {
	Buckets int
	epochs  map[uint64]map[int]uint64
	newest  uint64
}

// NewWindow retains the newest buckets epochs.
func NewWindow(buckets int) *Window {
	return &Window{Buckets: buckets, epochs: make(map[uint64]map[int]uint64)}
}

// Add counts one batch sent while the bucket clock read epoch. Epochs
// never run backwards; buckets that fall out of the retained span are
// dropped.
func (w *Window) Add(epoch uint64, keys []int) {
	if epoch > w.newest {
		w.newest = epoch
		for e := range w.epochs {
			if e+uint64(w.Buckets) <= w.newest {
				delete(w.epochs, e)
			}
		}
	}
	m := w.epochs[epoch]
	if m == nil {
		m = make(map[int]uint64)
		w.epochs[epoch] = m
	}
	for _, k := range keys {
		m[k]++
	}
}

// F2 is the exact second frequency moment Σ_k f_k² of the events sent in
// epochs (cur−span, cur].
func (w *Window) F2(cur uint64, span int) float64 {
	agg := make(map[int]uint64)
	for d := 0; d < span && uint64(d) <= cur; d++ {
		for k, v := range w.epochs[cur-uint64(d)] {
			agg[k] += v
		}
	}
	f2 := 0.0
	for _, v := range agg {
		f2 += float64(v) * float64(v)
	}
	return f2
}
