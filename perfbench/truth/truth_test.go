package truth

import (
	"math"
	"testing"
)

func TestCountsAndMeanRelErr(t *testing.T) {
	c := make(Counts, 5)
	c.Add([]int{1, 1, 1, 4})
	c.Add([]int{4, 0, 1})
	// Counts by hand: key0=1, key1=4, key4=2.
	want := Counts{1, 4, 0, 0, 2}
	for k := range want {
		if c[k] != want[k] {
			t.Fatalf("count[%d] = %d, want %d", k, c[k], want[k])
		}
	}
	if c.Total() != 7 {
		t.Fatalf("total %d, want 7", c.Total())
	}
	// Keys with ≥ 2 events are 1 (count 4) and 4 (count 2). Estimates 5 and
	// 1 give errors 1/4 and 1/2, mean 3/8.
	est := map[int]float64{1: 5, 4: 1}
	mean, keys := c.MeanRelErr(func(k int) float64 { return est[k] }, 2)
	if keys != 2 || math.Abs(mean-0.375) > 1e-12 {
		t.Fatalf("mean rel err %v over %d keys, want 0.375 over 2", mean, keys)
	}
}

func TestPartitionOf(t *testing.T) {
	// 10 keys in 4 partitions: floor(k·4/10) gives 0,0,0,1,1,2,2,2,3,3.
	want := []int{0, 0, 0, 1, 1, 2, 2, 2, 3, 3}
	for k, p := range want {
		if got := PartitionOf(k, 10, 4); got != p {
			t.Fatalf("PartitionOf(%d) = %d, want %d", k, got, p)
		}
	}
}

func TestHeavyHitters(t *testing.T) {
	// 8 keys, 2 partitions: keys 0-3 and 4-7. Capacity 2.
	c := make(Counts, 8)
	// Partition 0: key0×5, key1×3, key2×2 → total 10, threshold 10/2 = 5:
	// no key exceeds it (key0 has exactly 5).
	// Partition 1: key5×7, key6×1 → total 8, threshold 4: key5 only.
	c.Add([]int{0, 0, 0, 0, 0, 1, 1, 1, 2, 2})
	c.Add([]int{5, 5, 5, 5, 5, 5, 5, 6})
	got := c.HeavyHitters(2, 2)
	if len(got) != 1 {
		t.Fatalf("heavy hitters %+v, want key 5 only", got)
	}
	if h := got[0]; h.Key != 5 || h.Partition != 1 || h.Count != 7 || h.PartTotal != 8 {
		t.Fatalf("heavy hitter %+v, want key 5 in partition 1 with 7 of 8", h)
	}
	// Capacity 3 lowers partition 0's threshold to 10/3: keys 0 (5) and 1
	// (3 < 3.33, out) → key 0; partition 1's to 8/3: key 5 only.
	got = c.HeavyHitters(2, 3)
	if len(got) != 2 || got[0].Key != 0 || got[1].Key != 5 {
		t.Fatalf("heavy hitters %+v, want keys 0 and 5", got)
	}
}

func TestWindowF2(t *testing.T) {
	w := NewWindow(3)
	w.Add(1, []int{7, 7})    // epoch 1: f7=2
	w.Add(2, []int{7, 8})    // epoch 2: f7=1, f8=1
	w.Add(2, []int{8})       // epoch 2: f8=2
	w.Add(3, []int{9, 9, 9}) // epoch 3: f9=3
	// Span 1 at epoch 3: {9:3} → 9.
	if got := w.F2(3, 1); got != 9 {
		t.Fatalf("F2(3,1) = %v, want 9", got)
	}
	// Span 2: epochs 2-3: {7:1, 8:2, 9:3} → 1+4+9 = 14.
	if got := w.F2(3, 2); got != 14 {
		t.Fatalf("F2(3,2) = %v, want 14", got)
	}
	// Span 3: epochs 1-3: {7:3, 8:2, 9:3} → 9+4+9 = 22.
	if got := w.F2(3, 3); got != 22 {
		t.Fatalf("F2(3,3) = %v, want 22", got)
	}
	// Epoch 4 retires epoch 1 (3 buckets kept): span 3 at epoch 4 covers
	// epochs 2-4: {7:1, 8:2, 9:3, 5:1} → 1+4+9+1 = 15.
	w.Add(4, []int{5})
	if got := w.F2(4, 3); got != 15 {
		t.Fatalf("F2(4,3) = %v, want 15", got)
	}
	if _, ok := w.epochs[1]; ok {
		t.Fatal("epoch 1 still retained after epoch 4 with 3 buckets")
	}
}
