package main

import (
	"bufio"
	"bytes"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	imetrics "repro/internal/metrics"
)

// scrape is one Prometheus text rendering of a registry, keyed by series
// (name plus label string, exactly as rendered).
type scrape map[string]float64

func scrapeRegistry(reg *imetrics.Registry) scrape {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		panic(err) // a bytes.Buffer write cannot fail
	}
	out := make(scrape)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of the named family (all label values).
func (s scrape) sum(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta returns after−before for the family summed over labels.
func delta(before, after scrape, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// histMean is the mean observation of a histogram family between two
// scrapes, in the histogram's unit.
func histMean(before, after scrape, name string) float64 {
	n := delta(before, after, name+"_count")
	if n == 0 {
		return 0
	}
	return delta(before, after, name+"_sum") / n
}

// histQuantile interpolates quantile q of the observations a histogram
// family recorded between two scrapes, from its cumulative buckets.
func histQuantile(before, after scrape, name string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range after {
		if !strings.HasPrefix(k, name+"_bucket{") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		rest := k[i+4:]
		le, err := strconv.ParseFloat(rest[:strings.IndexByte(rest, '"')], 64)
		if err != nil {
			le = math.Inf(1)
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-prev)/math.Max(b.n-prev, 1)
		}
		lo, prev = b.le, b.n
	}
	return lo
}

// quantile is the nearest-rank quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	return quantile(c, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtStats reads the Go runtime counters the per-layer runtime metrics use.
type rtStats struct {
	allocBytes, gcCycles, pauseNs float64
}

func readRuntime() rtStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/pauses:seconds"},
	}
	metrics.Read(s)
	out := rtStats{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
	}
	// Pause time from the histogram: bucket midpoints times counts.
	h := s[2].Value.Float64Histogram()
	for i, c := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		out.pauseNs += float64(c) * (lo + hi) / 2 * 1e9
	}
	return out
}

// liveHeapMiB forces two collections and reports the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// rounds cuts a measured phase into rounds and keeps per-round figures, so
// a run reports the median round: a burst of outside load that spoils one
// round moves the median little.
type rounds struct {
	t0     time.Time
	cpu0   time.Duration
	events int64
	lat    []float64 // the current round's latencies, µs

	rate, cpuPerEvent, p50, p90 []float64 // one entry per closed round
	all                         []float64 // every latency, µs
}

func newRounds() *rounds {
	r := &rounds{}
	r.open()
	return r
}

func (r *rounds) open() {
	r.t0, r.cpu0, r.events, r.lat = time.Now(), cpuTime(), 0, r.lat[:0]
}

// add records one operation's latency and the events it carried.
func (r *rounds) add(latUs float64, events int64) {
	r.lat = append(r.lat, latUs)
	r.all = append(r.all, latUs)
	r.events += events
}

// close ends the current round and opens the next.
func (r *rounds) close() {
	if len(r.lat) == 0 {
		r.open()
		return
	}
	wall, cpu := time.Since(r.t0), cpuTime()-r.cpu0
	if r.events > 0 {
		r.rate = append(r.rate, float64(r.events)/wall.Seconds())
		r.cpuPerEvent = append(r.cpuPerEvent, float64(cpu.Nanoseconds())/float64(r.events))
	}
	r.p50 = append(r.p50, quantile(r.lat, 0.5))
	r.p90 = append(r.p90, quantile(r.lat, 0.9))
	r.open()
}
