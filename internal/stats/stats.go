// Package stats provides the measurement primitives used by the SwiShmem
// experiment harness: counters, gauges, latency histograms with percentile
// queries, and plain-text table rendering for the benchmark output.
package stats

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
//
// Concurrency contract: Counter (like Gauge and Histogram) is
// single-goroutine. Everything in the simulation runs on one engine
// goroutine, so the protocol and switch stats structs need no atomics and
// the hot paths pay a plain increment. Code that aggregates across worker
// goroutines (the parallel experiment runner) must use AtomicCounter
// instead; sharing a plain Counter across goroutines is a data race, which
// TestCounterSingleGoroutineContract documents and `go test -race` on
// AtomicCounter verifies.
type Counter struct{ n uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.n++ }

// Add adds delta; negative deltas panic (counters are monotone).
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Gauge is a point-in-time value. Single-goroutine, like Counter.
type Gauge struct{ v float64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return g.v }

// AtomicCounter is the cross-goroutine variant of Counter, for accounting
// shared by the parallel experiment runner's workers. The simulation's own
// stats stay plain Counters (one engine goroutine); use this only where
// goroutines genuinely meet.
type AtomicCounter struct{ n atomic.Uint64 }

// Inc adds 1.
func (c *AtomicCounter) Inc() { c.n.Add(1) }

// Add adds delta.
func (c *AtomicCounter) Add(delta uint64) { c.n.Add(delta) }

// Value returns the current count.
func (c *AtomicCounter) Value() uint64 { return c.n.Load() }

// Histogram records float64 observations with log-scaled buckets plus exact
// min/max/sum. It is tuned for latency-like distributions spanning many
// orders of magnitude (nanoseconds to seconds).
type Histogram struct {
	count   uint64
	sum     float64
	min     float64
	max     float64
	buckets []uint64 // log-scale buckets
}

// Buckets: value v (>0) maps to bucket floor(log(v)/log(growth)) offset so
// that sub-1.0 values land in bucket 0. growth chosen for ~2% resolution.
const (
	histGrowth  = 1.02
	histBuckets = 2048
)

var logGrowth = math.Log(histGrowth)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.Inf(1), max: math.Inf(-1), buckets: make([]uint64, histBuckets)}
}

func bucketOf(v float64) int {
	if v <= 1 {
		return 0
	}
	b := int(math.Log(v) / logGrowth)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

func bucketUpper(i int) float64 {
	if i == 0 {
		return 1
	}
	return math.Pow(histGrowth, float64(i+1))
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketOf(v)]++
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an approximation of the q-th quantile (0 <= q <= 1).
// The answer is exact for min (q=0) and max (q=1) and within one bucket
// (~2%) elsewhere.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			up := bucketUpper(i)
			if up > h.max {
				up = h.max
			}
			if up < h.min {
				up = h.min
			}
			return up
		}
	}
	return h.max
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	h.count, h.sum = 0, 0
	h.min, h.max = math.Inf(1), math.Inf(-1)
	for i := range h.buckets {
		h.buckets[i] = 0
	}
}

// CopyFrom makes h an exact copy of src, reusing h's bucket array.
func (h *Histogram) CopyFrom(src *Histogram) {
	h.count, h.sum, h.min, h.max = src.count, src.sum, src.min, src.max
	copy(h.buckets, src.buckets)
}

func bucketLower(i int) float64 {
	if i == 0 {
		return 0
	}
	return math.Pow(histGrowth, float64(i))
}

// AddDelta merges the observations cur gained since prev was captured —
// i.e. the interval cur−prev — into h. Counts, sums, and bucket arrays
// subtract exactly (they are monotone), so interval quantiles are as
// accurate as the live histogram's. Min/max cannot be recovered from
// cumulative state; they are approximated from the bounds of the first and
// last bucket that gained observations (within one bucket, ~2%), clamped by
// the cumulative max. prev must be an earlier capture of the same stream
// (e.g. via CopyFrom); cur must not have been Reset in between.
func (h *Histogram) AddDelta(cur, prev *Histogram) {
	dc := cur.count - prev.count
	if dc == 0 {
		return
	}
	h.count += dc
	h.sum += cur.sum - prev.sum
	for i := range h.buckets {
		d := cur.buckets[i] - prev.buckets[i]
		if d == 0 {
			continue
		}
		h.buckets[i] += d
		if lo := bucketLower(i); lo < h.min {
			h.min = lo
		}
		up := bucketUpper(i)
		if up > cur.max {
			up = cur.max
		}
		if up > h.max {
			h.max = up
		}
	}
}

// WindowedHistogram is a ring of N interval histograms: observations land in
// the current window, Advance seals it and rotates, and Rollup merges the
// retained windows — so quantiles cover the recent past instead of
// everything since boot. The ring holds the current window plus the N-1 most
// recently sealed ones. Single-goroutine, like Histogram.
type WindowedHistogram struct {
	win []*Histogram
	cur int
}

// NewWindowedHistogram returns a ring of n windows (n < 2 is raised to 2:
// one current, one sealed).
func NewWindowedHistogram(n int) *WindowedHistogram {
	if n < 2 {
		n = 2
	}
	w := &WindowedHistogram{win: make([]*Histogram, n)}
	for i := range w.win {
		w.win[i] = NewHistogram()
	}
	return w
}

// Current returns the live (unsealed) window.
func (w *WindowedHistogram) Current() *Histogram { return w.win[w.cur] }

// Advance seals the current window, rotates to the next slot (evicting the
// oldest sealed window), and returns the just-sealed window. The returned
// histogram stays valid until the ring wraps back to its slot.
func (w *WindowedHistogram) Advance() *Histogram {
	sealed := w.win[w.cur]
	w.cur = (w.cur + 1) % len(w.win)
	w.win[w.cur].Reset()
	return sealed
}

// Rollup merges every retained window (sealed and current) into dst.
func (w *WindowedHistogram) Rollup(dst *Histogram) {
	for _, h := range w.win {
		dst.Merge(h)
	}
}

// Table renders experiment results as an aligned plain-text table, in the
// style of the rows a paper reports.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
