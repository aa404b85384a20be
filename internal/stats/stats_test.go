package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("Value = %d, want 10", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Fatalf("Value = %v", g.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should return zeros")
	}
	for _, v := range []float64{10, 20, 30, 40, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 150 {
		t.Fatalf("Sum = %v", h.Sum())
	}
	if h.Mean() != 30 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Min() != 10 || h.Max() != 50 {
		t.Fatalf("Min/Max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	// Exponential-ish latencies from 100ns to 10ms.
	var raw []float64
	for i := 0; i < 100000; i++ {
		v := math.Exp(rng.Float64()*11.5) * 100 // 100 .. ~1e7
		raw = append(raw, v)
		h.Observe(v)
	}
	sort.Float64s(raw)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := raw[int(math.Ceil(q*float64(len(raw))))-1]
		got := h.Quantile(q)
		rel := math.Abs(got-exact) / exact
		if rel > 0.05 {
			t.Errorf("q%v: got %v exact %v rel err %.3f > 5%%", q, got, exact, rel)
		}
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram()
	h.Observe(42)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("single-value quantile(%v) = %v, want 42", q, got)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	if h.Min() != 0 {
		t.Fatalf("negative observation should clamp to 0, got min %v", h.Min())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 1; i <= 100; i++ {
		a.Observe(float64(i))
	}
	for i := 101; i <= 200; i++ {
		b.Observe(float64(i))
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 1 || a.Max() != 200 {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	// Merging an empty histogram is a no-op.
	before := a.Count()
	a.Merge(NewHistogram())
	if a.Count() != before {
		t.Fatal("merging empty changed count")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset did not clear histogram")
	}
	h.Observe(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Fatal("observe after reset broken")
	}
}

func TestHistogramObserveDurationAndSummary(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(2 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("Count = %d after one duration, want 1", h.Count())
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := time.Duration(h.Quantile(q)); got != 2*time.Millisecond {
			t.Fatalf("Quantile(%v) = %v, want 2ms", q, got)
		}
	}
}

func TestQuantileMonotonic(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(math.Abs(v))
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMergeEquivalence(t *testing.T) {
	// Merging two halves must equal observing everything in one histogram.
	f := func(a, b []float64) bool {
		h1, h2, all := NewHistogram(), NewHistogram(), NewHistogram()
		for _, v := range a {
			h1.Observe(math.Abs(v))
			all.Observe(math.Abs(v))
		}
		for _, v := range b {
			h2.Observe(math.Abs(v))
			all.Observe(math.Abs(v))
		}
		h1.Merge(h2)
		return h1.Count() == all.Count() &&
			h1.Min() == all.Min() && h1.Max() == all.Max() &&
			h1.Quantile(0.5) == all.Quantile(0.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table 1", "Application", "Writes", "Latency", "Ratio")
	tab.AddRow("NAT", 123, 2*time.Millisecond, 0.00123)
	tab.AddRow("Firewall-with-long-name", 4, time.Microsecond, 1234.5)
	out := tab.String()
	if !strings.Contains(out, "== Table 1 ==") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "NAT") || !strings.Contains(out, "2ms") {
		t.Fatalf("missing cells:\n%s", out)
	}
	if !strings.Contains(out, "0.00123") || !strings.Contains(out, "1234") {
		t.Fatalf("float formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + sep + 2 rows
	if len(lines) != 5 {
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
}

// brief renders a histogram for a failure message.
func brief(h *Histogram) string {
	return fmt.Sprintf("n=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
}

func TestHistogramCopyFrom(t *testing.T) {
	src := NewHistogram()
	for i := 1; i <= 50; i++ {
		src.Observe(float64(i * 100))
	}
	dst := NewHistogram()
	dst.Observe(9) // overwritten by the copy
	dst.CopyFrom(src)
	if dst.Count() != src.Count() || dst.Sum() != src.Sum() ||
		dst.Min() != src.Min() || dst.Max() != src.Max() ||
		dst.Quantile(0.5) != src.Quantile(0.5) {
		t.Fatalf("copy diverged: dst=%s src=%s", brief(dst), brief(src))
	}
	// The copy is deep: observing into src must not move dst.
	src.Observe(1e9)
	if dst.Max() == src.Max() {
		t.Fatal("CopyFrom aliased the bucket array")
	}
}

// TestHistogramAddDelta pins the interval-capture contract: bucket counts of
// (cur - prev) subtract exactly, so interval quantiles match a histogram
// that observed only the interval's values directly.
func TestHistogramAddDelta(t *testing.T) {
	live, prev := NewHistogram(), NewHistogram()
	direct := NewHistogram() // observes only the second interval
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		live.Observe(math.Exp(rng.Float64()*9) * 100)
	}
	prev.CopyFrom(live)
	interval := NewHistogram()
	interval.AddDelta(live, prev)
	if interval.Count() != 0 {
		t.Fatalf("empty interval has count %d", interval.Count())
	}
	for i := 0; i < 3000; i++ {
		v := math.Exp(rng.Float64()*9) * 100
		live.Observe(v)
		direct.Observe(v)
	}
	interval.AddDelta(live, prev)
	if interval.Count() != direct.Count() {
		t.Fatalf("interval count = %d, want %d", interval.Count(), direct.Count())
	}
	if math.Abs(interval.Sum()-direct.Sum()) > 1e-6*direct.Sum() {
		t.Fatalf("interval sum = %v, want %v", interval.Sum(), direct.Sum())
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got, want := interval.Quantile(q), direct.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.05 {
			t.Errorf("interval q%v = %v, direct %v (rel err %.3f)", q, got, want, rel)
		}
	}
	// Min/max are bucket-bound approximations: within one bucket (~2%).
	if rel := math.Abs(interval.Min()-direct.Min()) / direct.Min(); rel > 0.03 {
		t.Errorf("interval min = %v, direct %v", interval.Min(), direct.Min())
	}
	if rel := math.Abs(interval.Max()-direct.Max()) / direct.Max(); rel > 0.03 {
		t.Errorf("interval max = %v, direct %v", interval.Max(), direct.Max())
	}
}

func TestWindowedHistogram(t *testing.T) {
	w := NewWindowedHistogram(3)
	if len(w.win) != 3 {
		t.Fatalf("%d windows", len(w.win))
	}
	w.Current().Observe(100)
	w.Current().Observe(200)
	sealed := w.Advance()
	if sealed.Count() != 2 || sealed.Min() != 100 || sealed.Max() != 200 {
		t.Fatalf("sealed window wrong: %s", brief(sealed))
	}
	if w.Current().Count() != 0 {
		t.Fatal("new current window not empty")
	}
	w.Current().Observe(300)
	w.Advance()
	w.Current().Observe(400)

	roll := NewHistogram()
	w.Rollup(roll)
	if roll.Count() != 4 || roll.Min() != 100 || roll.Max() != 400 {
		t.Fatalf("rollup over all retained windows wrong: %s", brief(roll))
	}

	// Another advance wraps the ring onto the first window (ring of 3:
	// current + 2 sealed); its observations disappear from the rollup.
	w.Advance()
	roll = NewHistogram()
	w.Rollup(roll)
	if roll.Count() != 2 || roll.Min() != 300 || roll.Max() != 400 {
		t.Fatalf("rollup after eviction wrong: %s", brief(roll))
	}

	if len(NewWindowedHistogram(0).win) != 2 {
		t.Fatal("window floor not applied")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 100000))
	}
}

// TestCounterSingleGoroutineContract documents the Counter/Gauge
// concurrency contract: they are single-goroutine primitives for code on
// the engine goroutine. (Running this very test under -race with a plain
// Counter shared across goroutines would fail; AtomicCounter below is the
// variant that races cleanly.)
func TestCounterSingleGoroutineContract(t *testing.T) {
	var c Counter
	for i := 0; i < 1000; i++ {
		c.Inc()
	}
	c.Add(24)
	if c.Value() != 1024 {
		t.Fatalf("Counter = %d, want 1024", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("Gauge = %v, want 2.5", g.Value())
	}
}

// TestAtomicCounterConcurrent exercises AtomicCounter from many goroutines;
// `go test -race ./internal/stats` verifies the absence of data races.
func TestAtomicCounterConcurrent(t *testing.T) {
	var c AtomicCounter
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					c.Inc()
				} else {
					c.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("AtomicCounter = %d, want %d", got, workers*perWorker)
	}
}
