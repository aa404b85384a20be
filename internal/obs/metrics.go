package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"swishmem/internal/stats"
)

// Metrics registry: a pull-based unification of the accounting that already
// exists across the codebase (stats.Counter fields on protocol nodes,
// netem.LinkStats totals, pisa memory charges). Components are not
// rewritten to push into the registry; instead the cluster registers
// closures that read the live structs, so building a registry costs nothing
// on any hot path and Snapshot() observes whatever the components already
// maintain.

// Kind distinguishes metric semantics in snapshots and dumps.
type Kind uint8

const (
	KindCounter Kind = iota // monotone count; Diff subtracts
	KindGauge               // point-in-time value; Diff passes through
	KindHist                // distribution; Diff subtracts counts, keeps quantiles
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHist:
		return "histogram"
	}
	return "unknown"
}

type metric struct {
	name    string
	labels  string // "k=v,k=v", pre-rendered; empty for unlabeled
	kind    Kind
	counter func() uint64
	gauge   func() float64
	hist    *stats.Histogram
}

// Registry is a named collection of metric sources. Like the rest of the
// simulation it is single-goroutine; the parallel experiment runner keeps
// one registry per worker and merges snapshots.
type Registry struct {
	metrics []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// AddCounterFunc registers a monotone counter read through fn at snapshot
// time. labels is a pre-rendered "k=v,k=v" string ("" for none).
func (r *Registry) AddCounterFunc(name, labels string, fn func() uint64) {
	r.metrics = append(r.metrics, metric{name: name, labels: labels, kind: KindCounter, counter: fn})
}

// AddCounter registers an existing stats.Counter.
func (r *Registry) AddCounter(name, labels string, c *stats.Counter) {
	r.AddCounterFunc(name, labels, c.Value)
}

// AddGaugeFunc registers a point-in-time value read through fn.
func (r *Registry) AddGaugeFunc(name, labels string, fn func() float64) {
	r.metrics = append(r.metrics, metric{name: name, labels: labels, kind: KindGauge, gauge: fn})
}

// AddHistogram registers a live histogram; snapshots capture its count,
// mean, and tail quantiles.
func (r *Registry) AddHistogram(name, labels string, h *stats.Histogram) {
	r.metrics = append(r.metrics, metric{name: name, labels: labels, kind: KindHist, hist: h})
}

// Sample is one metric observation inside a Snapshot.
type Sample struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value"` // counter/hist: count; gauge: value
	// Distribution fields, histogram samples only.
	Mean float64 `json:"mean,omitempty"`
	P50  float64 `json:"p50,omitempty"`
	P99  float64 `json:"p99,omitempty"`
	Max  float64 `json:"max,omitempty"`
}

func (s Sample) key() string { return s.Name + "{" + s.Labels + "}" }

// Snapshot is a point-in-time reading of every registered metric, sorted by
// (name, labels) so output and diffs are deterministic.
type Snapshot struct {
	Samples []Sample `json:"samples"`
}

// Snapshot reads every metric now.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{Samples: make([]Sample, 0, len(r.metrics))}
	for _, m := range r.metrics {
		s := Sample{Name: m.name, Labels: m.labels, Kind: m.kind.String()}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.counter())
		case KindGauge:
			s.Value = m.gauge()
		case KindHist:
			s.Value = float64(m.hist.Count())
			s.Mean = m.hist.Mean()
			s.P50 = m.hist.Quantile(0.5)
			s.P99 = m.hist.Quantile(0.99)
			s.Max = m.hist.Max()
		}
		out.Samples = append(out.Samples, s)
	}
	sort.Slice(out.Samples, func(i, j int) bool { return out.Samples[i].key() < out.Samples[j].key() })
	return out
}

// Value returns the sample value for an exact (name, labels) pair.
func (s Snapshot) Value(name, labels string) (float64, bool) {
	want := Sample{Name: name, Labels: labels}.key()
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].key() >= want })
	if i < len(s.Samples) && s.Samples[i].key() == want {
		return s.Samples[i].Value, true
	}
	return 0, false
}

// Sum adds the values of every sample with the given name across all label
// sets. For histograms this sums counts.
func (s Snapshot) Sum(name string) float64 {
	var total float64
	for _, sm := range s.Samples {
		if sm.Name == name {
			total += sm.Value
		}
	}
	return total
}

// Diff returns s - prev: counter and histogram counts are subtracted for
// samples present in prev (missing ones keep their absolute value), gauges
// pass through unchanged. Distribution fields stay absolute — log-bucket
// quantiles do not subtract meaningfully.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	base := make(map[string]float64, len(prev.Samples))
	for _, sm := range prev.Samples {
		if sm.Kind != KindGauge.String() {
			base[sm.key()] = sm.Value
		}
	}
	out := Snapshot{Samples: make([]Sample, len(s.Samples))}
	copy(out.Samples, s.Samples)
	for i := range out.Samples {
		sm := &out.Samples[i]
		if sm.Kind == KindGauge.String() {
			continue
		}
		if v, ok := base[sm.key()]; ok {
			sm.Value -= v
		}
	}
	return out
}

// WriteText renders the snapshot as aligned "name{labels} value" lines.
func (s Snapshot) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	width := 0
	ident := func(sm Sample) string {
		if sm.Labels == "" {
			return sm.Name
		}
		return sm.Name + "{" + sm.Labels + "}"
	}
	for _, sm := range s.Samples {
		if n := len(ident(sm)); n > width {
			width = n
		}
	}
	for _, sm := range s.Samples {
		fmt.Fprintf(bw, "%-*s  %s", width, ident(sm), formatValue(sm.Value))
		if sm.Kind == KindHist.String() && sm.Value > 0 {
			fmt.Fprintf(bw, "  mean=%s p50=%s p99=%s max=%s",
				formatValue(sm.Mean), formatValue(sm.P50), formatValue(sm.P99), formatValue(sm.Max))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// formatValue renders a float compactly: integers without a fraction,
// everything else with enough digits to round-trip.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
