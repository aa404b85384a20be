package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"swishmem/internal/stats"
)

// Timeline streamer: samples a Registry on a fixed interval and appends one
// schema-versioned JSONL row per tick, turning the point-in-time snapshots
// into a time series. Counters are emitted as per-interval deltas, gauges as
// absolute values, and histograms as per-interval p50/p90/p99 computed from
// a stats.WindowedHistogram ring fed by bucket-exact deltas of the live
// cumulative histogram — so tail latency is per-window, not
// cumulative-since-boot, and the components' own instrumentation is never
// touched (with streaming off the hot paths are exactly as before).
//
// Who drives Tick decides the time base: the sim facade calls it at virtual-
// time boundaries (fully deterministic — byte-identical rows across repeated
// runs), the live harness on a wall clock.

// TimelineSchema versions the JSONL row format; the header row carries it.
const TimelineSchema = 1

// StreamConfig parameterizes a Stream.
type StreamConfig struct {
	// Interval is the sampling period, recorded in the header so readers can
	// turn deltas into rates. The caller owns the actual tick cadence.
	Interval time.Duration
	// Windows is the per-histogram ring size for the rolling tail quantile
	// (current window + Windows-1 sealed). Default 8.
	Windows int
	// Node is an optional node label recorded in the header and every row
	// (live clusters run one stream per process).
	Node string
	// Tail is how many rendered rows Tail() retains for the /timeline
	// endpoint and the flight recorder. Default 64.
	Tail int
}

// histTrack is the per-histogram interval state: the previous cumulative
// capture, the window ring, and a rollup scratch histogram.
type histTrack struct {
	prev    *stats.Histogram
	win     *stats.WindowedHistogram
	scratch *stats.Histogram
}

// Stream appends timeline rows for one Registry. Single-goroutine, like the
// registry it samples; live callers serialize Tick with the metric owners
// (e.g. under Fabric.Call). Errors are sticky: after a write error every
// Tick is a no-op and Close returns the error.
type Stream struct {
	reg  *Registry
	w    *bufio.Writer
	cfg  StreamConfig
	prev map[string]float64 // counter value at the previous tick
	hist map[string]*histTrack
	tail []string
	rows int
	err  error
	head bool
}

// NewStream attaches a timeline stream to a registry. Nothing is written
// until the first Tick (which emits the header row first).
func NewStream(reg *Registry, w io.Writer, cfg StreamConfig) *Stream {
	if cfg.Windows <= 0 {
		cfg.Windows = 8
	}
	if cfg.Tail <= 0 {
		cfg.Tail = 64
	}
	return &Stream{
		reg:  reg,
		w:    bufio.NewWriter(w),
		cfg:  cfg,
		prev: make(map[string]float64),
		hist: make(map[string]*histTrack),
	}
}

// Rows returns the number of data rows written (the header is not counted).
func (s *Stream) Rows() int { return s.rows }

// Tail returns the most recently written rows (oldest first, at most
// cfg.Tail), without trailing newlines.
func (s *Stream) Tail() []string {
	out := make([]string, len(s.tail))
	copy(out, s.tail)
	return out
}

// Tick samples the registry and appends one row stamped ts (nanoseconds;
// virtual time in sim, wall-clock offset in live). Counter samples are
// emitted only when they moved this interval and histogram samples only
// when the interval saw observations, so quiet intervals produce short
// rows; gauges are always present.
func (s *Stream) Tick(ts int64) error {
	if s.err != nil {
		return s.err
	}
	if !s.head {
		s.head = true
		hdr := fmt.Sprintf(`{"timeline":%d,"interval_ns":%d,"windows":%d`,
			TimelineSchema, s.cfg.Interval.Nanoseconds(), s.cfg.Windows)
		if s.cfg.Node != "" {
			hdr += `,"node":` + strconv.Quote(s.cfg.Node)
		}
		hdr += "}"
		s.push(hdr)
	}

	// Sort the registry's metrics by sample key each tick: cheap at this
	// cadence, and robust to registries that grow between ticks.
	idx := make([]int, len(s.reg.metrics))
	for i := range idx {
		idx[i] = i
	}
	key := func(m *metric) string { return m.name + "{" + m.labels + "}" }
	sort.Slice(idx, func(a, b int) bool {
		return key(&s.reg.metrics[idx[a]]) < key(&s.reg.metrics[idx[b]])
	})

	row := fmt.Sprintf(`{"ts":%d`, ts)
	if s.cfg.Node != "" {
		row += `,"node":` + strconv.Quote(s.cfg.Node)
	}
	row += `,"samples":[`
	n := 0
	sample := func(m *metric) string {
		n++
		out := `{"name":` + strconv.Quote(m.name)
		if m.labels != "" {
			out += `,"labels":` + strconv.Quote(m.labels)
		}
		return out
	}
	for _, i := range idx {
		m := &s.reg.metrics[i]
		k := key(m)
		var part string
		switch m.kind {
		case KindCounter:
			v := float64(m.counter())
			d := v - s.prev[k]
			s.prev[k] = v
			if d == 0 {
				continue
			}
			part = sample(m) + `,"delta":` + formatValue(d) + "}"
		case KindGauge:
			part = sample(m) + `,"value":` + formatValue(m.gauge()) + "}"
		case KindHist:
			tr := s.hist[k]
			if tr == nil {
				tr = &histTrack{
					prev:    stats.NewHistogram(),
					win:     stats.NewWindowedHistogram(s.cfg.Windows),
					scratch: stats.NewHistogram(),
				}
				s.hist[k] = tr
			}
			tr.win.Current().AddDelta(m.hist, tr.prev)
			tr.prev.CopyFrom(m.hist)
			sealed := tr.win.Advance()
			if sealed.Count() == 0 {
				continue
			}
			tr.scratch.Reset()
			tr.win.Rollup(tr.scratch)
			part = sample(m) + fmt.Sprintf(`,"n":%d,"p50":%s,"p90":%s,"p99":%s,"max":%s,"roll_n":%d,"roll_p99":%s}`,
				sealed.Count(),
				formatValue(sealed.Quantile(0.5)),
				formatValue(sealed.Quantile(0.9)),
				formatValue(sealed.Quantile(0.99)),
				formatValue(sealed.Max()),
				tr.scratch.Count(),
				formatValue(tr.scratch.Quantile(0.99)))
		}
		if n > 1 {
			row += ","
		}
		row += part
	}
	row += "]}"
	s.rows++
	s.push(row)
	return s.err
}

// push appends one line to the writer and the tail ring.
func (s *Stream) push(line string) {
	if _, err := s.w.WriteString(line + "\n"); err != nil {
		s.err = err
		return
	}
	if err := s.w.Flush(); err != nil {
		s.err = err
		return
	}
	s.tail = append(s.tail, line)
	if len(s.tail) > s.cfg.Tail {
		s.tail = s.tail[len(s.tail)-s.cfg.Tail:]
	}
}

// Close flushes buffered output and returns the sticky error.
func (s *Stream) Close() error {
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}
