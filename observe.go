package swishmem

import (
	"fmt"
	"io"
	"time"

	"swishmem/internal/chain"
	"swishmem/internal/ewo"
	"swishmem/internal/obs"
	"swishmem/internal/sim"
)

// Tracer re-exports the observability tracer type.
type Tracer = obs.Tracer

// MetricsRegistry re-exports the metrics registry type.
type MetricsRegistry = obs.Registry

// MetricsSnapshot re-exports a point-in-time metrics reading.
type MetricsSnapshot = obs.Snapshot

// MetricsStream re-exports the timeline streamer type.
type MetricsStream = obs.Stream

// StreamOptions re-exports the timeline streamer configuration.
type StreamOptions = obs.StreamConfig

// FlightRecord re-exports the frozen failure-context record.
type FlightRecord = obs.FlightRecord

// EnableTracing attaches a virtual-time event tracer retaining the most
// recent capacity events (<= 0 picks a default of 64k) and returns it.
// Every component reaches the tracer through the engine, so this one call
// instruments the simulator, the fabric, every switch, and every protocol
// node. Call before driving load; events already past are not recorded.
func (c *Cluster) EnableTracing(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	tr := obs.NewTracer(capacity)
	c.eng.SetTracer(tr)
	return tr
}

// DisableTracing detaches the tracer, restoring the untraced hot paths to
// a single never-taken branch.
func (c *Cluster) DisableTracing() { c.eng.SetTracer(nil) }

// Tracer returns the attached tracer, or nil when tracing is off.
func (c *Cluster) Tracer() *Tracer { return c.eng.Tracer() }

// WriteTrace exports the recorded trace as Chrome trace-event JSON
// (loadable at ui.perfetto.dev), events in (timestamp, emission) order. It
// errors if tracing is off.
func (c *Cluster) WriteTrace(w io.Writer) error {
	tr := c.eng.Tracer()
	if tr == nil {
		return fmt.Errorf("swishmem: tracing not enabled")
	}
	return tr.WriteChromeTrace(w)
}

// StreamMetrics attaches a metrics timeline to the cluster: from now on,
// every RunFor pauses at each interval boundary of virtual time and appends
// one JSONL row to w — counter deltas, gauge readings, and per-interval
// latency quantiles (see obs.Stream for the schema). Sampling happens at
// driver level, between simulation chunks, with the clock exactly at the
// tick time: the event stream, traces, and metrics are byte-identical to an
// unstreamed run. opts.Interval is forced to interval; zero-valued opts
// fields keep their defaults. Streaming costs nothing on hot paths — it only
// reads the always-on stats structs at tick boundaries.
//
// The registry is built when StreamMetrics is called, so declare registers
// first: registers declared afterwards do not join the timeline.
//
// Cluster.Run (drain to quiescence) does not tick the timeline: its end time
// is data-dependent, so timed runs (RunFor) are the streaming driver.
func (c *Cluster) StreamMetrics(w io.Writer, interval time.Duration, opts StreamOptions) (*MetricsStream, error) {
	if c.stream != nil {
		return nil, fmt.Errorf("swishmem: metrics streaming already enabled")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("swishmem: streaming interval must be positive")
	}
	opts.Interval = interval
	c.stream = obs.NewStream(c.Metrics(), w, opts)
	c.streamPeriod = sim.Duration(interval)
	c.streamTick = c.eng.Now().Add(c.streamPeriod)
	return c.stream, nil
}

// StopStreaming flushes and detaches the timeline stream, returning its
// first error (if any). A no-op when streaming was never enabled.
func (c *Cluster) StopStreaming() error {
	if c.stream == nil {
		return nil
	}
	err := c.stream.Close()
	c.stream = nil
	return err
}

// FlightRecord freezes the cluster's current observability state into a
// failure report: the last lastN trace events (empty if tracing is off), a
// final metrics snapshot, and the timeline tail (empty if streaming is off).
// Harnesses call this at the moment an oracle fails, so the artifact carries
// the system's last moments.
func (c *Cluster) FlightRecord(lastN int) *FlightRecord {
	var tail []string
	if c.stream != nil {
		tail = c.stream.Tail()
	}
	return obs.NewFlightRecord(lastN, c.Metrics().Snapshot(), tail, c.eng.Tracer())
}

// Metrics builds a registry over every live stats source in the cluster:
// engine counters, fabric totals, per-switch pipeline/memory accounting,
// controller events, and per-register protocol counters and latency
// histograms. The registry reads the live structs, so one registry built
// once stays current; snapshot it before/after a phase and Diff.
func (c *Cluster) Metrics() *MetricsRegistry {
	r := obs.NewRegistry()
	r.AddCounterFunc("sim.events_processed", "", c.EventsProcessed)
	r.AddGaugeFunc("sim.events_pending", "", func() float64 { return float64(c.EventsPending()) })

	r.AddCounterFunc("net.msgs_sent", "", func() uint64 { return c.net.Totals().MsgsSent })
	r.AddCounterFunc("net.bytes_sent", "", func() uint64 { return c.net.Totals().BytesSent })
	r.AddCounterFunc("net.msgs_delivered", "", func() uint64 { return c.net.Totals().MsgsDeliv })
	r.AddCounterFunc("net.bytes_delivered", "", func() uint64 { return c.net.Totals().BytesDeliv })
	r.AddCounterFunc("net.msgs_dropped", "", func() uint64 { return c.net.Totals().MsgsDropped })
	r.AddCounterFunc("net.msgs_dup", "", func() uint64 { return c.net.Totals().MsgsDup })

	cs := &c.ctrl.Stats
	r.AddCounter("ctrl.heartbeats", "", &cs.Heartbeats)
	r.AddCounter("ctrl.failures", "", &cs.FailuresSeen)
	r.AddCounter("ctrl.chain_reconfigs", "", &cs.ChainReconfig)
	r.AddCounter("ctrl.group_reconfigs", "", &cs.GroupReconfig)
	r.AddCounter("ctrl.recoveries", "", &cs.Recoveries)

	for i, sw := range c.switches {
		lbl := fmt.Sprintf("switch=%d", sw.Addr())
		ss := &sw.Stats
		r.AddCounter("switch.pkts_processed", lbl, &ss.Processed)
		r.AddCounter("switch.pkts_dropped", lbl, &ss.Dropped)
		r.AddCounter("switch.pkts_forwarded", lbl, &ss.Forwarded)
		r.AddCounter("switch.recirculations", lbl, &ss.Recirculated)
		r.AddCounter("switch.punts", lbl, &ss.Punted)
		r.AddCounter("switch.queue_drops", lbl, &ss.QueueDrops)
		r.AddCounter("switch.msgs_handled", lbl, &ss.MsgsHandled)
		r.AddCounter("switch.ctrl_ops", lbl, &ss.CtrlOps)
		swc := sw
		r.AddGaugeFunc("switch.mem_used_bytes", lbl, func() float64 { return float64(swc.MemoryUsed()) })

		in := c.instances[i]
		in.EachChain(func(reg uint16, n *chain.Node) {
			n.RegisterMetrics(r, fmt.Sprintf("%s,reg=%d", lbl, reg))
		})
		in.EachEWO(func(reg uint16, n *ewo.Node) {
			n.RegisterMetrics(r, fmt.Sprintf("%s,reg=%d", lbl, reg))
		})
	}
	return r
}
