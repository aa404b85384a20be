package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Workload names (BENCHMARK.json lists the same four).
const (
	wlSRO = "live-sro-write"
	wlEWO = "live-ewo-add"
	wlMix = "live-nf-mix"
	wlSim = "sim-ddos-8sw"
)

var workloads = []string{wlSRO, wlEWO, wlMix, wlSim}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes are human-readable lines (oracle failures, sample counts)
	// printed to stderr, never part of the JSON.
	notes []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// failAll marks the run incorrect. A run that fails an oracle reports every
// op as failed (finish does that, whenever the oracle ran), so a wrong
// answer can never look like a fast one.
func (r *result) failAll(format string, args ...any) {
	r.Correct = false
	r.notef("ORACLE FAILED: "+format, args...)
}

// finish applies the failed-oracle rule once the op counts are final.
func (r *result) finish() {
	if !r.Correct {
		r.Failed = r.Attempted
	}
}

// writeTable prints the metrics by name with their units, sorted.
func (r *result) writeTable(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-36s %16.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-36s %16d\n%-36s %16d\n%-36s %16v\n",
		"attempted", r.Attempted, "failed", r.Failed, "correct", r.Correct)
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
}

func (r *result) writeJSON(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// layerUnits names every per-layer metric a traced run reports, with its
// unit. A traced run of any workload prints all of them; one that the
// workload does not exercise reads 0 (README.md says which layer each
// belongs to and which end-to-end metric it should move).
var layerUnits = map[string]string{
	// live (internal/netem/live)
	"live.post_wait_p50_us":             "us",
	"live.post_wait_p99_us":             "us",
	"live.msgs_per_datagram":            "ratio",
	"live.datagrams_per_op":             "ratio",
	"live.wire_bytes_per_op":            "B",
	"live.pump_rounds_per_op":           "ratio",
	"live.rx_loss_frac":                 "ratio",
	"live.decode_err":                   "count",
	"live.datagrams":                    "count",
	"live.loopback_msg_ns":              "ns",
	"live.loopback_allocs_per_datagram": "count",
	"live.burst_rx_loss_frac":           "ratio",
	// wire
	"wire.marshal_write_ns":       "ns",
	"wire.marshal_write_allocs":   "count",
	"wire.view_decode_ns_per_msg": "ns",
	"wire.view_decode_allocs":     "count",
	"wire.unmarshal_write_ns":     "ns",
	"wire.unmarshal_write_allocs": "count",
	"wire.batch_add_ns":           "ns",
	"wire.batch_add_allocs":       "count",
	// chain
	"chain.submit_p50_ns":           "ns",
	"chain.commit_wait_p50_us":      "us",
	"chain.msgs_per_write":          "ratio",
	"chain.retries_per_op":          "ratio",
	"chain.writes_committed":        "count",
	"chain.writes_failed":           "count",
	"chain.reads_lost":              "count",
	"chain.reads_local":             "count",
	"chain.reads_forwarded_frac":    "ratio",
	"chain.write_p50_us":            "us",
	"chain.read_p50_us":             "us",
	"chain.read_local_ns":           "ns",
	"chain.read_local_allocs":       "count",
	"chain.sim_write_commit_ns":     "ns",
	"chain.sim_write_commit_allocs": "count",
	"chain.burst_retries_per_op":    "ratio",
	// ewo
	"ewo.writes":               "count",
	"ewo.add_call_p50_ns":      "ns",
	"ewo.add_ns":               "ns",
	"ewo.add_allocs":           "count",
	"ewo.updates_per_add":      "ratio",
	"ewo.update_delivery_frac": "ratio",
	"ewo.entries_stale_frac":   "ratio",
	"ewo.sync_bytes_per_s":     "B/s",
	"ewo.converge_ms":          "ms",
	// sim, netem
	"sim.event_ns":              "ns",
	"sim.event_allocs":          "count",
	"sim.events_per_op":         "ratio",
	"sim.shards2_speedup":       "ratio",
	"netem.msgs_per_op":         "ratio",
	"netem.bytes_per_op":        "B",
	"netem.send_deliver_ns":     "ns",
	"netem.send_deliver_allocs": "count",
	// pisa, core, nf, sketch
	"pisa.inject_packet_ns":      "ns",
	"pisa.inject_packet_allocs":  "count",
	"pisa.sram_bytes_per_member": "B",
	"core.read_call_ns":          "ns",
	"core.read_call_allocs":      "count",
	"nf.ddos_packet_ns":          "ns",
	"nf.ddos_packet_allocs":      "count",
	"sketch.update_ns":           "ns",
	"sketch.update_allocs":       "count",
	// controller, stats, obs
	"controller.bootstrap_ms":   "ms",
	"stats.hist_observe_ns":     "ns",
	"stats.hist_observe_allocs": "count",
	"obs.snapshot_ms":           "ms",
	// runtime, generator, host, tracing
	"go.allocs_per_op":         "count",
	"go.alloc_bytes_per_op":    "B",
	"go.gc_cycles":             "count",
	"go.gc_pause_total_ms":     "ms",
	"go.peak_rss_mb":           "MB",
	"gen.post_ns":              "ns",
	"gen.allocs_per_op":        "count",
	"gen.done_wait_p50_us":     "us",
	"host.nproc":               "count",
	"host.spin_ns":             "ns",
	"host.yardstick_ns":        "ns",
	"trace.ops_per_s_untraced": "1/s",
	"trace.ops_per_s_traced":   "1/s",
	"trace.overhead_frac":      "ratio",
	"trace.spans":              "count",
}

// fillLayers gives every per-layer metric the run did not set the value 0.
func (r *result) fillLayers() {
	for name, unit := range layerUnits {
		if _, ok := r.Metrics[name]; !ok {
			r.set(name, 0, unit)
		}
	}
}

// setLayer sets a per-layer metric; the name must be a declared one.
func (r *result) setLayer(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	r.set(name, v, unit)
}
