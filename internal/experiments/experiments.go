// Package experiments regenerates every table and quantitative claim of the
// SwiShmem paper (see DESIGN.md §3 for the experiment index E1–E19). Each
// experiment builds its own deterministic cluster, drives the workload the
// paper's analysis assumes, and reports paper-style rows.
//
// The package is consumed by two harnesses: cmd/benchtab (prints the
// tables) and the repository-root bench_test.go (runs each experiment under
// go test -bench and asserts the expected shape).
package experiments

import (
	"fmt"

	"swishmem/internal/stats"
)

// Result is one experiment's output.
type Result struct {
	// ID is the experiment identifier (E1..E19).
	ID string
	// Title describes what paper content is reproduced.
	Title string
	// Tables hold the regenerated rows.
	Tables []*stats.Table
	// Notes record the expected shape and whether it held.
	Notes []string
	// Metrics is an optional per-experiment counter section built from the
	// cluster metrics registry (see addMetrics): metric name (optionally
	// suffixed with a capture label) -> aggregated value. `benchtab -metrics`
	// writes it out; it is deliberately NOT rendered by String(), which must
	// stay byte-identical across runner worker counts.
	Metrics map[string]float64
}

// note appends a formatted note.
func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the result for terminal output.
func (r *Result) String() string {
	out := fmt.Sprintf("### %s — %s\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "  note: " + n + "\n"
	}
	return out
}

// Experiment is a registered experiment entry.
type Experiment struct {
	ID    string
	Name  string
	Paper string // which table/figure/claim it regenerates
	Run   func(seed int64) *Result
}

// All returns the registry in E-number order.
func All() []Experiment {
	return []Experiment{
		{"E1", "table1", "Table 1 (NF access patterns & consistency)", Table1},
		{"E2", "switch-vs-server", "§3.1 switch vs server throughput claim", SwitchVsServer},
		{"E3", "sync-bandwidth", "§6.2 periodic-sync bandwidth math", SyncBandwidth},
		{"E4", "sro-latency", "§6.1 SRO write/read latency vs chain length", SROLatency},
		{"E5", "protocol-matrix", "§5 SRO/ERO/EWO cost matrix", ProtocolMatrix},
		{"E6", "ewo-convergence", "§6.2 C1: convergence under loss", EWOConvergence},
		{"E7", "failover", "§6.3 failover & recovery", Failover},
		{"E8", "lww-vs-crdt", "§6.2 merging: LWW vs counter CRDT", LWWvsCRDT},
		{"E9", "pcc-violations", "§3.2 sharded vs replicated LB under re-routing", PCCViolations},
		{"E10", "memory", "§7 switch memory overheads", Memory},
		{"E11", "batching", "§7 write batching bandwidth/staleness trade", Batching},
		{"E12", "data-vs-control", "§3.3 data-plane vs control-plane replication", DataVsControlPlane},
		{"E13", "read-path", "ablation: local reads vs always-at-tail (NetChain)", ReadPathAblation},
		{"E14", "group-sharing", "ablation: §7 seq-group sharing SRAM/forwarding trade", GroupSharingAblation},
		{"E15", "loss-anomaly", "extension: §9 anomaly window under chain-hop loss", LossAnomaly},
		{"E16", "parallel-scaling", "extension: deterministic parallel simulation across shard counts", ParallelScaling},
		{"E17", "packet-rate", "extension: batched hot-path counter adds/sec over burst size x shards", PacketRate},
		{"E18", "nthloss-anomaly", "extension: anomaly rate, every-Nth vs random loss at equal rates", NthLossAnomaly},
		{"E19", "replication-backends", "extension: chain vs retransmit backend — anomalies, SRAM, wire cost", ReplicationBackends},
	}
}

// Find returns the experiment with the given ID or name.
func Find(key string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == key || e.Name == key {
			return e, true
		}
	}
	return Experiment{}, false
}
