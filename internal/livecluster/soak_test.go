package livecluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swishmem/internal/workload"
)

var (
	soakBudget = flag.Duration("soak.budget", 800*time.Millisecond,
		"wall-clock workload budget for the live soak (CI uses a longer one)")
	soakLoss      = flag.Float64("soak.loss", 0.05, "injected outbound loss rate")
	soakOut       = flag.String("soak.out", "", "write the metrics snapshot to this file")
	soakTimeline  = flag.String("soak.timeline", "", "write the JSONL metrics timeline to this file")
	soakFlightRec = flag.String("soak.flightrec", "",
		"write the flight record to this file when an oracle fails")
	soakCorrupt = flag.Float64("soak.corrupt", 0.08,
		"payload bit-corruption rate for the chaos soak")
	soakNthLoss = flag.Int("soak.nthloss", 7,
		"deterministic every-Nth outbound loss for the chaos soak (0 = off)")
	soakPause = flag.Duration("soak.pause", 100*time.Millisecond,
		"member freeze duration for the chaos soak's pause/resume round (keep < 200ms failure timeout)")
)

// TestSoak boots a 3-member loopback cluster plus controller, drives a
// mixed workload under injected loss for the budget, then runs the explore
// durability/counter-total/convergence oracles over the surviving state.
// The run always streams a metrics timeline (to -soak.timeline when set);
// the emitted document is schema-validated below.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak needs wall-clock time")
	}
	var timeline bytes.Buffer
	rep, err := Soak(SoakConfig{
		Seed:           42,
		Budget:         *soakBudget,
		Loss:           *soakLoss,
		Timeline:       &timeline,
		SampleInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	t.Logf("soak: strongw=%d committed=%d ctr=%d lww=%d local-dropped=%d timeline-rows=%d",
		rep.StrongWrites, rep.Committed, rep.CounterAdds, rep.LWWWrites, rep.LocalDropped, rep.TimelineRows)
	writeOut := func(path, body string) {
		if path == "" {
			return
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			_ = os.WriteFile(path, []byte(body), 0o644)
		}
	}
	writeOut(*soakOut, rep.Metrics)
	writeOut(*soakTimeline, timeline.String())
	if rep.Failed() {
		writeOut(*soakFlightRec, rep.FlightRecord)
	}
	if rep.StrongWrites == 0 || rep.CounterAdds == 0 || rep.LWWWrites == 0 {
		t.Fatalf("workload did not exercise all register classes: %+v", rep)
	}
	if rep.Committed == 0 {
		t.Fatalf("no strong write ever committed")
	}
	validateTimeline(t, timeline.String(), rep.TimelineRows)
	for _, f := range rep.Failures {
		t.Errorf("%s", f)
	}
	if t.Failed() {
		t.Logf("transport metrics:\n%s", rep.Metrics)
		if rep.FlightRecord != "" {
			t.Logf("flight record:\n%s", rep.FlightRecord)
		}
	}
}

// validateTimeline checks the soak's JSONL document: per-node schema
// headers, valid rows with per-node monotone timestamps, an availability
// series on the controller rows, and a write-latency quantile series on at
// least one member row.
func validateTimeline(t *testing.T, doc string, wantRows int) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(doc, "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("soak emitted no timeline")
	}
	lastTS := map[string]int64{}
	headers, rows := 0, 0
	sawAlive, sawLatency := false, false
	for i, line := range lines {
		var probe struct {
			Timeline int    `json:"timeline"`
			TS       int64  `json:"ts"`
			Node     string `json:"node"`
			Samples  []struct {
				Name  string  `json:"name"`
				Value float64 `json:"value"`
				N     uint64  `json:"n"`
				P99   float64 `json:"p99"`
			} `json:"samples"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("timeline line %d not JSON: %v\n%s", i+1, err, line)
		}
		if probe.Timeline != 0 {
			headers++
			continue
		}
		rows++
		if probe.Node == "" {
			t.Fatalf("timeline row %d missing node tag: %s", i+1, line)
		}
		if probe.TS <= lastTS[probe.Node] {
			t.Fatalf("timeline row %d: node %s timestamp %d not monotone", i+1, probe.Node, probe.TS)
		}
		lastTS[probe.Node] = probe.TS
		for _, sm := range probe.Samples {
			if sm.Name == "soak.members_alive" && probe.Node == "ctrl" && sm.Value > 0 {
				sawAlive = true
			}
			if sm.Name == "chain.write_latency_ns" && sm.N > 0 && sm.P99 > 0 {
				sawLatency = true
			}
		}
	}
	if rows != wantRows {
		t.Errorf("timeline has %d rows, report says %d", rows, wantRows)
	}
	if headers == 0 {
		t.Error("timeline has no schema header")
	}
	if !sawAlive {
		t.Error("no controller availability sample (soak.members_alive) in the timeline")
	}
	if !sawLatency {
		t.Error("no member write-latency quantile sample in the timeline")
	}
}

// TestSoakChaos is the extended-fault round of the live soak: on top of the
// base loss/jitter/dup/reorder profile it runs payload bit-corruption,
// deterministic every-Nth loss, an asymmetric (one-direction) degraded link
// leg, and a process pause/resume round that freezes a member mid-workload —
// the GC-pause trap for the heartbeat failure detector. The same oracles as
// TestSoak must pass with zero fault-specific assertion code; corrupted
// frames must surface as decode errors, never panics or wrong deliveries.
func TestSoakChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak needs wall-clock time")
	}
	rep, err := Soak(SoakConfig{
		Seed:        1117,
		Budget:      *soakBudget,
		Loss:        *soakLoss,
		CorruptRate: *soakCorrupt,
		LossEveryN:  *soakNthLoss,
		AsymLoss:    3 * *soakLoss,
		PauseFor:    *soakPause,
	})
	if err != nil {
		t.Fatalf("chaos soak: %v", err)
	}
	t.Logf("chaos soak: strongw=%d committed=%d ctr=%d lww=%d pause-rounds=%d corrupted=%d decode-err=%d",
		rep.StrongWrites, rep.Committed, rep.CounterAdds, rep.LWWWrites,
		rep.PauseRounds, rep.TxCorrupted, rep.RxDecodeErr)
	if *soakFlightRec != "" && rep.Failed() {
		if err := os.MkdirAll(filepath.Dir(*soakFlightRec), 0o755); err == nil {
			_ = os.WriteFile(*soakFlightRec+".chaos", []byte(rep.FlightRecord), 0o644)
		}
	}
	if rep.StrongWrites == 0 || rep.CounterAdds == 0 || rep.LWWWrites == 0 {
		t.Fatalf("workload did not exercise all register classes: %+v", rep)
	}
	if rep.Committed == 0 {
		t.Fatal("no strong write ever committed under extended faults")
	}
	if *soakPause > 0 && rep.PauseRounds != 1 {
		t.Fatalf("pause/resume round did not complete (rounds=%d)", rep.PauseRounds)
	}
	// Corruption must actually have fired and been rejected cleanly at the
	// receivers: frames were flipped on egress and surfaced as decode
	// errors, not wrong deliveries (a panic would have failed the run).
	if *soakCorrupt > 0 {
		if rep.TxCorrupted == 0 {
			t.Error("corruption enabled but no frame was ever corrupted")
		}
		if rep.RxDecodeErr == 0 {
			t.Errorf("%d corrupted frames produced zero decode errors", rep.TxCorrupted)
		}
	}
	if !strings.Contains(rep.Metrics, "live.tx.corrupted") {
		t.Error("metrics snapshot has no corruption series")
	}
	for _, f := range rep.Failures {
		t.Errorf("%s", f)
	}
	if t.Failed() {
		t.Logf("transport metrics:\n%s", rep.Metrics)
		if rep.FlightRecord != "" {
			t.Logf("flight record:\n%s", rep.FlightRecord)
		}
	}
}

// TestSoakTraceDriven runs a short soak where a trafficgen-style packet
// trace drives the workload: flow starts -> strong writes, flow ends ->
// LWW writes, everything else -> per-flow counter increments.
func TestSoakTraceDriven(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak needs wall-clock time")
	}
	rng := rand.New(rand.NewSource(9))
	trace, err := workload.GenTrace(rng, workload.TraceConfig{
		Duration: 20 * time.Millisecond, FlowsPerSec: 5000})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Soak(SoakConfig{Seed: 9, Budget: 500 * time.Millisecond, Trace: trace})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}
	t.Logf("trace soak: strongw=%d committed=%d ctr=%d lww=%d",
		rep.StrongWrites, rep.Committed, rep.CounterAdds, rep.LWWWrites)
	if rep.StrongWrites == 0 || rep.CounterAdds == 0 {
		t.Fatalf("trace did not exercise the register classes: %+v", rep)
	}
	for _, f := range rep.Failures {
		t.Errorf("%s", f)
	}
}
