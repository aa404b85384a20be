package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"swishmem/internal/workload"
)

// hashOps digests a generated op sequence (same seed => same digest).
func hashOps(ops []op) uint64 {
	h := fnv.New64a()
	var b [6]byte
	for _, o := range ops {
		b[0], b[1], b[2], b[3] = byte(o.kind), o.member, o.ckey, o.delta
		binary.BigEndian.PutUint16(b[4:], o.key)
		h.Write(b[:])
	}
	return h.Sum64()
}

// hashTrace digests a packet trace: arrival time and flow of every packet.
func hashTrace(tr workload.Trace) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for i := range tr {
		fk, _ := tr[i].Pkt.Flow()
		binary.BigEndian.PutUint64(b[:], uint64(tr[i].At))
		binary.BigEndian.PutUint64(b[8:], flowHash(fk))
		h.Write(b[:])
	}
	return h.Sum64()
}

// inputHash generates a workload's inputs from seed and digests them.
func inputHash(workloadName string, seed int64) (uint64, error) {
	switch workloadName {
	case wlSRO:
		return hashOps(genSRO(seed)), nil
	case wlEWO:
		return hashOps(genEWO(seed)), nil
	case wlMix:
		ops, err := genMix(seed)
		return hashOps(ops), err
	case wlSim:
		tr, err := genSim(seed)
		return hashTrace(tr), err
	}
	return 0, fmt.Errorf("bench: unknown workload %q", workloadName)
}

// Same seed, same inputs; another seed, other inputs — for all four
// workloads. The system under test only ever sees these inputs.
func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		// Seed 1 twice and seed 2 once, side by side: generation is pure.
		var h [3]uint64
		var errs [3]error
		var wg sync.WaitGroup
		for i, seed := range []int64{1, 1, 2} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h[i], errs[i] = inputHash(w, seed)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
		}
		if h[0] != h[1] {
			t.Errorf("%s: seed 1 generated two different inputs (%x, %x)", w, h[0], h[1])
		}
		if h[0] == h[2] {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs (%x)", w, h[0])
		}
	}
	if _, err := inputHash("no-such-workload", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

var endToEnd = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "op_p50_us": "us", "op_p99_us": "us", "cpu_us_per_op": "us",
}

// Quick smoke of every workload: the five end-to-end metrics come out with
// their units, ops were attempted, none failed, and the oracles passed.
func TestQuickRun(t *testing.T) {
	for _, w := range workloads {
		// Not parallel: a live cluster starved of CPU by its neighbours misses
		// heartbeats and reconfigures, which is not what this test is about.
		t.Run(w, func(t *testing.T) {
			r, err := run(config{workload: w, seed: 7, duration: 200 * time.Millisecond, quick: true, setupReps: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d notes=%v", r.Correct, r.Attempted, r.Failed, r.notes)
			}
			if len(r.Metrics) != len(endToEnd) {
				t.Errorf("got %d metrics, want %d: %v", len(r.Metrics), len(endToEnd), r.Metrics)
			}
			for name, unit := range endToEnd {
				m, ok := r.Metrics[name]
				if !ok || m.Unit != unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %+v (present=%v), want a positive value in %s", name, m, ok, unit)
				}
			}
		})
	}
}

// A traced run reports every declared per-layer metric and writes a trace
// file that parses as Chrome trace-event JSON with the harness's spans.
func TestQuickTrace(t *testing.T) {
	dir := t.TempDir()
	r, err := run(config{workload: wlMix, seed: 7, duration: 450 * time.Millisecond, trace: true, quick: true,
		setupReps: 2, out: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 {
		t.Errorf("correct=%v failed=%d notes=%v", r.Correct, r.Failed, r.notes)
	}
	for name, unit := range layerUnits {
		if m, ok := r.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("per-layer metric %s missing or in %q, want %q", name, m.Unit, unit)
		}
	}
	// The mix drives both protocols: the separation counters must show it.
	for _, name := range []string{"chain.reads_local", "chain.writes_committed", "ewo.writes", "live.datagrams"} {
		if r.Metrics[name].Value == 0 {
			t.Errorf("%s = 0 on %s", name, wlMix)
		}
	}
	if a := r.Metrics["gen.allocs_per_op"].Value; a > 0.05 {
		t.Errorf("generator allocates %.3f objects per op; it must stay ~0", a)
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace-"+wlMix+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("bad trace event %+v", e)
		}
		seen[e.Name] = true
	}
	for _, name := range []string{"op", "gen.post", "live.post_wait", "chain.submit", "chain.read", "chain.commit_wait", "gen.done"} {
		if !seen[name] {
			t.Errorf("no %q span in the trace (have %v)", name, seen)
		}
	}
}

// A forwarded read whose datagram was dropped never calls back (there is no
// read retry in the system): the loop asks again, and the read counts as
// failed only after readAsks asks without an answer. A write is reported
// failed by the system once its 100 retries are spent (200 ms without an ack
// at the default 2 ms retry) and counts as failed at once. The loop must
// count both, keep its window full, and keep the oracles exact.
func TestGivenUpOpsCountAsFailed(t *testing.T) {
	defer func(d, e time.Duration) { lostAfter, scanEvery = d, e }(lostAfter, scanEvery)
	lostAfter, scanEvery = 60*time.Millisecond, 15*time.Millisecond
	ops, err := genMix(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newCluster(7, 0) // the default 2 ms retry, so a short blackout exhausts it
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	l := newLoop(c, ops, mixWindow, 1)
	tail := c.members[members-1].Fabric.Node()
	runFor := func(d time.Duration) {
		deadline := l.now() + int64(d)
		l.runUntil(func() bool { return l.now() >= deadline })
	}

	tail.SetRecvLoss(0.3) // the tail drops ReadFwds (and chain writes, which retry)
	l.warm(4_000)
	tail.SetRecvLoss(0)
	runFor(lostAfter + scanEvery + 50*time.Millisecond)
	if l.reasked == 0 {
		t.Error("30 % receive loss at the tail lost no forwarded read: the test exercised nothing")
	}
	if l.failed != 0 {
		t.Errorf("%d ops failed (%d reads given up) although every read asked again was answered",
			l.failed, l.lost)
	}

	// No write and no ReadFwd reaches the tail: every write in flight exhausts
	// its retries, every forwarded read its asks.
	tail.SetRecvLoss(1)
	runFor(readAsks*(lostAfter+scanEvery) + 100*time.Millisecond)
	tail.SetRecvLoss(0)
	runFor(100 * time.Millisecond)
	l.drain(5 * time.Second)
	failedWrites := c.counters()[cWritesFailed]
	if failedWrites == 0 || l.lost == 0 {
		t.Errorf("a blackout of the tail failed %d writes and %d reads: the test exercised nothing",
			failedWrites, l.lost)
	}
	if l.failed != l.lost+failedWrites {
		t.Errorf("failed = %d, want %d lost reads + %d failed writes", l.failed, l.lost, failedWrites)
	}
	if l.completed != l.issued {
		t.Errorf("issued %d ops, accounted %d", l.issued, l.completed)
	}
	r := &result{Correct: true, Attempted: l.issued, Failed: l.failed}
	l.verify(r)
	if r.finish(); !r.Correct || r.Failed != l.failed {
		t.Errorf("correct=%v failed=%d, want the %d given-up ops and passing oracles; notes=%v",
			r.Correct, r.Failed, l.failed, r.notes)
	}
}

// A failed oracle fails every op, whenever in the run it fired: the
// simulator's determinism check runs before a single op is attempted.
func TestOracleFailureFailsEveryOp(t *testing.T) {
	r := &result{Correct: true}
	checkRepeat(r, []fingerprint{{1, 2, 3}, {1, 2, 3}})
	if !r.Correct {
		t.Fatal("identical fingerprints failed the oracle")
	}
	checkRepeat(r, []fingerprint{{1, 2, 3}, {1, 2, 3}, {1, 2, 4}})
	r.Attempted, r.Failed = 1000, 3
	if r.finish(); r.Correct || r.Failed != 1000 {
		t.Errorf("after a fingerprint mismatch: correct=%v failed=%d of %d", r.Correct, r.Failed, r.Attempted)
	}
}

// A run on a host whose yardstick reads twice the nominal reports half its
// measured times and twice its measured rate.
func TestYardstickScalesEndToEnd(t *testing.T) {
	y := newYardstick()
	y.sample()
	y.close()
	if len(y.samples) != yardSamples || !(median(y.samples) > 0) {
		t.Fatalf("yardstick samples = %v", y.samples)
	}
	y.samples = []float64{2 * yardNominal, 2 * yardNominal, yardNominal, 5 * yardNominal}
	ws := newWindows(0, 1e9, 3)
	for w := int64(0); w < 3; w++ {
		ws.add(w*1e9+5e8, 1000, 100, 0) // 100 ops of 1 us in every window
	}
	r := &result{Correct: true}
	setEndToEnd(r, []float64{2, 2, 2}, ws, 300, 600*time.Microsecond, y)
	for name, want := range map[string]float64{
		"setup_s": 1, "ops_per_s": 200, "op_p50_us": 0.5, "op_p99_us": 0.5, "cpu_us_per_op": 1} {
		if got := r.Metrics[name].Value; math.Abs(got-want) > 0.01*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// BENCHMARK.json names exactly the harness's workloads and metrics.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, workloads[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, want %d", len(spec.EndToEnd), len(endToEnd))
	}
	for _, m := range spec.EndToEnd {
		if endToEnd[m.Name] != m.Unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v does not match the harness", m)
		}
	}
	if len(spec.PerLayer) != len(layerUnits) || len(spec.PerLayer) > 128 {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, harness %d", len(spec.PerLayer), len(layerUnits))
	}
	for _, m := range spec.PerLayer {
		if layerUnits[m.Name] != m.Unit {
			t.Errorf("per-layer metric %s: unit %q, harness %q", m.Name, m.Unit, layerUnits[m.Name])
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

// The log-bucket histogram stays within 1 % of the value it was given.
func TestHistError(t *testing.T) {
	for _, v := range []int64{1, 63, 64, 65, 999, 12_345, 1_000_000, 987_654_321, 60_000_000_000} {
		var h hist
		h.add(v, 10)
		for _, q := range []float64{0.5, 0.99} {
			got := h.quantile(q)
			if err := math.Abs(got-float64(v)) / float64(v); err > 0.01 && math.Abs(got-float64(v)) > 1 {
				t.Errorf("quantile(%v) of %d = %v: %.2f%% off", q, v, got, err*100)
			}
		}
	}
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.add(v*1000, 1)
	}
	if got := h.quantile(0.99); math.Abs(got-990_000)/990_000 > 0.01 {
		t.Errorf("p99 of 1..1000 us = %v ns", got)
	}
}

// quartiles is Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}
