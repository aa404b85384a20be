// Tests for the cluster-level observability surface: the tracing
// allocation budget, the Chrome trace round trip, and the metrics
// registry wiring.
package swishmem_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"swishmem"
)

// TestTracingEnabledAllocBudget: with tracing ON and the ring buffer warm
// (it recycles fixed slots in place), the instrumented EWO write path still
// allocates nothing per op. Together with the tracing-off pins above
// (TestEWOCounterAddAllocBudget etc., which run with no tracer attached),
// this bounds the observability tax to branch checks and ring stores.
func TestTracingEnabledAllocBudget(t *testing.T) {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	tr := c.EnableTracing(1 << 10)
	regs, err := c.DeclareCounter("b", swishmem.EventualOptions{Capacity: 64, DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	// Warm the pools AND wrap the trace ring at least once so every slot
	// has been claimed before the measured runs. One add per instant: the
	// adds of one instant leave as one update and trace as one flush.
	for i := 0; i < 4096; i++ {
		regs[0].Add(uint64(i%64), 1)
		c.RunFor(time.Microsecond)
	}
	c.RunFor(10 * time.Millisecond)
	if tr.Total() < uint64(tr.Cap()) {
		t.Fatalf("warmup did not wrap the ring: %d events into cap %d", tr.Total(), tr.Cap())
	}
	allocs := testing.AllocsPerRun(1000, func() {
		regs[0].Add(3, 1)
		c.RunFor(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("traced EWO Add+deliver allocates %v per op, want 0", allocs)
	}
}

// chromeEvent mirrors one Chrome trace-event record for re-parsing.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

// TestTraceRoundTrip drives replicated writes through a traced cluster,
// exports the Chrome trace, re-parses it as JSON, and reconstructs the
// submit -> forward -> ack -> commit lifecycle of individual writes.
func TestTraceRoundTrip(t *testing.T) {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	c.EnableTracing(1 << 16)
	regs, err := c.DeclareStrong("t", swishmem.StrongOptions{Capacity: 256, ValueWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	committed := 0
	for i := 0; i < 10; i++ {
		regs[0].Write(uint64(i), []byte("12345678"), func(ok bool) {
			if ok {
				committed++
			}
		})
		c.RunFor(5 * time.Millisecond)
	}
	if committed != 10 {
		t.Fatalf("committed %d/10 writes", committed)
	}

	var buf bytes.Buffer
	if err := c.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	// Index the chain lifecycle events by write ID.
	byID := func(name string) map[float64]chromeEvent {
		m := make(map[float64]chromeEvent)
		for _, ev := range doc.TraceEvents {
			if ev.Cat == "chain" && ev.Name == name {
				id, _ := ev.Args["id"].(float64)
				m[id] = ev
			}
		}
		return m
	}
	submits := byID("write.submit")
	forwards := byID("write.forward")
	acks := byID("write.ack")
	commits := byID("write.commit")
	if len(commits) == 0 {
		t.Fatal("no write.commit spans in trace")
	}
	for id, commit := range commits {
		sub, ok := submits[id]
		if !ok {
			t.Fatalf("write %v committed without a write.submit event", id)
		}
		if _, ok := forwards[id]; !ok {
			t.Fatalf("write %v committed without a write.forward event", id)
		}
		ack, ok := acks[id]
		if !ok {
			t.Fatalf("write %v committed without a write.ack event", id)
		}
		if commit.Ph != "X" || commit.Dur <= 0 {
			t.Fatalf("write %v commit is not a positive-duration span: %+v", id, commit)
		}
		// The commit span starts at submission and covers the ack.
		if commit.TS != sub.TS {
			t.Fatalf("write %v commit span starts at %v, submitted at %v", id, commit.TS, sub.TS)
		}
		if end := commit.TS + commit.Dur; ack.TS > end {
			t.Fatalf("write %v ack at %v after commit span end %v", id, ack.TS, end)
		}
	}

	// The metrics registry must agree with the trace on commit count.
	snap := c.Metrics().Snapshot()
	if got := snap.Sum("chain.writes_committed"); got != 10 {
		t.Fatalf("metrics chain.writes_committed = %v, want 10", got)
	}
}

// TestClusterMetricsDiff: snapshots taken before and after load Diff to
// exactly the counters the load produced.
func TestClusterMetricsDiff(t *testing.T) {
	c, _ := swishmem.New(swishmem.Config{Switches: 2, Seed: 1})
	regs, err := c.DeclareCounter("m", swishmem.EventualOptions{Capacity: 16, DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	reg := c.Metrics()
	before := reg.Snapshot()
	for i := 0; i < 7; i++ {
		regs[0].Add(1, 1)
	}
	c.RunFor(5 * time.Millisecond)
	d := reg.Snapshot().Diff(before)
	if got := d.Sum("ewo.writes"); got != 7 {
		t.Fatalf("diff ewo.writes = %v, want 7", got)
	}
	if d.Sum("net.msgs_sent") <= 0 {
		t.Fatal("diff shows no fabric traffic for multicast updates")
	}
}
