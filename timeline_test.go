// Timeline determinism: a streamed metrics timeline is a pure function of
// the seeded model — byte-identical across repeated runs. Ticks happen at
// driver level between simulation chunks, so the stream must not perturb
// the event stream either: a streamed run's trace and event count must match
// an unstreamed one exactly.
package swishmem_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"swishmem"
)

// firstDiff renders the first differing line of two multi-line strings.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw != lg {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, lw, lg)
		}
	}
	return "lengths differ only"
}

// timelineWorkload runs a mixed SRO/EWO workload with streaming enabled and
// returns the emitted timeline plus the run's event count.
func timelineWorkload(t *testing.T, seed int64) (string, uint64) {
	t.Helper()
	c, err := swishmem.New(swishmem.Config{Switches: 4, Spares: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	strong, err := c.DeclareStrong("conn", swishmem.StrongOptions{Capacity: 128, ValueWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := c.DeclareCounter("hits", swishmem.EventualOptions{Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := c.StreamMetrics(&out, 500*time.Microsecond, swishmem.StreamOptions{Windows: 4}); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	for i := 0; i < 30; i++ {
		strong[i%4].Write(uint64(i), []byte("deadbeef"), func(bool) {})
		cnt[(i+1)%4].Add(uint64(i%5), uint64(i+1))
		c.RunFor(250 * time.Microsecond)
	}
	c.FailSwitch(1)
	c.RunFor(20 * time.Millisecond)
	if err := c.StopStreaming(); err != nil {
		t.Fatal(err)
	}
	return out.String(), c.EventsProcessed()
}

func TestTimelineDeterministic(t *testing.T) {
	want, wantEvents := timelineWorkload(t, 7)
	if want == "" {
		t.Fatal("streamed run emitted no timeline")
	}
	// Repeated run: byte-identical timeline and event count.
	got, gotEvents := timelineWorkload(t, 7)
	if got != want {
		t.Fatalf("repeated run diverged:\n%s", firstDiff(want, got))
	}
	if gotEvents != wantEvents {
		t.Fatalf("repeated run processed %d events, first run %d", gotEvents, wantEvents)
	}
}

// TestStreamingInvisible pins that enabling the stream changes nothing about
// the simulation itself: same events processed, same trace as an unstreamed
// run of the same seed.
func TestStreamingInvisible(t *testing.T) {
	run := func(streamed bool) ([]byte, uint64) {
		c, err := swishmem.New(swishmem.Config{Switches: 3, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		c.EnableTracing(1 << 18)
		if streamed {
			var sink bytes.Buffer
			if _, err := c.StreamMetrics(&sink, 300*time.Microsecond, swishmem.StreamOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		regs, err := c.DeclareStrong("t", swishmem.StrongOptions{Capacity: 64, ValueWidth: 8})
		if err != nil {
			t.Fatal(err)
		}
		c.RunFor(time.Millisecond)
		for i := 0; i < 10; i++ {
			regs[i%3].Write(uint64(i), []byte("01234567"), func(bool) {})
			c.RunFor(700 * time.Microsecond)
		}
		c.RunFor(3 * time.Millisecond)
		var buf bytes.Buffer
		if err := c.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), c.EventsProcessed()
	}
	plainTrace, plainEvents := run(false)
	streamTrace, streamEvents := run(true)
	if streamEvents != plainEvents {
		t.Fatalf("streaming changed the event count: %d vs %d", streamEvents, plainEvents)
	}
	if !bytes.Equal(streamTrace, plainTrace) {
		t.Fatalf("streaming perturbed the trace:\n%s",
			firstDiff(string(plainTrace), string(streamTrace)))
	}
}

// TestTimelineWellFormed validates the emitted document: a schema header,
// then rows with strictly increasing timestamps at the configured interval,
// each row valid JSON carrying the expected sample shapes.
func TestTimelineWellFormed(t *testing.T) {
	out, _ := timelineWorkload(t, 3)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("timeline too short:\n%s", out)
	}
	var hdr struct {
		Timeline   int   `json:"timeline"`
		IntervalNS int64 `json:"interval_ns"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header not JSON: %v", err)
	}
	if hdr.Timeline != 1 || hdr.IntervalNS != 500_000 {
		t.Fatalf("header wrong: %+v", hdr)
	}
	prev := int64(0)
	sawLatency := false
	for i, line := range lines[1:] {
		var row struct {
			TS      int64 `json:"ts"`
			Samples []struct {
				Name string  `json:"name"`
				N    uint64  `json:"n"`
				P99  float64 `json:"p99"`
			} `json:"samples"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("row %d not JSON: %v\n%s", i, err, line)
		}
		if row.TS <= prev || row.TS%hdr.IntervalNS != 0 {
			t.Fatalf("row %d timestamp %d not a monotone multiple of %d", i, row.TS, hdr.IntervalNS)
		}
		prev = row.TS
		for _, sm := range row.Samples {
			if sm.Name == "chain.write_latency_ns" && sm.N > 0 && sm.P99 > 0 {
				sawLatency = true
			}
		}
	}
	if !sawLatency {
		t.Fatal("no windowed write-latency sample appeared in any row")
	}
	// Double streaming is rejected; a fresh cluster accepts a new stream.
	c, err := swishmem.New(swishmem.Config{Switches: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if _, err := c.StreamMetrics(&sink, time.Millisecond, swishmem.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StreamMetrics(&sink, time.Millisecond, swishmem.StreamOptions{}); err == nil {
		t.Fatal("second StreamMetrics must error")
	}
	if _, err := c.StreamMetrics(nil, 0, swishmem.StreamOptions{}); err == nil {
		t.Fatal("zero interval must error")
	}
}

// TestClusterFlightRecord exercises the facade-level black box: with tracing
// and streaming on, a FlightRecord carries trace events, a final snapshot,
// and the timeline tail.
func TestClusterFlightRecord(t *testing.T) {
	c, err := swishmem.New(swishmem.Config{Switches: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTracing(1 << 16)
	var sink bytes.Buffer
	if _, err := c.StreamMetrics(&sink, time.Millisecond, swishmem.StreamOptions{Tail: 8}); err != nil {
		t.Fatal(err)
	}
	regs, err := c.DeclareStrong("fr", swishmem.StrongOptions{Capacity: 32, ValueWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(time.Millisecond)
	committed := 0
	for i := 0; i < 8; i++ {
		regs[i%3].Write(uint64(i), []byte("aaaabbbb"), func(ok bool) {
			if ok {
				committed++
			}
		})
		c.RunFor(time.Millisecond)
	}
	if committed == 0 {
		t.Fatal("workload committed nothing")
	}
	fr := c.FlightRecord(32)
	if len(fr.Events) == 0 || fr.TotalEvents == 0 {
		t.Fatalf("flight record has no trace events: %+v", fr)
	}
	if len(fr.Events) > 32 {
		t.Fatalf("lastN not enforced: kept %d", len(fr.Events))
	}
	if len(fr.Timeline) == 0 {
		t.Fatal("flight record missing timeline tail")
	}
	if v, ok := fr.Snapshot.Value("sim.events_processed", ""); !ok || v == 0 {
		t.Fatalf("final snapshot missing engine counters: %v %v", v, ok)
	}
	text := fr.String()
	for _, want := range []string{"flight recorder: last", "final metrics snapshot", "timeline tail"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered record missing %q:\n%s", want, text)
		}
	}
}
