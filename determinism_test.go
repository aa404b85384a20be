package swishmem_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"swishmem"
)

// TestClusterDeterminism runs the same seeded workload twice and requires
// byte-equal run logs and byte-equal Chrome traces. The workload is the
// hardest the facade offers: SRO writes with retries, EWO counters and LWW
// writes with periodic sync over a lossy link that also duplicates, reorders
// and jitters, then a mid-chain switch failure that the controller detects
// and repairs with the spare, all under continuing load.
func TestClusterDeterminism(t *testing.T) {
	run := func(seed int64) (string, []byte) {
		lossy := swishmem.LinkProfile{
			Latency:      12 * time.Microsecond,
			BandwidthBps: 40e9,
			LossRate:     0.02,
			DupRate:      0.01,
			ReorderRate:  0.05,
			Jitter:       3 * time.Microsecond,
		}
		c, err := swishmem.New(swishmem.Config{Switches: 5, Spares: 1, Seed: seed, Link: &lossy})
		if err != nil {
			t.Fatal(err)
		}
		c.EnableTracing(0)

		var out strings.Builder
		emit := func(format string, args ...any) { fmt.Fprintf(&out, format+"\n", args...) }

		strong, err := c.DeclareStrong("conn", swishmem.StrongOptions{Capacity: 256, ValueWidth: 8})
		if err != nil {
			t.Fatal(err)
		}
		cnt, err := c.DeclareCounter("hits", swishmem.EventualOptions{Capacity: 64})
		if err != nil {
			t.Fatal(err)
		}
		lww, err := c.DeclareEventual("cfg", swishmem.EventualOptions{Capacity: 32, ValueWidth: 4})
		if err != nil {
			t.Fatal(err)
		}
		c.RunFor(2 * time.Millisecond)

		for i := 0; i < 40; i++ {
			w, k := i%5, uint64(i)
			strong[w].Write(k, []byte(fmt.Sprintf("v%06d", i)), func(ok bool) {
				emit("sw%d commit k=%d ok=%v t=%v", w, k, ok, c.Now())
			})
			cnt[(i+1)%5].Add(uint64(i%7), uint64(i+1))
			lww[(i+2)%5].Write(uint64(i%32), []byte{byte(i), 1, 2, 3})
			c.RunFor(300 * time.Microsecond)
		}
		c.RunFor(5 * time.Millisecond)

		c.FailSwitch(2)
		for i := 40; i < 60; i++ {
			w := i % 5
			if w == 2 {
				w = 3
			}
			k := uint64(i)
			strong[w].Write(k, []byte(fmt.Sprintf("v%06d", i)), func(ok bool) {
				emit("sw%d commit2 k=%d ok=%v t=%v", w, k, ok, c.Now())
			})
			cnt[w].Add(uint64(i%7), 1)
			c.RunFor(400 * time.Microsecond)
		}
		c.RunFor(30 * time.Millisecond)

		for i := 0; i < 60; i++ {
			r := (i + 3) % 5
			if r == 2 {
				r = 4
			}
			k := uint64(i)
			strong[r].Read(k, func(v []byte, ok bool) {
				emit("sw%d read k=%d ok=%v v=%q t=%v", r, k, ok, v, c.Now())
			})
		}
		c.RunFor(10 * time.Millisecond)
		for k := uint64(0); k < 7; k++ {
			for r := 0; r < 5; r++ {
				if r == 2 {
					continue
				}
				emit("cnt r=%d k=%d v=%d", r, k, cnt[r].Sum(k))
			}
		}
		c.RunFor(2 * time.Millisecond)

		nt := c.NetworkTotals()
		emit("net sent=%d/%dB deliv=%d/%dB dropped=%d dup=%d",
			nt.MsgsSent, nt.BytesSent, nt.MsgsDeliv, nt.BytesDeliv, nt.MsgsDropped, nt.MsgsDup)
		emit("events=%d now=%v", c.EventsProcessed(), c.Now())
		emit("recoveries=%d failures=%d",
			c.Controller().Stats.Recoveries.Value(), c.Controller().Stats.FailuresSeen.Value())

		var trace bytes.Buffer
		if err := c.WriteTrace(&trace); err != nil {
			t.Fatal(err)
		}
		return out.String(), trace.Bytes()
	}

	wantLog, wantTrace := run(1)
	for _, want := range []string{"ok=true", "recoveries=1"} {
		if !strings.Contains(wantLog, want) {
			t.Fatalf("run log lacks %q:\n%s", want, wantLog)
		}
	}
	gotLog, gotTrace := run(1)
	if gotLog != wantLog {
		t.Fatalf("repeated run's log diverged:\n%s", firstDiff(wantLog, gotLog))
	}
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Fatalf("repeated run's trace diverged:\n%s", firstDiff(string(wantTrace), string(gotTrace)))
	}
}
