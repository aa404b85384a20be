// Cross-mode determinism: a sharded cluster must be byte-identical to a
// sequential cluster with the same seed — same commit outcomes, same read
// values, same fabric accounting, same event counts, same canonical trace.
// This is the contract that makes parallel simulation trustworthy: any
// result found with -shards N could have been found sequentially.
package swishmem_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"swishmem"
)

// identityWorkload drives a mixed workload (SRO writes with retries, EWO
// counters with periodic sync, a lossy link, a switch failure and chain
// recovery) and renders everything observable into one deterministic string.
func identityWorkload(t *testing.T, shards int, seed int64, mut ...func(*swishmem.Cluster)) string {
	t.Helper()
	lossy := swishmem.LinkProfile{
		Latency:      12 * time.Microsecond,
		BandwidthBps: 40e9,
		LossRate:     0.02,
		DupRate:      0.01,
		ReorderRate:  0.05,
		Jitter:       3 * time.Microsecond,
	}
	c, err := swishmem.New(swishmem.Config{
		Switches: 5, Spares: 1, Seed: seed, Shards: shards, Link: &lossy,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, m := range mut {
		m(c)
	}

	// Callbacks run on the shard goroutine of the switch whose handle was
	// driven, possibly concurrently with other shards. Each switch therefore
	// gets a private log (only its own shard appends), stamped with its OWN
	// engine's clock, and the per-switch logs concatenate in switch order
	// after the run — an order that cannot depend on shard interleaving.
	logs := make([]strings.Builder, 6)
	var drv strings.Builder // driver-phase output, between runs only
	sw := func(i int, format string, args ...any) {
		fmt.Fprintf(&logs[i], format+"\n", args...)
	}
	emit := func(format string, args ...any) { fmt.Fprintf(&drv, format+"\n", args...) }

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
		eng := c.Switch(w).Engine()
		strong[w].Write(k, []byte(fmt.Sprintf("v%06d", i)), func(ok bool) {
			sw(w, "commit k=%d ok=%v t=%v", k, ok, eng.Now())
		})
		cnt[(i+1)%5].Add(uint64(i%7), uint64(i+1))
		lww[(i+2)%5].Write(uint64(i%32), []byte{byte(i), 1, 2, 3})
		c.RunFor(300 * time.Microsecond)
	}
	c.RunFor(5 * time.Millisecond)

	// Fail a replica mid-chain; the controller detects it and recovers with
	// the spare, all under continuing load.
	c.FailSwitch(2)
	for i := 40; i < 60; i++ {
		w := i % 5
		if w == 2 {
			w = 3
		}
		k, eng := uint64(i), c.Switch(w).Engine()
		strong[w].Write(k, []byte(fmt.Sprintf("v%06d", i)), func(ok bool) {
			sw(w, "commit2 k=%d ok=%v t=%v", k, ok, eng.Now())
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
		k, eng := uint64(i), c.Switch(r).Engine()
		strong[r].Read(k, func(v []byte, ok bool) {
			sw(r, "read k=%d ok=%v v=%q t=%v", k, ok, v, eng.Now())
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
	if c.Controller() != nil {
		emit("recoveries=%d failures=%d",
			c.Controller().Stats.Recoveries.Value(), c.Controller().Stats.FailuresSeen.Value())
	}
	var all strings.Builder
	for i := range logs {
		fmt.Fprintf(&all, "-- switch %d --\n%s", i, logs[i].String())
	}
	all.WriteString(drv.String())
	return all.String()
}

// TestShardedIdenticalToSequential pins byte-identical behaviour across
// shard counts, including a count above the switch count (capped) and the
// auto-fallback path.
func TestShardedIdenticalToSequential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		want := identityWorkload(t, 1, seed)
		if !strings.Contains(want, "ok=true") {
			t.Fatalf("seed %d: sequential run committed nothing:\n%s", seed, want)
		}
		for _, shards := range []int{2, 3, 6, 8} {
			if got := identityWorkload(t, shards, seed); got != want {
				t.Fatalf("seed %d shards=%d diverged from sequential:\n%s",
					seed, shards, firstDiff(want, got))
			}
		}
	}
}

// TestShardedTraceIdentical pins the canonical trace export across modes.
func TestShardedTraceIdentical(t *testing.T) {
	runTraced := func(shards int) []byte {
		c, err := swishmem.New(swishmem.Config{Switches: 4, Seed: 9, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.EnableTracing(1 << 20)
		regs, err := c.DeclareStrong("t", swishmem.StrongOptions{Capacity: 64, ValueWidth: 8})
		if err != nil {
			t.Fatal(err)
		}
		cnt, err := c.DeclareCounter("c", swishmem.EventualOptions{Capacity: 16})
		if err != nil {
			t.Fatal(err)
		}
		c.RunFor(2 * time.Millisecond)
		for i := 0; i < 12; i++ {
			regs[i%4].Write(uint64(i), []byte("12345678"), func(bool) {})
			cnt[(i+1)%4].Add(uint64(i%5), 2)
			c.RunFor(time.Millisecond)
		}
		c.RunFor(5 * time.Millisecond)
		for _, tr := range c.Tracers() {
			if tr.Dropped() > 0 {
				t.Fatalf("ring wrapped (%d dropped); grow the capacity", tr.Dropped())
			}
		}
		var buf bytes.Buffer
		if err := c.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := runTraced(1)
	for _, shards := range []int{2, 4} {
		if got := runTraced(shards); !bytes.Equal(got, want) {
			t.Fatalf("shards=%d trace diverged from sequential:\n%s",
				shards, firstDiff(string(want), string(got)))
		}
	}
}

// TestShardFallback verifies the sequential fallbacks: one node total and a
// zero-latency default link must silently run unsharded.
func TestShardFallback(t *testing.T) {
	c1, err := swishmem.New(swishmem.Config{Switches: 1, Seed: 1, Shards: 4}.WithoutController())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if got := c1.Shards(); got != 1 {
		t.Fatalf("single-switch cluster got %d shards, want 1", got)
	}
	zero := swishmem.LinkProfile{Latency: 0, BandwidthBps: 100e9}
	c2, err := swishmem.New(swishmem.Config{Switches: 4, Seed: 1, Shards: 4, Link: &zero})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.Shards(); got != 1 {
		t.Fatalf("zero-latency cluster got %d shards, want 1", got)
	}
	c3, err := swishmem.New(swishmem.Config{Switches: 3, Seed: 1, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if got := c3.Shards(); got != 3 {
		t.Fatalf("shard count not capped at switches+spares: got %d, want 3", got)
	}
}

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
			return fmt.Sprintf("line %d:\n  sequential: %s\n  sharded:    %s", i+1, lw, lg)
		}
	}
	return "lengths differ only"
}
