// Coalescing A/B identity: the fabric's batched same-tick delivery (one
// scheduled event per same-timestamp burst on a link, with per-member event
// crediting) must be byte-identical to the one-event-per-message path — same
// commit log, same fabric accounting, same event counts, same canonical
// trace — sequentially and under every shard layout. This is the contract
// that lets the hot path coalesce without anybody downstream noticing.
package swishmem_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"swishmem"
)

func coalesceOff(c *swishmem.Cluster) { c.DisableCoalescing() }

// TestCoalesceIdenticalRunLog pins the full workload output (commit
// callbacks, reads, counter sums, network totals, processed-event counts)
// across coalescing on/off and shard layouts.
func TestCoalesceIdenticalRunLog(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		want := identityWorkload(t, 1, seed)
		if !strings.Contains(want, "ok=true") {
			t.Fatalf("seed %d: baseline run committed nothing:\n%s", seed, want)
		}
		if got := identityWorkload(t, 1, seed, coalesceOff); got != want {
			t.Fatalf("seed %d: uncoalesced sequential run diverged:\n%s",
				seed, firstDiff(want, got))
		}
		for _, shards := range []int{2, 6} {
			if got := identityWorkload(t, shards, seed, coalesceOff); got != want {
				t.Fatalf("seed %d shards=%d uncoalesced diverged from coalesced sequential:\n%s",
					seed, shards, firstDiff(want, got))
			}
		}
	}
}

// TestCoalesceIdenticalTrace pins the canonical Chrome trace export: the
// coalesced scheduler must emit the same per-message instants at the same
// virtual times as the uncoalesced one.
func TestCoalesceIdenticalTrace(t *testing.T) {
	runTraced := func(shards int, mut ...func(*swishmem.Cluster)) []byte {
		c, err := swishmem.New(swishmem.Config{Switches: 4, Seed: 9, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, m := range mut {
			m(c)
		}
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
		var buf bytes.Buffer
		if err := c.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := runTraced(1)
	if got := runTraced(1, coalesceOff); !bytes.Equal(got, want) {
		t.Fatalf("uncoalesced trace diverged from coalesced:\n%s",
			firstDiff(string(want), string(got)))
	}
	if got := runTraced(2, coalesceOff); !bytes.Equal(got, want) {
		t.Fatalf("sharded uncoalesced trace diverged from coalesced sequential:\n%s",
			firstDiff(string(want), string(got)))
	}
}
