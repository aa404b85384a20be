package swishmem

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// TestSimultaneousFailureDeterminism fails two chain members at the same
// virtual instant — both become silent inside one failure-timeout window, so
// a single controller scan tick sees two dead switches at once. The
// controller's scan and per-register reconfiguration walks iterate Go maps;
// without sorted iteration the victim ordering (and hence the emitted
// configuration epochs and trace) differs between runs. The whole
// reconfiguration trace must be byte-identical across repeated runs of the
// same seed.
func TestSimultaneousFailureDeterminism(t *testing.T) {
	run := func() []byte {
		c, err := New(Config{Switches: 5, Spares: 1, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		c.EnableTracing(1 << 16)
		strong, err := c.DeclareStrong("s", StrongOptions{
			Capacity: 64, ValueWidth: 8, RetryTimeout: 500 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		ctr, err := c.DeclareCounter("c", EventualOptions{
			Capacity: 64, SyncPeriod: 500 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		c.RunFor(2 * time.Millisecond)

		val := make([]byte, 8)
		for k := uint64(0); k < 8; k++ {
			binary.BigEndian.PutUint64(val, k)
			strong[0].Write(k, val, nil)
			ctr[int(k)%5].Add(k, 1)
		}
		c.RunFor(3 * time.Millisecond)

		// Both failures land at the exact same virtual time: one scan tick
		// later the controller sees two silent members in the same pass.
		c.Engine().After(0, func() {
			c.FailSwitch(1)
			c.FailSwitch(2)
		})
		c.RunFor(20 * time.Millisecond)

		// Traffic on the survivors exercises the post-reconfiguration chain.
		for k := uint64(8); k < 12; k++ {
			binary.BigEndian.PutUint64(val, k)
			strong[3].Write(k, val, nil)
			ctr[4].Add(k, 1)
		}
		c.RunFor(10 * time.Millisecond)

		var buf bytes.Buffer
		if err := c.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		if c.Controller().Stats.FailuresSeen.Value() != 2 {
			t.Fatalf("controller saw %d failures, want 2",
				c.Controller().Stats.FailuresSeen.Value())
		}
		return buf.Bytes()
	}

	first := run()
	for i := 1; i < 3; i++ {
		if got := run(); !bytes.Equal(first, got) {
			t.Fatalf("run %d produced a different trace (%d vs %d bytes): "+
				"reconfiguration after simultaneous failures is nondeterministic",
				i, len(got), len(first))
		}
	}
}
