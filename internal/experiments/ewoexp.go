package experiments

import (
	"fmt"
	"time"

	"swishmem"
	"swishmem/internal/stats"
	"swishmem/internal/wire"
)

// EWOConvergence (E6) measures §6.2's challenge C1: with lost update
// packets, how long until every replica reflects a write? The per-write
// multicast converges in one fabric hop when it survives; when it is lost,
// the periodic synchronization repairs it — so convergence time is bounded
// by roughly the sync period regardless of loss rate, while without sync it
// never converges under heavy loss.
func EWOConvergence(seed int64) *Result {
	res := &Result{ID: "E6", Title: "§6.2: EWO convergence time vs loss rate and sync period"}
	tab := stats.NewTable("E6: time until all replicas hold a write (3 switches, 50 writes per cell)",
		"Loss", "Sync period", "Mean", "p99", "Unconverged")

	run := func(loss float64, syncPeriod time.Duration, disableSync bool) (h *stats.Histogram, lost int) {
		link := swishmem.LinkProfile{Latency: 10_000, BandwidthBps: 100e9, LossRate: loss}
		c, _ := newCluster(swishmem.Config{Switches: 3, Seed: seed, Link: &link})
		regs, err := c.DeclareCounter("x", swishmem.EventualOptions{
			Capacity: 256, SyncPeriod: syncPeriod, DisableSync: disableSync,
		})
		if err != nil {
			panic(err)
		}
		c.RunFor(2 * time.Millisecond)
		h = stats.NewHistogram()
		for i := 0; i < 50; i++ {
			key := uint64(i)
			start := c.Now()
			regs[0].Add(key, 1)
			// Poll until all replicas see it, with a per-write deadline.
			deadline := start + 100*time.Millisecond
			converged := false
			for c.Now() < deadline {
				c.RunFor(50 * time.Microsecond)
				if regs[1].Sum(key) == 1 && regs[2].Sum(key) == 1 {
					converged = true
					break
				}
			}
			if !converged {
				lost++
				continue
			}
			h.Observe(float64(c.Now() - start))
		}
		// Aggregate EWO traffic accounting across every cell of the sweep.
		res.addMetrics(c, "")
		return h, lost
	}

	bounded := true
	worstRounds := 0.0
	for _, loss := range []float64{0, 0.01, 0.05, 0.10} {
		for _, period := range []time.Duration{500 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
			h, lost := run(loss, period, false)
			p99 := time.Duration(h.Quantile(0.99))
			tab.AddRow(loss, period, time.Duration(h.Mean()), p99, lost)
			// The hard claim is eventual consistency: nothing stays
			// unconverged. The p99-in-sync-rounds figure is reported but
			// has a seed-sensitive tail (each sync round gossips to ONE
			// random member), so it is informational.
			if lost > 0 {
				bounded = false
			}
			if r := float64(p99) / float64(period); r > worstRounds {
				worstRounds = r
			}
		}
	}
	// Control: no periodic sync at heavy loss.
	hNo, lostNo := run(0.5, time.Millisecond, true)
	tab.AddRow(0.5, "disabled", time.Duration(hNo.Mean()), time.Duration(hNo.Quantile(0.99)), lostNo)
	res.Tables = append(res.Tables, tab)
	res.note("with periodic sync, every write converged at every loss rate: %v (worst p99 ~%.0f sync rounds)",
		bounded, worstRounds)
	if !bounded {
		res.note("SHAPE VIOLATION: writes left unconverged despite periodic sync")
	}
	res.note("without sync at 50%% loss, %d/50 writes never converged (multicast-only is not eventually consistent)", lostNo)
	if lostNo == 0 {
		res.note("SHAPE VIOLATION: expected unrepaired losses without periodic sync")
	}
	return res
}

// LWWvsCRDT (E8) reproduces the §6.2 merging comparison: a counter
// maintained as a last-writer-wins register loses concurrent increments
// (each writer stamps its own read-modify-write; merges pick one), while
// the G-counter CRDT is exact — "avoids counter-intuitive scenarios such as
// a counter decreasing" and never loses an increment.
func LWWvsCRDT(seed int64) *Result {
	res := &Result{ID: "E8", Title: "§6.2: counter merged by LWW vs counter CRDT"}
	tab := stats.NewTable("E8: final counter value after concurrent increments (truth = switches x increments)",
		"Switches", "Increments each", "Truth", "LWW value", "LWW error", "CRDT value", "CRDT error")

	crdtExact := true
	lwwLossy := false
	for _, n := range []int{2, 4, 8} {
		const perSwitch = 100
		truth := uint64(n * perSwitch)

		// LWW: the counter is one register; increment = local read + write.
		link := swishmem.LinkProfile{Latency: 10_000, BandwidthBps: 100e9}
		cl, _ := newCluster(swishmem.Config{Switches: n, Seed: seed, Link: &link})
		lww, _ := cl.DeclareEventual("ctr", swishmem.EventualOptions{Capacity: 4, ValueWidth: 8})
		cl.RunFor(2 * time.Millisecond)
		for i := 0; i < perSwitch; i++ {
			for s := 0; s < n; s++ {
				v, _ := lww[s].Read(1)
				lww[s].Write(1, u64inc(v))
			}
			cl.RunFor(30 * time.Microsecond) // overlap heavy: merges race
		}
		cl.RunFor(50 * time.Millisecond)
		lwwVal := u64of(firstVal(lww[0].Read(1)))

		// CRDT: the same workload against a G-counter.
		cc, _ := newCluster(swishmem.Config{Switches: n, Seed: seed, Link: &link})
		crdt, _ := cc.DeclareCounter("ctr", swishmem.EventualOptions{Capacity: 4})
		cc.RunFor(2 * time.Millisecond)
		for i := 0; i < perSwitch; i++ {
			for s := 0; s < n; s++ {
				crdt[s].Add(1, 1)
			}
			cc.RunFor(30 * time.Microsecond)
		}
		cc.RunFor(50 * time.Millisecond)
		crdtVal := crdt[0].Sum(1)

		lwwErr := 1 - float64(lwwVal)/float64(truth)
		crdtErr := 1 - float64(crdtVal)/float64(truth)
		tab.AddRow(n, perSwitch, truth, lwwVal, lwwErr, crdtVal, crdtErr)
		if crdtVal != truth {
			crdtExact = false
		}
		if lwwVal < truth {
			lwwLossy = true
		}
	}
	res.Tables = append(res.Tables, tab)
	res.note("CRDT counter exact at every scale: %v; LWW loses concurrent increments: %v", crdtExact, lwwLossy)
	if !crdtExact {
		res.note("SHAPE VIOLATION: CRDT counter lost increments")
	}
	if !lwwLossy {
		res.note("SHAPE VIOLATION: LWW counter unexpectedly exact under concurrency")
	}
	return res
}

func u64inc(v []byte) []byte {
	n := u64of(v) + 1
	out := make([]byte, 8)
	for i := 0; i < 8; i++ {
		out[i] = byte(n >> (56 - 8*i))
	}
	return out
}

func u64of(v []byte) uint64 {
	var n uint64
	for _, b := range v {
		n = n<<8 | uint64(b)
	}
	return n
}

func firstVal(v []byte, ok bool) []byte { return v }

// Batching (E11) quantifies the §7 bandwidth-overhead remedy: "Batching
// write requests may alleviate this issue at the expense of reduced
// availability and consistency." Larger batches cut replication packets
// and bytes per update; staleness (time for the last update to reach the
// replicas) grows because updates wait in the batch buffer.
func Batching(seed int64) *Result {
	res := &Result{ID: "E11", Title: "§7: write batching — bandwidth vs staleness"}
	tab := stats.NewTable("E11: 512 counter increments on 3 switches, per-write multicast only",
		"Batch", "Update msgs", "Bytes", "Bytes/update", "Last-update staleness")

	var bytes1 float64
	monotoneBytes := true
	counterEntry := wire.EWOEntry{Value: []byte{0}}
	fit := (wire.MaxUpdateBytes - wire.EWOUpdateOverhead) / counterEntry.Size()
	var prevBytes float64 = -1
	for _, batch := range []int{1, 2, 4, 8, 16, 32, 64} {
		link := swishmem.LinkProfile{Latency: 10_000, BandwidthBps: 100e9}
		c, _ := newCluster(swishmem.Config{Switches: 3, Seed: seed, Link: &link})
		regs, err := c.DeclareCounter("b", swishmem.EventualOptions{
			Capacity: 1024, Batch: batch, DisableSync: true,
		})
		if err != nil {
			panic(err)
		}
		c.RunFor(2 * time.Millisecond)
		c.ResetNetworkTotals()
		const updates = 512
		for i := 0; i < updates; i++ {
			regs[0].Add(uint64(i%128), 1)
			c.RunFor(2 * time.Microsecond)
		}
		lastAt := c.Now()
		// Staleness of the final update: flush happens when the batch
		// fills; a partial batch waits (the availability cost §7 names).
		// Observe replica convergence of the last key written.
		deadline := c.Now() + 100*time.Millisecond
		var staleness time.Duration = -1
		want := regs[0].Sum(511 % 128)
		for c.Now() < deadline {
			if regs[1].Sum(511%128) == want {
				staleness = c.Now() - lastAt
				break
			}
			c.RunFor(20 * time.Microsecond)
		}
		stale := "never (stuck in batch)"
		if staleness >= 0 {
			stale = staleness.String()
		}
		t := c.NetworkTotals()
		perUpdate := float64(t.BytesSent) / updates
		res.addMetrics(c, fmt.Sprintf("batch=%d", batch))
		tab.AddRow(batch, t.MsgsSent, t.BytesSent, perUpdate, stale)
		if batch == 1 {
			bytes1 = float64(t.BytesSent)
		}
		// Past fit writes a batch of distinct keys outgrows one datagram and
		// closes early, so only batches up to it must save bytes.
		if prevBytes >= 0 && batch <= fit && float64(t.BytesSent) > prevBytes {
			monotoneBytes = false
		}
		prevBytes = float64(t.BytesSent)
	}
	res.Tables = append(res.Tables, tab)
	res.note("bytes fall monotonically with batch size up to %d, the counter entries one datagram holds: %v (batch=1 baseline %d bytes)", fit, monotoneBytes, int(bytes1))

	// Second table: periodic sync under the one packing. A round's entries
	// are packed into updates of at most wire.MaxUpdateBytes (one key's
	// entries never split), each of which the live fabric frames into one
	// datagram. The ewo.sync_bytes / ewo.update_bytes counters read here are
	// the same registry series the live soak reports, so the bytes-per-update
	// story is directly comparable across sim and live.
	syncTab := stats.NewTable(fmt.Sprintf("E11: periodic sync packed under wire.MaxUpdateBytes = %d (3 switches, 60 ms)", wire.MaxUpdateBytes),
		"Dirty keys", "Sync packets", "Sync bytes", "Bytes/packet", "Fits a datagram", "Converged")
	capsOK := true
	allConverged := true
	for _, keys := range []int{32, 128, 512} {
		c, _ := newCluster(swishmem.Config{Switches: 3, Seed: seed})
		regs, err := c.DeclareCounter("s", swishmem.EventualOptions{Capacity: 512})
		if err != nil {
			panic(err)
		}
		c.RunFor(2 * time.Millisecond)
		for i := 0; i < keys; i++ {
			regs[i%3].Add(uint64(i), uint64(i+1))
		}
		c.RunFor(60 * time.Millisecond)

		snap := c.Metrics().Snapshot()
		packets := snap.Sum("ewo.sync_packets")
		bytes := snap.Sum("ewo.sync_bytes")
		perPacket := 0.0
		if packets > 0 {
			perPacket = bytes / packets
		}
		// One key's entry run never splits, so the bound can only be passed
		// by a single oversized run; with counter entries that never happens
		// and the average packet must sit at or under it.
		capOK := packets > 0 && perPacket <= wire.MaxUpdateBytes
		if !capOK {
			capsOK = false
		}
		converged := true
		for k := uint64(0); k < uint64(keys); k++ {
			want := regs[0].Sum(k)
			for s := 1; s < 3; s++ {
				if regs[s].Sum(k) != want {
					converged = false
				}
			}
		}
		if !converged {
			allConverged = false
		}
		syncTab.AddRow(keys, uint64(packets), uint64(bytes), perPacket, capOK, converged)
		res.addMetrics(c, fmt.Sprintf("keys=%d", keys))
	}
	res.Tables = append(res.Tables, syncTab)
	if capsOK && allConverged {
		res.note("every sync packet fits one datagram and every key set converges")
	} else {
		res.note("SHAPE VIOLATION: a sync packet passed the datagram bound (%v) or a key set did not converge (%v)", !capsOK, !allConverged)
	}
	return res
}
