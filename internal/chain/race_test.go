package chain

import (
	"cmp"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/obs"
	"swishmem/internal/wire"
)

func eachBackend(t *testing.T, fn func(t *testing.T, mode Replication)) {
	for _, mode := range []Replication{ChainReplication, RetransmitReplication} {
		t.Run(mode.String(), func(t *testing.T) { fn(t, mode) })
	}
}

// TestDuplicateDeliveryAppliesOnce pins the duplicate-delivery hardening: the
// fabric delivering every frame twice (DupRate 1) must neither double-apply a
// write nor double-fire its completion. The head assigns sequence numbers in
// place on the frame object, so a duplicate of the same object arrives
// already-sequenced and is dropped as stale at every position.
func TestDuplicateDeliveryAppliesOnce(t *testing.T) {
	eachBackend(t, func(t *testing.T, mode Replication) {
		cfg := defCfg()
		cfg.Replication = mode
		cfg.RetryTimeout = 5 * time.Millisecond // out of the dup window
		r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 10_000, DupRate: 1})
		const writes = 20
		doneCount := make([]int, writes)
		for i := 0; i < writes; i++ {
			i := i
			r.nodes[1].Write(uint64(i), u64val(uint64(i*3)), func(ok bool) {
				if !ok {
					t.Errorf("write %d failed", i)
				}
				doneCount[i]++
			})
		}
		r.eng.Run()
		for i, c := range doneCount {
			if c != 1 {
				t.Fatalf("write %d: done fired %d times", i, c)
			}
		}
		for i := 0; i < 3; i++ {
			n := r.nodes[i]
			// Exactly one application per write per node: the duplicate of
			// every frame must be stale-dropped, not re-applied.
			if got := n.Stats.Applied.Value(); got != writes {
				t.Fatalf("node %d applied %d times, want %d", i, got, writes)
			}
			if n.Stats.StaleDropped.Value() == 0 {
				t.Fatalf("node %d dropped no duplicates at DupRate 1", i)
			}
		}
		for i := 0; i < writes; i++ {
			want, _ := r.nodes[0].Get(uint64(i))
			for j := 1; j < 3; j++ {
				if got, _ := r.nodes[j].Get(uint64(i)); string(got) != string(want) {
					t.Fatalf("key %d: replica %d diverged", i, j)
				}
			}
		}
	})
}

// TestStaleDuplicateDoesNotClearPendingOrReapply is the precise E-series
// hazard from the issue: a stale duplicate (seq <= applied) arriving at a
// member whose group has the pending bit set (a newer write in flight) must
// not apply, must not clear the pending bit, and must not complete anything
// at the writer.
func TestStaleDuplicateDoesNotClearPendingOrReapply(t *testing.T) {
	eachBackend(t, func(t *testing.T, mode Replication) {
		cfg := defCfg()
		cfg.Replication = mode
		cfg.Groups = 1                                                     // shared group: the dup's group is pending
		r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 1000 * 1000}) // 1ms hops
		r.nodes[0].Write(5, val("committed"), nil)
		r.eng.Run()

		// Second write in flight: head applied (pending set), tail has not.
		r.nodes[0].Write(5, val("inflight"), nil)
		r.eng.RunFor(1200 * time.Microsecond)
		head := r.nodes[0]
		if !head.isPending(0) {
			t.Skip("timing: head has not applied the in-flight write yet")
		}
		appliedBefore := head.Stats.Applied.Value()

		// Replay the committed write's frame at the head: seq 1 <= applied 2,
		// pending set — the stale-duplicate shape.
		dup := &wire.Write{Reg: cfg.Reg, Key: 5, Seq: 1, WriteID: 1,
			Writer: uint16(head.sw.Addr()), Epoch: head.chain.Epoch, Value: val("committed")}
		r.nodes[0].Handle(head.sw.Addr(), dup)
		if got := head.Stats.Applied.Value(); got != appliedBefore {
			t.Fatal("stale duplicate was re-applied")
		}
		if !head.isPending(0) {
			t.Fatal("stale duplicate cleared the pending bit")
		}
		if v, _ := head.Get(5); string(v) != "inflight" {
			t.Fatalf("stale duplicate overwrote the newer value: %q", v)
		}
		r.eng.Run()
	})
}

// TestFinishDoesNotPoolRetriedRecords pins the outstanding-pool aliasing fix:
// every attempt's wire frame aliases the record's value backing, so a record
// that was ever retried may have an earlier attempt still in flight and must
// not be recycled on completion. An unretried record is pooled.
func TestFinishDoesNotPoolRetriedRecords(t *testing.T) {
	cfg := defCfg()
	cfg.RetryTimeout = 300 * time.Microsecond
	r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 10_000})
	r.nodes[1].Write(1, val("clean"), nil)
	r.eng.Run()
	if got := len(r.nodes[1].ofree); got != 1 {
		t.Fatalf("unretried record not pooled: free list = %d", got)
	}

	// Force one retry: drop the first attempt on the writer->head link, then
	// heal the link so the retry commits.
	r.net.SetOneWayLink(2, 1, netem.LinkProfile{Latency: 10_000, LossRate: 1})
	committed := false
	r.nodes[1].Write(2, val("retried"), func(ok bool) { committed = ok })
	r.eng.RunFor(400 * time.Microsecond)
	r.net.SetOneWayLink(2, 1, netem.LinkProfile{Latency: 10_000})
	r.eng.Run()
	if !committed {
		t.Fatal("retried write did not commit")
	}
	if r.nodes[1].Stats.Retries.Value() == 0 {
		t.Fatal("fault shape produced no retry")
	}
	// The second write took the pooled record (free list went to 0); having
	// been retried, it must not come back.
	if got := len(r.nodes[1].ofree); got != 0 {
		t.Fatalf("retried record returned to the pool: free list = %d", got)
	}
}

// TestOutstandingRetryReconfigRace drives the writer's retry machinery
// through the fault shapes that historically race completion against
// recycling: heavy loss on each protocol leg, duplication+reordering, and
// epoch churn crossing in-flight retries. Every write must complete exactly
// once, the pending map must drain, and no committed value may bleed across
// records (values embed their key; a recycled backing read by a stale
// in-flight frame would break the tag).
func TestOutstandingRetryReconfigRace(t *testing.T) {
	cases := []struct {
		name     string
		fault    func(r *rig)
		reconfig bool
	}{
		{"head-loss", func(r *rig) {
			r.net.SetOneWayLink(2, 1, netem.LinkProfile{Latency: 10_000, LossRate: 0.7})
		}, false},
		{"ack-loss", func(r *rig) {
			r.net.SetOneWayLink(3, 2, netem.LinkProfile{Latency: 10_000, LossRate: 0.7})
		}, false},
		{"dup-reorder", func(r *rig) {
			p := netem.LinkProfile{Latency: 10_000, DupRate: 0.5, ReorderRate: 0.5}
			r.net.SetOneWayLink(2, 1, p)
			r.net.SetOneWayLink(1, 2, p)
		}, false},
		{"reconfig-mid-retry", func(r *rig) {
			r.net.SetOneWayLink(2, 1, netem.LinkProfile{Latency: 10_000, LossRate: 0.5})
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := defCfg()
			cfg.RetryTimeout = 150 * time.Microsecond
			r := newRig(t, 7, 3, cfg, netem.LinkProfile{Latency: 10_000})
			tc.fault(r)
			const writes = 40
			doneCount := make([]int, writes)
			for i := 0; i < writes; i++ {
				i := i
				v := make([]byte, 16)
				binary.BigEndian.PutUint64(v, uint64(i%8))   // key tag
				binary.BigEndian.PutUint64(v[8:], uint64(i)) // op tag
				r.nodes[1].Write(uint64(i%8), v, func(ok bool) { doneCount[i]++ })
				if tc.reconfig && i%5 == 4 {
					// Epoch bump with identical membership: in-flight retries
					// cross the configuration change.
					r.installChain(r.allAddrs(), 0)
				}
				r.eng.RunFor(30 * time.Microsecond)
			}
			r.eng.Run()
			for i, c := range doneCount {
				if c != 1 {
					t.Fatalf("write %d: done fired %d times", i, c)
				}
			}
			if got := r.nodes[1].OutstandingWrites(); got != 0 {
				t.Fatalf("%d writes still outstanding after quiesce", got)
			}
			// No cross-record corruption: every stored value's key tag must
			// match the key it is stored under, on every replica.
			for key := uint64(0); key < 8; key++ {
				for j, n := range r.nodes {
					v, ok := n.Get(key)
					if !ok {
						continue // every write to this key may have failed
					}
					if len(v) != 16 || binary.BigEndian.Uint64(v) != key {
						t.Fatalf("replica %d key %d holds foreign bytes %x", j, key, v)
					}
				}
			}
		})
	}
}

// --- tail-forwarded reads racing reconfiguration (readpath_test.go covers
// --- only the steady state) ---

// TestForwardedReadCompletesAcrossReconfig: a read forwarded to the tail,
// with the reply still in flight when a new chain epoch lands at the origin,
// must still complete its continuation exactly once and drain the origin's
// outstanding-read table.
func TestForwardedReadCompletesAcrossReconfig(t *testing.T) {
	cfg := defCfg()
	cfg.AlwaysTailReads = true
	r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 1000 * 1000}) // 1ms hops
	r.nodes[0].Write(7, val("v"), nil)
	r.eng.Run()
	got := 0
	r.nodes[0].Read(7, func(v []byte, ok bool) {
		got++
		if !ok || string(v) != "v" {
			t.Errorf("forwarded read = %q %v", v, ok)
		}
	})
	if len(r.nodes[0].reads) != 1 {
		t.Fatal("read not registered as outstanding")
	}
	// Reconfigure while the reply is in flight: drop the old tail.
	r.installChain([]uint16{1, 2}, 0)
	r.eng.Run()
	if got != 1 {
		t.Fatalf("read continuation fired %d times", got)
	}
	if len(r.nodes[0].reads) != 0 {
		t.Fatal("outstanding read leaked across reconfiguration")
	}
}

// TestForwardedReadToCrashedTailThenReconfig pins the current liveness
// contract: a read forwarded to a tail that dies before serving it is lost
// (reads carry no retry machinery — the NF re-issues), and reads issued
// after the failover use the new tail and complete normally.
func TestForwardedReadToCrashedTailThenReconfig(t *testing.T) {
	cfg := defCfg()
	cfg.AlwaysTailReads = true
	r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 1000 * 1000})
	r.nodes[0].Write(7, val("v"), nil)
	r.eng.Run()
	r.sws[2].Fail()
	fired := false
	r.nodes[0].Read(7, func([]byte, bool) { fired = true })
	r.eng.Run()
	if fired {
		t.Fatal("read against a dead tail completed")
	}
	if len(r.nodes[0].reads) != 1 {
		t.Fatal("lost read not accounted as outstanding")
	}
	// Failover; a fresh read must be served by the new tail (node 1).
	r.installChain([]uint16{1, 2}, 0)
	got := ""
	r.nodes[0].Read(7, func(v []byte, ok bool) { got = string(v) })
	r.eng.Run()
	if got != "v" {
		t.Fatalf("post-failover read = %q", got)
	}
	if r.nodes[1].Stats.TailReads.Value() == 0 {
		t.Fatal("new tail served no reads")
	}
}

// TestDuplicateReadReplyIgnored: the fabric may duplicate a ReadReply; the
// second delivery finds its ReqID already completed and must be a no-op.
func TestDuplicateReadReplyIgnored(t *testing.T) {
	cfg := defCfg()
	cfg.AlwaysTailReads = true
	r := newRig(t, 1, 2, cfg, netem.LinkProfile{Latency: 10_000})
	r.nodes[0].Write(3, val("x"), nil)
	r.eng.Run()
	fired := 0
	r.nodes[0].Read(3, func([]byte, bool) { fired++ })
	r.eng.Run()
	if fired != 1 {
		t.Fatalf("read fired %d times", fired)
	}
	// Replay the reply (ReqID 1 was the first forwarded read).
	r.nodes[0].Handle(2, &wire.ReadReply{Reg: cfg.Reg, Key: 3, ReqID: 1, Value: val("x")})
	if fired != 1 {
		t.Fatalf("duplicate reply re-fired the continuation: %d", fired)
	}
}

// TestWriteLifecycleTrace: one traced write on a 3-member chain reads
// submit, a forward per non-tail hop, the tail's ack, and the writer's commit
// span — on both backends, since both run the same hop step.
func TestWriteLifecycleTrace(t *testing.T) {
	eachBackend(t, func(t *testing.T, mode Replication) {
		cfg := defCfg()
		cfg.Replication = mode
		r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 10_000})
		tr := obs.NewTracer(64)
		r.eng.SetTracer(tr)
		r.nodes[0].Write(7, val("v"), nil)
		r.eng.Run()
		evs := tr.Events() // ordered by start time; the commit span starts at submit
		slices.SortFunc(evs, func(a, b obs.Event) int { return cmp.Compare(a.Seq, b.Seq) })
		var got []string
		for _, ev := range evs {
			if ev.Cat == "chain" {
				got = append(got, ev.Name)
			}
		}
		want := []string{"write.submit", "write.forward", "write.forward", "write.ack", "write.commit"}
		if !slices.Equal(got, want) {
			t.Fatalf("chain trace = %v, want %v", got, want)
		}
	})
}
