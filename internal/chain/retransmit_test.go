package chain

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/obs"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/wire"
)

// newRtxRig is newRig on the retransmit backend.
func newRtxRig(t testing.TB, seed int64, n int, cfg Config, profile netem.LinkProfile) *rig {
	t.Helper()
	cfg.Replication = RetransmitReplication
	return newRig(t, seed, n, cfg, profile)
}

// rtxCfg is the E15 anomaly configuration: one shared sequence group, so a
// lost chain-hop frame plus a commit of a later write in the same group is
// exactly the monotone-apply anomaly the retransmit backend closes.
func rtxCfg() Config {
	return Config{Reg: 1, Capacity: 64, ValueWidth: 16, Mode: SRO, Groups: 1,
		RetryTimeout: 2 * time.Millisecond}
}

func TestRetransmitWriteCommitsAndReplicates(t *testing.T) {
	r := newRtxRig(t, 1, 3, rtxCfg(), netem.LinkProfile{Latency: 10_000})
	committed := false
	r.nodes[1].Write(42, val("hello"), func(ok bool) { committed = ok })
	r.eng.Run()
	if !committed {
		t.Fatal("write not committed")
	}
	for i, n := range r.nodes {
		if v, ok := n.Get(42); !ok || string(v) != "hello" {
			t.Fatalf("replica %d: %q %v", i, v, ok)
		}
	}
	if r.nodes[0].HeldFrames() != 0 {
		t.Fatal("held frames on a lossless run")
	}
}

func TestRetransmitRecoversDeterministicHopLoss(t *testing.T) {
	// Every 3rd frame on the head->middle hop is dropped: each loss opens a
	// sequence gap at the middle member that only NACK+retransmit can close
	// (the writer's end-to-end retry re-sequences, it does not fill gaps).
	r := newRtxRig(t, 1, 3, rtxCfg(), netem.LinkProfile{Latency: 10_000})
	r.net.SetOneWayLink(1, 2, netem.LinkProfile{Latency: 10_000, LossEveryN: 3})
	committed := 0
	const writes = 30
	for i := 0; i < writes; i++ {
		r.nodes[0].Write(uint64(i%8), u64val(uint64(i)), func(ok bool) {
			if ok {
				committed++
			}
		})
	}
	r.eng.Run()
	if committed != writes {
		t.Fatalf("committed %d/%d", committed, writes)
	}
	mid := r.nodes[1]
	if mid.Counters().NacksSent.Value() == 0 {
		t.Fatal("no NACKs under deterministic hop loss")
	}
	if r.nodes[0].Counters().Retransmits.Value() == 0 {
		t.Fatal("head never retransmitted")
	}
	for i, n := range r.nodes {
		if n.Counters().RtxAbandoned.Value() != 0 {
			t.Fatalf("node %d abandoned a gap", i)
		}
		if n.HeldFrames() != 0 {
			t.Fatalf("node %d still holds frames after quiesce", i)
		}
	}
	// All replicas converged on every key.
	for key := uint64(0); key < 8; key++ {
		want, _ := r.nodes[0].Get(key)
		for i := 1; i < 3; i++ {
			if got, _ := r.nodes[i].Get(key); string(got) != string(want) {
				t.Fatalf("key %d: replica %d = %q, head = %q", key, i, got, want)
			}
		}
	}
}

func TestRetransmitRecoversRandomHopLossAllSeeds(t *testing.T) {
	// The E15 fault shape: 20% random loss on both chain hops, shared group.
	// Every write must commit, replicas must converge, and no gap may be
	// abandoned — the data-plane recovery alone closes every hole.
	for seed := int64(1); seed <= 8; seed++ {
		r := newRtxRig(t, seed, 3, rtxCfg(), netem.LinkProfile{Latency: 10_000})
		r.net.SetOneWayLink(1, 2, netem.LinkProfile{Latency: 10_000, LossRate: 0.2})
		r.net.SetOneWayLink(2, 3, netem.LinkProfile{Latency: 10_000, LossRate: 0.2})
		committed := 0
		const writes = 40
		for i := 0; i < writes; i++ {
			r.nodes[0].Write(uint64(i%8), u64val(uint64(i)), func(ok bool) {
				if ok {
					committed++
				}
			})
			r.eng.RunFor(50 * time.Microsecond)
		}
		r.eng.Run()
		if committed != writes {
			t.Fatalf("seed %d: committed %d/%d", seed, committed, writes)
		}
		for i, n := range r.nodes {
			if n.Counters().RtxAbandoned.Value() != 0 {
				t.Fatalf("seed %d: node %d abandoned a gap", seed, i)
			}
			if n.HeldFrames() != 0 {
				t.Fatalf("seed %d: node %d holds frames after quiesce", seed, i)
			}
		}
		for key := uint64(0); key < 8; key++ {
			want, okWant := r.nodes[0].Get(key)
			for i := 1; i < 3; i++ {
				got, ok := r.nodes[i].Get(key)
				if ok != okWant || string(got) != string(want) {
					t.Fatalf("seed %d key %d: replica %d = %q(%v), head = %q(%v)",
						seed, key, i, got, ok, want, okWant)
				}
			}
		}
	}
}

func TestRetransmitDisabledBufferDegradesAndIsVisible(t *testing.T) {
	// InjectDisableRetransmit is the planted verification bug the explore
	// oracle must catch: the head buffers nothing, so every NACK it receives
	// is unserviceable and answered with a skip cursor. Liveness survives
	// (the successor abandons the gap and falls back to monotone apply) but
	// the degradation is visible in exactly the counters the oracle checks:
	// NACKs received with nothing ever stored, and abandoned gaps.
	r := newRtxRig(t, 1, 3, rtxCfg(), netem.LinkProfile{Latency: 10_000})
	r.nodes[0].InjectDisableRetransmit()
	r.net.SetOneWayLink(1, 2, netem.LinkProfile{Latency: 10_000, LossEveryN: 3})
	committed := 0
	const writes = 30
	for i := 0; i < writes; i++ {
		r.nodes[0].Write(uint64(i%8), u64val(uint64(i)), func(ok bool) {
			if ok {
				committed++
			}
		})
	}
	r.eng.Run()
	if committed != writes {
		t.Fatalf("committed %d/%d: skip fallback must preserve liveness", committed, writes)
	}
	head := r.nodes[0].Counters()
	if head.NacksReceived.Value() == 0 {
		t.Fatal("head received no NACKs")
	}
	if head.RtxStored.Value() != 0 {
		t.Fatal("disabled buffer stored frames")
	}
	if r.nodes[1].Counters().RtxAbandoned.Value() == 0 {
		t.Fatal("middle member abandoned no gaps despite an empty predecessor buffer")
	}
	for i, n := range r.nodes {
		if n.HeldFrames() != 0 {
			t.Fatalf("node %d holds frames after quiesce", i)
		}
	}
}

func TestRetransmitEpochChangeDropsHeldFrames(t *testing.T) {
	// Held-back frames carry the old epoch and their sequence numbers may be
	// reassigned by a new head; a reconfiguration must discard them.
	cfg := rtxCfg()
	cfg.RetryTimeout = time.Second // keep writer retries and repair out of the window
	r := newRtxRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 10_000})
	// Drop every 2nd head->middle frame and every NACK going back, so gaps
	// stay open and frames stay held.
	r.net.SetOneWayLink(1, 2, netem.LinkProfile{Latency: 10_000, LossEveryN: 2})
	r.net.SetOneWayLink(2, 1, netem.LinkProfile{Latency: 10_000, LossRate: 1})
	for i := 0; i < 6; i++ {
		r.nodes[0].Write(uint64(i), u64val(uint64(i)), nil)
	}
	r.eng.RunFor(2 * time.Millisecond)
	if r.nodes[1].HeldFrames() == 0 {
		t.Fatal("middle member held nothing; fault shape did not open a gap")
	}
	r.installChain(r.allAddrs(), 0) // epoch bump, same membership
	if r.nodes[1].HeldFrames() != 0 {
		t.Fatal("held frames survived the epoch change")
	}
}

func TestRetransmitBuffersChargedToSRAM(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	mk := func(addr netem.Addr, cfg Config) *Node {
		sw := pisa.New(eng, nw, pisa.Config{Addr: addr})
		rep, err := NewNode(sw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := mk(1, rtxCfg())
	cfg := rtxCfg()
	cfg.Replication = RetransmitReplication
	rtx := mk(2, cfg)
	if rtx.MemoryBytes() <= base.MemoryBytes() {
		t.Fatalf("retransmit backend (%d) must charge more SRAM than chain (%d)",
			rtx.MemoryBytes(), base.MemoryBytes())
	}
	deep := cfg
	deep.RetransmitDepth = 64
	deeper := mk(3, deep)
	if deeper.MemoryBytes() <= rtx.MemoryBytes() {
		t.Fatalf("deeper buffers (%d) must charge more SRAM (%d at depth 16)",
			deeper.MemoryBytes(), rtx.MemoryBytes())
	}
	// The two buffer arrays account for exactly the extra charge:
	// 2 x Groups x Depth x (26 + ValueWidth).
	want := 2 * 1 * 16 * (26 + 16)
	if got := rtx.MemoryBytes() - base.MemoryBytes(); got != want {
		t.Fatalf("buffer charge = %d bytes, want %d", got, want)
	}
}

// TestReplicationFactory pins the seam NewNode hides: which SRAM arrays each
// Replication value allocates (names and order from the switch's mem.charge
// trace, byte totals as measured before the two node types were folded into
// one), that proxies allocate nothing, and that the retransmit-only surface
// is inert on the chain backend.
func TestReplicationFactory(t *testing.T) {
	for _, tc := range []struct {
		rep    Replication
		arrays []string
		bytes  int
	}{
		// rtxCfg: 64 x (8+16) store, 1 x 9 seq/pending, 2 x 1 x 16 x (26+16) buffers.
		{ChainReplication, []string{"kvstore chain-reg1", "register array chain-seq1"}, 1545},
		{RetransmitReplication, []string{"kvstore chain-reg1", "register array chain-seq1",
			"register array chain-rtx1", "register array chain-hold1"}, 2889},
	} {
		t.Run(tc.rep.String(), func(t *testing.T) {
			eng := sim.NewEngine(1)
			tr := obs.NewTracer(16)
			eng.SetTracer(tr)
			nw := netem.New(eng, netem.LinkProfile{})
			sw := pisa.New(eng, nw, pisa.Config{Addr: 1})
			cfg := rtxCfg()
			cfg.Replication = tc.rep
			n, err := NewNode(sw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, ev := range tr.Events() {
				if ev.Name == "mem.charge" {
					got = append(got, ev.VS)
				}
			}
			if !slices.Equal(got, tc.arrays) {
				t.Fatalf("SRAM arrays = %q, want %q", got, tc.arrays)
			}
			if n.MemoryBytes() != tc.bytes || sw.MemoryUsed() != tc.bytes {
				t.Fatalf("MemoryBytes = %d, switch charged %d, want %d", n.MemoryBytes(), sw.MemoryUsed(), tc.bytes)
			}

			cfg.Reg, cfg.Proxy = 2, true
			px, err := NewNode(sw, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if px.MemoryBytes() != 0 || sw.MemoryUsed() != tc.bytes {
				t.Fatalf("proxy charged SRAM: MemoryBytes %d, switch %d -> %d", px.MemoryBytes(), tc.bytes, sw.MemoryUsed())
			}
			// Hop control frames for a proxy's register are consumed without
			// hop state; another register's are not claimed.
			if !px.Handle(2, &wire.ChainNack{Reg: 2, From: 1, To: 2}) {
				t.Fatal("proxy did not claim its register's NACK")
			}
			if px.Handle(2, &wire.ChainCursor{Reg: 99}) {
				t.Fatal("proxy claimed another register's cursor")
			}
			px.InjectDisableRetransmit() // must not panic without hop state
			if px.HeldFrames() != 0 {
				t.Fatal("proxy holds frames")
			}
		})
	}

	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	sw := pisa.New(eng, nw, pisa.Config{Addr: 1})
	cfg := rtxCfg()
	cfg.Replication = Replication(99)
	if _, err := NewNode(sw, cfg); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if sw.MemoryUsed() != 0 {
		t.Fatal("rejected config charged SRAM")
	}
	if ChainReplication.String() != "chain" || RetransmitReplication.String() != "retransmit" {
		t.Fatal("replication strings")
	}
}

// TestRetransmitSurfaceInertOnChainBackend: HeldFrames and
// InjectDisableRetransmit exist on every node; on the chain backend they do
// nothing, under the hop loss that makes them bite on the retransmit backend
// (TestRetransmitDisabledBufferDegradesAndIsVisible).
func TestRetransmitSurfaceInertOnChainBackend(t *testing.T) {
	r := newRig(t, 1, 3, rtxCfg(), netem.LinkProfile{Latency: 10_000})
	r.nodes[0].InjectDisableRetransmit()
	r.net.SetOneWayLink(1, 2, netem.LinkProfile{Latency: 10_000, LossEveryN: 3})
	committed := 0
	const writes = 30
	for i := 0; i < writes; i++ {
		r.nodes[0].Write(uint64(i%8), u64val(uint64(i)), func(ok bool) {
			if ok {
				committed++
			}
		})
		r.eng.RunFor(20 * time.Microsecond)
		for j, n := range r.nodes {
			if n.HeldFrames() != 0 {
				t.Fatalf("chain-backend node %d holds frames", j)
			}
		}
	}
	r.eng.Run()
	if committed != writes {
		t.Fatalf("committed %d/%d", committed, writes)
	}
	for j, n := range r.nodes {
		c := n.Counters()
		if c.HeldBack.Value()+c.NacksSent.Value()+c.NacksReceived.Value()+c.RtxStored.Value()+c.RtxAbandoned.Value() != 0 {
			t.Fatalf("chain-backend node %d moved a retransmit counter", j)
		}
	}
}

func TestRetransmitProxyHasNoBuffers(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	sw := pisa.New(eng, nw, pisa.Config{Addr: 1})
	cfg := rtxCfg()
	cfg.Proxy = true
	cfg.Replication = RetransmitReplication
	rep, err := NewNode(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MemoryBytes() != 0 || sw.MemoryUsed() != 0 {
		t.Fatal("proxy charged SRAM")
	}
	if rep.hop != nil {
		t.Fatal("proxy built hop state")
	}
}

func TestRetransmitFailoverMidChain(t *testing.T) {
	// The retransmit backend must survive the chain backend's failover flow:
	// member order is preserved, retained ring prefixes stay valid.
	cfg := rtxCfg()
	cfg.RetryTimeout = 300 * time.Microsecond
	r := newRtxRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 10_000})
	r.nodes[0].Write(1, val("pre"), nil)
	r.eng.Run()
	r.sws[1].Fail()
	committed := false
	r.nodes[0].Write(2, val("during"), func(ok bool) { committed = ok })
	r.eng.RunFor(1 * time.Millisecond)
	if committed {
		t.Fatal("write committed through a broken chain")
	}
	r.installChain([]uint16{1, 3}, 0)
	r.eng.Run()
	if !committed {
		t.Fatal("write did not commit after failover")
	}
	if v, ok := r.nodes[2].Get(2); !ok || string(v) != "during" {
		t.Fatalf("tail replica = %q %v", v, ok)
	}
}

func TestRetransmitRecoveryJoinFullFlow(t *testing.T) {
	// §6.3 recovery on the retransmit backend: the joining switch receives
	// committed writes from the tail — arbitrarily sparse sequences — and
	// must stay on monotone apply instead of NACKing expected gaps.
	cfg := rtxCfg()
	cfg.RetryTimeout = 300 * time.Microsecond
	r := newRtxRig(t, 3, 4, cfg, netem.LinkProfile{Latency: 10_000})
	r.installChain([]uint16{1, 2, 3}, 0)
	const keys = 40
	for i := 0; i < keys; i++ {
		r.nodes[0].Write(uint64(i), u64val(uint64(i*7)), nil)
	}
	r.eng.Run()
	r.nodes[3].BeginJoin()
	r.installChain([]uint16{1, 2, 3}, 4)
	done := false
	r.nodes[0].StartSnapshotTransfer(4, func() { done = true })
	for i := 0; i < 10; i++ {
		r.nodes[1].Write(uint64(i), u64val(uint64(i*1000)), nil)
	}
	r.eng.Run()
	if !done {
		t.Fatal("snapshot transfer never completed")
	}
	if got := r.nodes[3].Counters().NacksSent.Value(); got != 0 {
		t.Fatalf("joining switch sent %d NACKs for expected gaps", got)
	}
	r.installChain([]uint16{1, 2, 3, 4}, 0)
	r.eng.Run()
	for i := 0; i < keys; i++ {
		v, ok := r.nodes[3].Get(uint64(i))
		if !ok {
			t.Fatalf("key %d missing on joined switch", i)
		}
		want := uint64(i * 7)
		if i < 10 {
			want = uint64(i * 1000)
		}
		if binary.BigEndian.Uint64(v) != want {
			t.Fatalf("key %d = %d, want %d", i, binary.BigEndian.Uint64(v), want)
		}
	}
}
