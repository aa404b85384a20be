package chain

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/wire"
)

// rig is a chain test cluster: n switches each running one Node.
type rig struct {
	eng   *sim.Engine
	net   *netem.Network
	sws   []*pisa.Switch
	nodes []*Node
	epoch uint32
}

func newRig(t testing.TB, seed int64, n int, cfg Config, profile netem.LinkProfile) *rig {
	t.Helper()
	eng := sim.NewEngine(seed)
	nw := netem.New(eng, profile)
	r := &rig{eng: eng, net: nw}
	for i := 0; i < n; i++ {
		sw := pisa.New(eng, nw, pisa.Config{Addr: netem.Addr(i + 1), PipelinePPS: 1e9})
		node, err := NewNode(sw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sw.SetMsgHandler(func(s *pisa.Switch, from netem.Addr, msg wire.Msg) {
			node.Handle(from, msg)
		})
		r.sws = append(r.sws, sw)
		r.nodes = append(r.nodes, node)
	}
	r.installChain(r.allAddrs(), 0)
	return r
}

func (r *rig) allAddrs() []uint16 {
	out := make([]uint16, len(r.sws))
	for i, sw := range r.sws {
		out[i] = uint16(sw.Addr())
	}
	return out
}

func (r *rig) installChain(members []uint16, joining uint16) {
	r.epoch++
	cc := wire.ChainConfig{Epoch: r.epoch, Members: members, Joining: joining}
	for _, n := range r.nodes {
		n.SetChain(cc)
	}
}

func val(s string) []byte { return []byte(s) }

func u64val(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

func defCfg() Config {
	return Config{Reg: 1, Capacity: 1024, ValueWidth: 16, Mode: SRO}
}

func TestWriteCommitsAndReplicates(t *testing.T) {
	r := newRig(t, 1, 3, defCfg(), netem.LinkProfile{Latency: 10_000})
	committed := false
	r.nodes[1].Write(42, val("hello"), func(ok bool) { committed = ok })
	r.eng.Run()
	if !committed {
		t.Fatal("write not committed")
	}
	for i, n := range r.nodes {
		v, ok := n.Get(42)
		if !ok || string(v) != "hello" {
			t.Fatalf("replica %d: %q %v", i, v, ok)
		}
	}
	if r.nodes[1].OutstandingWrites() != 0 {
		t.Fatal("outstanding writes remain")
	}
	if r.nodes[1].Stats.WritesCommitted.Value() != 1 {
		t.Fatal("commit counter")
	}
}

func TestWriteByHeadAndTail(t *testing.T) {
	// Writers at every chain position must work, including head and tail.
	for writer := 0; writer < 3; writer++ {
		r := newRig(t, 1, 3, defCfg(), netem.LinkProfile{Latency: 10_000})
		done := false
		r.nodes[writer].Write(7, val("x"), func(ok bool) { done = ok })
		r.eng.Run()
		if !done {
			t.Fatalf("writer at position %d did not commit", writer)
		}
		for i, n := range r.nodes {
			if v, ok := n.Get(7); !ok || string(v) != "x" {
				t.Fatalf("writer %d replica %d missing", writer, i)
			}
		}
	}
}

func TestReadLocalWhenClean(t *testing.T) {
	r := newRig(t, 1, 3, defCfg(), netem.LinkProfile{Latency: 10_000})
	r.nodes[0].Write(1, val("v"), nil)
	r.eng.Run()
	got := ""
	r.nodes[1].Read(1, func(v []byte, ok bool) { got = string(v) })
	// Local read completes synchronously.
	if got != "v" {
		t.Fatalf("read = %q", got)
	}
	if r.nodes[1].Stats.ReadsLocal.Value() != 1 || r.nodes[1].Stats.ReadsForwarded.Value() != 0 {
		t.Fatal("read accounting")
	}
}

func TestReadMiss(t *testing.T) {
	r := newRig(t, 1, 2, defCfg(), netem.LinkProfile{Latency: 10_000})
	called := false
	r.nodes[0].Read(999, func(v []byte, ok bool) {
		called = true
		if ok || v != nil {
			t.Errorf("miss returned %q %v", v, ok)
		}
	})
	if !called {
		t.Fatal("callback not invoked")
	}
}

func TestSROPendingReadForwardsToTail(t *testing.T) {
	// Write in flight: head has applied (pending set) but tail has not.
	// A read at the head must be served by the tail's committed state.
	r := newRig(t, 1, 3, defCfg(), netem.LinkProfile{Latency: 1 * 1000 * 1000}) // 1ms hops
	r.nodes[0].Write(5, val("old"), nil)
	r.eng.Run()

	// Second write: pause after it reaches the head but before the tail.
	r.nodes[0].Write(5, val("new"), nil)
	// Run just far enough for the head to apply (control latency + hop).
	r.eng.RunFor(1200 * time.Microsecond)
	headApplied := false
	if v, ok := r.nodes[0].Get(5); ok && string(v) == "new" {
		headApplied = true
	}
	if !headApplied {
		t.Skip("timing: head has not applied yet; adjust windows")
	}
	var got string
	gotAt := sim.Time(0)
	r.nodes[0].Read(5, func(v []byte, ok bool) { got, gotAt = string(v), r.eng.Now() })
	if got != "" && got != "old" {
		t.Fatalf("pending read served locally with %q", got)
	}
	r.eng.Run()
	if got != "old" && got != "new" {
		t.Fatalf("forwarded read = %q", got)
	}
	if gotAt == 0 {
		t.Fatal("forwarded read never completed")
	}
	if r.nodes[0].Stats.ReadsForwarded.Value() != 1 {
		t.Fatalf("forward count = %d", r.nodes[0].Stats.ReadsForwarded.Value())
	}
	if r.nodes[2].Stats.TailReads.Value() != 1 {
		t.Fatal("tail did not serve the read")
	}
}

func TestPendingBitClearedAfterAck(t *testing.T) {
	r := newRig(t, 1, 3, defCfg(), netem.LinkProfile{Latency: 10_000})
	r.nodes[1].Write(9, val("z"), nil)
	r.eng.Run()
	// After commit+acks, reads everywhere are local.
	for i, n := range r.nodes {
		before := n.Stats.ReadsForwarded.Value()
		n.Read(9, func(v []byte, ok bool) {})
		if n.Stats.ReadsForwarded.Value() != before {
			t.Fatalf("node %d still forwarding after ack", i)
		}
	}
}

func TestEROAlwaysLocal(t *testing.T) {
	cfg := defCfg()
	cfg.Mode = ERO
	r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 1000 * 1000})
	r.nodes[0].Write(5, val("v1"), nil)
	r.eng.RunFor(1100 * time.Microsecond) // head applied, tail not yet
	done := false
	r.nodes[0].Read(5, func(v []byte, ok bool) { done = true })
	if !done {
		t.Fatal("ERO read was not synchronous")
	}
	if r.nodes[0].Stats.ReadsForwarded.Value() != 0 {
		t.Fatal("ERO forwarded a read")
	}
	r.eng.Run()
}

func TestEROUsesLessMemory(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	swS := pisa.New(eng, nw, pisa.Config{Addr: 1})
	swE := pisa.New(eng, nw, pisa.Config{Addr: 2})
	cfgS := defCfg()
	nS, err := NewNode(swS, cfgS)
	if err != nil {
		t.Fatal(err)
	}
	cfgE := defCfg()
	cfgE.Mode = ERO
	nE, err := NewNode(swE, cfgE)
	if err != nil {
		t.Fatal(err)
	}
	if nE.MemoryBytes() >= nS.MemoryBytes() {
		t.Fatalf("ERO (%d) should use less SRAM than SRO (%d): pending bits eliminated",
			nE.MemoryBytes(), nS.MemoryBytes())
	}
}

func TestGroupSharingReducesMemory(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	sw1 := pisa.New(eng, nw, pisa.Config{Addr: 1})
	sw2 := pisa.New(eng, nw, pisa.Config{Addr: 2})
	full := defCfg()
	n1, _ := NewNode(sw1, full)
	shared := defCfg()
	shared.Groups = 64
	n2, _ := NewNode(sw2, shared)
	if n2.MemoryBytes() >= n1.MemoryBytes() {
		t.Fatalf("group sharing did not reduce memory: %d vs %d", n2.MemoryBytes(), n1.MemoryBytes())
	}
}

func TestRetryOnWriterToHeadLoss(t *testing.T) {
	cfg := defCfg()
	cfg.RetryTimeout = 200 * time.Microsecond
	r := newRig(t, 3, 3, cfg, netem.LinkProfile{Latency: 10_000})
	// Lossy path only from writer (node 1, addr 2) to head (addr 1).
	r.net.SetOneWayLink(2, 1, netem.LinkProfile{Latency: 10_000, LossRate: 0.8})
	committed := 0
	const writes = 50
	for i := 0; i < writes; i++ {
		r.nodes[1].Write(uint64(i), u64val(uint64(i)), func(ok bool) {
			if ok {
				committed++
			}
		})
	}
	r.eng.Run()
	if committed != writes {
		t.Fatalf("committed %d/%d despite retries", committed, writes)
	}
	if r.nodes[1].Stats.Retries.Value() == 0 {
		t.Fatal("no retries recorded at 80% loss")
	}
	// All replicas converged.
	for i := 0; i < writes; i++ {
		for j, n := range r.nodes {
			if v, ok := n.Get(uint64(i)); !ok || binary.BigEndian.Uint64(v) != uint64(i) {
				t.Fatalf("replica %d key %d missing", j, i)
			}
		}
	}
}

func TestRetryOnAckLoss(t *testing.T) {
	cfg := defCfg()
	cfg.RetryTimeout = 200 * time.Microsecond
	r := newRig(t, 5, 3, cfg, netem.LinkProfile{Latency: 10_000})
	// Acks tail(3)->writer(2) lossy.
	r.net.SetOneWayLink(3, 2, netem.LinkProfile{Latency: 10_000, LossRate: 0.7})
	committed := 0
	for i := 0; i < 30; i++ {
		r.nodes[1].Write(uint64(i), u64val(1), func(ok bool) {
			if ok {
				committed++
			}
		})
	}
	r.eng.Run()
	if committed != 30 {
		t.Fatalf("committed %d/30", committed)
	}
}

func TestWriteFailsAfterMaxRetries(t *testing.T) {
	cfg := defCfg()
	cfg.RetryTimeout = 100 * time.Microsecond
	cfg.MaxRetries = 3
	r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 10_000})
	// Kill the head; no failover: writes must eventually fail.
	r.sws[0].Fail()
	var failed bool
	r.nodes[1].Write(1, val("x"), func(ok bool) { failed = !ok })
	r.eng.Run()
	if !failed {
		t.Fatal("write did not report failure after retries exhausted")
	}
	if r.nodes[1].Stats.WritesFailed.Value() != 1 {
		t.Fatal("failure counter")
	}
}

func TestConcurrentWritersSameKeyConverge(t *testing.T) {
	r := newRig(t, 9, 4, defCfg(), netem.LinkProfile{Latency: 10_000, Jitter: 5_000})
	// All four switches write the same key concurrently, many times.
	for round := 0; round < 20; round++ {
		for w := 0; w < 4; w++ {
			v := fmt.Sprintf("w%d-r%d", w, round)
			r.nodes[w].Write(77, val(v), nil)
		}
	}
	r.eng.Run()
	// All replicas hold the same final value (head sequencing gives a total
	// order; the last sequence number wins everywhere).
	want, ok := r.nodes[0].Get(77)
	if !ok {
		t.Fatal("key missing")
	}
	for i, n := range r.nodes {
		got, _ := n.Get(77)
		if string(got) != string(want) {
			t.Fatalf("replica %d = %q, want %q", i, got, want)
		}
	}
}

func TestEpochFiltering(t *testing.T) {
	r := newRig(t, 1, 3, defCfg(), netem.LinkProfile{Latency: 10_000})
	// A write from a stale epoch must be ignored by members.
	stale := &wire.Write{Reg: 1, Key: 5, Seq: 0, WriteID: 1, Writer: 2, Epoch: 0, Value: val("stale")}
	r.nodes[0].Handle(2, stale)
	r.eng.Run()
	if _, ok := r.nodes[0].Get(5); ok {
		t.Fatal("stale-epoch write applied")
	}
}

func TestStaleChainConfigIgnored(t *testing.T) {
	r := newRig(t, 1, 3, defCfg(), netem.LinkProfile{Latency: 10_000})
	cur := r.nodes[0].Chain()
	r.nodes[0].SetChain(wire.ChainConfig{Epoch: 0, Members: []uint16{9}})
	if got := r.nodes[0].Chain(); got.Epoch != cur.Epoch || len(got.Members) != len(cur.Members) {
		t.Fatal("stale config applied")
	}
}

func TestHandleRejectsOtherRegisters(t *testing.T) {
	r := newRig(t, 1, 2, defCfg(), netem.LinkProfile{Latency: 10_000})
	msgs := []wire.Msg{
		&wire.Write{Reg: 99},
		&wire.WriteAck{Reg: 99},
		&wire.ReadFwd{Reg: 99},
		&wire.ReadReply{Reg: 99},
		&wire.Heartbeat{},
	}
	for _, m := range msgs {
		if r.nodes[0].Handle(2, m) {
			t.Errorf("%T for other register handled", m)
		}
	}
}

func TestFailoverMidChain(t *testing.T) {
	// §6.3(a): mid-chain failure partitions the chain; after the controller
	// installs a shortened chain, retried writes commit.
	cfg := defCfg()
	cfg.RetryTimeout = 300 * time.Microsecond
	r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 10_000})
	r.nodes[0].Write(1, val("pre"), nil)
	r.eng.Run()

	r.sws[1].Fail()
	committed := false
	r.nodes[0].Write(2, val("during"), func(ok bool) { committed = ok })
	// Let a few retries fail against the broken chain.
	r.eng.RunFor(1 * time.Millisecond)
	if committed {
		t.Fatal("write committed through a broken chain")
	}
	// Controller reconfigures: chain = {1, 3}.
	r.installChain([]uint16{1, 3}, 0)
	r.eng.Run()
	if !committed {
		t.Fatal("write did not commit after failover")
	}
	if v, ok := r.nodes[2].Get(2); !ok || string(v) != "during" {
		t.Fatalf("tail replica = %q %v", v, ok)
	}
}

func TestTailFailureFailover(t *testing.T) {
	cfg := defCfg()
	cfg.RetryTimeout = 300 * time.Microsecond
	r := newRig(t, 2, 3, cfg, netem.LinkProfile{Latency: 10_000})
	r.sws[2].Fail()
	committed := false
	r.nodes[0].Write(3, val("x"), func(ok bool) { committed = ok })
	r.eng.RunFor(1 * time.Millisecond)
	r.installChain([]uint16{1, 2}, 0)
	r.eng.Run()
	if !committed {
		t.Fatal("no commit after tail failover")
	}
	// New tail (node 1) serves forwarded reads now.
	if !r.nodes[1].IsTail() {
		t.Fatal("node 1 should be tail")
	}
}

func TestRecoveryJoinFullFlow(t *testing.T) {
	// §6.3(b): add a fresh switch, snapshot-transfer state, promote to tail.
	cfg := defCfg()
	cfg.RetryTimeout = 300 * time.Microsecond
	r := newRig(t, 3, 4, cfg, netem.LinkProfile{Latency: 10_000})
	// Start with chain {1,2,3}; switch 4 is idle.
	r.installChain([]uint16{1, 2, 3}, 0)
	const keys = 200
	for i := 0; i < keys; i++ {
		r.nodes[0].Write(uint64(i), u64val(uint64(i*7)), nil)
	}
	r.eng.Run()

	// Begin join of switch 4: config with Joining=4, then snapshot from 1.
	r.nodes[3].BeginJoin()
	r.installChain([]uint16{1, 2, 3}, 4)
	doneAt := sim.Time(0)
	r.nodes[0].StartSnapshotTransfer(4, func() { doneAt = r.eng.Now() })

	// Live writes continue during the transfer.
	for i := 0; i < 50; i++ {
		r.nodes[1].Write(uint64(i), u64val(uint64(i*1000)), nil)
	}
	r.eng.Run()
	if doneAt == 0 {
		t.Fatal("snapshot transfer never completed")
	}
	if r.nodes[0].snap != nil {
		t.Fatal("outstanding snapshot writes remain")
	}

	// Promote: chain {1,2,3,4}.
	r.installChain([]uint16{1, 2, 3, 4}, 0)
	if r.nodes[3].joinSeen != nil {
		t.Fatal("joining mode not cleared on promotion")
	}
	r.eng.Run()

	// Node 4 must hold the latest value for every key: live-write values for
	// keys 0..49, snapshot values for the rest.
	for i := 0; i < keys; i++ {
		v, ok := r.nodes[3].Get(uint64(i))
		if !ok {
			t.Fatalf("key %d missing on joined switch", i)
		}
		want := uint64(i * 7)
		if i < 50 {
			want = uint64(i * 1000)
		}
		if binary.BigEndian.Uint64(v) != want {
			t.Fatalf("key %d = %d, want %d (snapshot overwrote live write?)",
				i, binary.BigEndian.Uint64(v), want)
		}
	}
	// And now acts as tail.
	if !r.nodes[3].IsTail() {
		t.Fatal("promoted switch is not tail")
	}
}

func TestSnapshotTransferLossyLink(t *testing.T) {
	cfg := defCfg()
	cfg.RetryTimeout = 200 * time.Microsecond
	r := newRig(t, 5, 4, cfg, netem.LinkProfile{Latency: 10_000})
	r.installChain([]uint16{1, 2, 3}, 0)
	for i := 0; i < 100; i++ {
		r.nodes[0].Write(uint64(i), u64val(uint64(i)), nil)
	}
	r.eng.Run()
	// Lossy donor->joining link: retries must still complete the transfer.
	r.net.SetOneWayLink(1, 4, netem.LinkProfile{Latency: 10_000, LossRate: 0.5})
	r.nodes[3].BeginJoin()
	r.installChain([]uint16{1, 2, 3}, 4)
	done := false
	r.nodes[0].StartSnapshotTransfer(4, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("transfer did not survive loss")
	}
	for i := 0; i < 100; i++ {
		if _, ok := r.nodes[3].Get(uint64(i)); !ok {
			t.Fatalf("key %d missing after lossy transfer", i)
		}
	}
}

func TestEmptySnapshotCompletesImmediately(t *testing.T) {
	r := newRig(t, 1, 2, defCfg(), netem.LinkProfile{Latency: 10_000})
	done := false
	r.nodes[0].StartSnapshotTransfer(2, func() { done = true })
	r.eng.Run()
	if !done {
		t.Fatal("empty snapshot did not complete")
	}
}

func TestControlPlaneBackingSlower(t *testing.T) {
	// Table-backed registers process chain hops through each control plane:
	// commit latency must exceed the data-plane-backed case substantially.
	mkRig := func(b Backing) sim.Duration {
		cfg := defCfg()
		cfg.Backing = b
		r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 10_000})
		var commitAt sim.Time
		r.nodes[0].Write(1, val("x"), func(ok bool) { commitAt = r.eng.Now() })
		r.eng.Run()
		return sim.Duration(commitAt)
	}
	dp := mkRig(DataPlane)
	cp := mkRig(ControlPlane)
	if cp < dp+100*time.Microsecond {
		t.Fatalf("control-plane backing (%v) not sufficiently slower than data-plane (%v)", cp, dp)
	}
}

func TestWriteBeforeChainInstalledRetriesThenCommits(t *testing.T) {
	cfg := defCfg()
	cfg.RetryTimeout = 200 * time.Microsecond
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{Latency: 10_000})
	r := &rig{eng: eng, net: nw}
	for i := 0; i < 3; i++ {
		sw := pisa.New(eng, nw, pisa.Config{Addr: netem.Addr(i + 1)})
		node, _ := NewNode(sw, cfg)
		sw.SetMsgHandler(func(s *pisa.Switch, from netem.Addr, msg wire.Msg) { node.Handle(from, msg) })
		r.sws = append(r.sws, sw)
		r.nodes = append(r.nodes, node)
	}
	committed := false
	r.nodes[1].Write(1, val("early"), func(ok bool) { committed = ok })
	eng.RunFor(500 * time.Microsecond)
	if committed {
		t.Fatal("committed without a chain")
	}
	r.installChain([]uint16{1, 2, 3}, 0)
	eng.Run()
	if !committed {
		t.Fatal("write never committed after chain install")
	}
}

func TestInvalidConfig(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	sw := pisa.New(eng, nw, pisa.Config{Addr: 1})
	if _, err := NewNode(sw, Config{Reg: 1, Capacity: 0, ValueWidth: 8}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewNode(sw, Config{Reg: 1, Capacity: 10, ValueWidth: 0}); err == nil {
		t.Error("zero value width accepted")
	}
	// Exceeding switch SRAM fails cleanly.
	small := pisa.New(eng, nw, pisa.Config{Addr: 2, MemoryBytes: 100})
	if _, err := NewNode(small, defCfg()); err == nil {
		t.Error("over-budget register accepted")
	}
}

func TestModeString(t *testing.T) {
	if SRO.String() != "SRO" || ERO.String() != "ERO" {
		t.Fatal("mode strings")
	}
}

func TestReplicaConvergencePropertyUnderLoss(t *testing.T) {
	// Property: after quiescence, every chain member holds identical state
	// for every key, regardless of loss on writer->head and ack paths and
	// random interleavings. (Chain hops stay lossless: see the package
	// comment for the documented caveat, measured by experiment E15.)
	for seed := int64(1); seed <= 8; seed++ {
		cfg := defCfg()
		cfg.RetryTimeout = 200 * time.Microsecond
		r := newRig(t, seed, 4, cfg, netem.LinkProfile{Latency: 10_000, Jitter: 10_000})
		// Lossy writer->head and tail->writer paths (retries cover them).
		r.net.SetOneWayLink(2, 1, netem.LinkProfile{Latency: 10_000, LossRate: 0.4})
		r.net.SetOneWayLink(4, 2, netem.LinkProfile{Latency: 10_000, LossRate: 0.4})
		rng := r.eng.Rand()
		for op := 0; op < 120; op++ {
			w := rng.Intn(4)
			key := uint64(rng.Intn(24))
			r.nodes[w].Write(key, []byte(fmt.Sprintf("s%d-o%d", seed, op)), nil)
			r.eng.RunFor(sim.Duration(rng.Int63n(int64(100 * time.Microsecond))))
		}
		r.eng.Run() // quiesce: all retries resolve
		for key := uint64(0); key < 24; key++ {
			want, okWant := r.nodes[0].Get(key)
			for i := 1; i < 4; i++ {
				got, ok := r.nodes[i].Get(key)
				if ok != okWant || string(got) != string(want) {
					t.Fatalf("seed %d key %d: replica %d = %q(%v), replica 0 = %q(%v)",
						seed, key, i, got, ok, want, okWant)
				}
			}
		}
	}
}
