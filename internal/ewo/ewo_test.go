package ewo

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/wire"
)

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
	r.installGroup(r.allAddrs())
	return r
}

func (r *rig) allAddrs() []uint16 {
	out := make([]uint16, len(r.sws))
	for i, sw := range r.sws {
		out[i] = uint16(sw.Addr())
	}
	return out
}

func (r *rig) installGroup(members []uint16) {
	r.epoch++
	gc := wire.GroupConfig{Epoch: r.epoch, Members: members}
	for _, n := range r.nodes {
		if err := n.SetGroup(gc); err != nil {
			panic(err)
		}
	}
}

func (r *rig) converged(t *testing.T) {
	t.Helper()
	want := r.nodes[0].StateDigest()
	for i, n := range r.nodes[1:] {
		got := n.StateDigest()
		if len(got) != len(want) {
			t.Fatalf("node %d has %d keys, node 0 has %d", i+1, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("node %d key %d = %q, want %q", i+1, k, got[k], v)
			}
		}
	}
}

func lwwCfg() Config {
	return Config{Reg: 1, Capacity: 1024, ValueWidth: 16, Kind: LWW}
}

func ctrCfg() Config {
	return Config{Reg: 2, Capacity: 1024, Kind: Counter}
}

func TestLWWWriteIsImmediate(t *testing.T) {
	r := newRig(t, 1, 3, lwwCfg(), netem.LinkProfile{Latency: 10_000})
	r.nodes[0].Write(1, []byte("x"))
	// Local read reflects the write with no protocol round trip.
	v, ok := r.nodes[0].Read(1)
	if !ok || string(v) != "x" {
		t.Fatalf("read = %q %v", v, ok)
	}
}

func TestLWWPropagatesToGroup(t *testing.T) {
	r := newRig(t, 1, 3, lwwCfg(), netem.LinkProfile{Latency: 10_000})
	r.nodes[0].Write(1, []byte("hello"))
	r.eng.RunFor(time.Millisecond)
	for i, n := range r.nodes {
		if v, ok := n.Read(1); !ok || string(v) != "hello" {
			t.Fatalf("node %d: %q %v", i, v, ok)
		}
	}
}

func TestLWWConcurrentWritesConverge(t *testing.T) {
	// Writes from different switches at the same instant: the stamp
	// tie-break (switch ID) must make all replicas agree.
	r := newRig(t, 3, 4, lwwCfg(), netem.LinkProfile{Latency: 10_000, Jitter: 5_000})
	for i, n := range r.nodes {
		n.Write(7, []byte(fmt.Sprintf("w%d", i)))
	}
	r.eng.RunFor(5 * time.Millisecond)
	r.converged(t)
}

func TestLWWValueTruncatedToWidth(t *testing.T) {
	r := newRig(t, 1, 2, lwwCfg(), netem.LinkProfile{Latency: 10_000})
	long := make([]byte, 100)
	r.nodes[0].Write(1, long)
	v, _ := r.nodes[0].Read(1)
	if len(v) != 16 {
		t.Fatalf("value not truncated: %d bytes", len(v))
	}
}

func TestCounterLocalAndRemote(t *testing.T) {
	r := newRig(t, 1, 3, ctrCfg(), netem.LinkProfile{Latency: 10_000})
	r.nodes[0].Add(5, 10)
	r.nodes[1].Add(5, 32)
	if got := r.nodes[0].Sum(5); got != 10 {
		t.Fatalf("local sum = %d before propagation", got)
	}
	r.eng.RunFor(time.Millisecond)
	for i, n := range r.nodes {
		if got := n.Sum(5); got != 42 {
			t.Fatalf("node %d sum = %d, want 42", i, got)
		}
	}
}

func TestCounterExactUnderConcurrency(t *testing.T) {
	// The CRDT guarantee: concurrent increments are never lost, regardless
	// of interleaving (strong eventual consistency, §6.2).
	r := newRig(t, 5, 4, ctrCfg(), netem.LinkProfile{Latency: 10_000, Jitter: 10_000})
	var want uint64
	for round := 0; round < 50; round++ {
		for _, n := range r.nodes {
			n.Add(1, 1)
			want++
		}
	}
	r.eng.RunFor(10 * time.Millisecond)
	for i, n := range r.nodes {
		if got := n.Sum(1); got != want {
			t.Fatalf("node %d sum = %d, want %d", i, got, want)
		}
	}
}

func TestCounterMonotonicReads(t *testing.T) {
	// §6.2: CRDT counters avoid "counter-intuitive scenarios such as a
	// counter decreasing". Sample reads during heavy mixing.
	cfg := ctrCfg()
	r := newRig(t, 7, 3, cfg, netem.LinkProfile{Latency: 50_000, Jitter: 30_000, DupRate: 0.2, ReorderRate: 0.3})
	var last [3]uint64
	violations := 0
	for round := 0; round < 100; round++ {
		for i, n := range r.nodes {
			n.Add(2, uint64(i+1))
			got := n.Sum(2)
			if got < last[i] {
				violations++
			}
			last[i] = got
		}
		r.eng.RunFor(100 * time.Microsecond)
	}
	if violations != 0 {
		t.Fatalf("%d monotonicity violations", violations)
	}
}

func TestDuplicatedDeliveryIdempotent(t *testing.T) {
	// Duplicate update packets must not double-count (max-merge).
	r := newRig(t, 9, 2, ctrCfg(), netem.LinkProfile{Latency: 10_000, DupRate: 1.0})
	r.nodes[0].Add(1, 5)
	r.nodes[0].Add(1, 5)
	r.eng.RunFor(5 * time.Millisecond)
	if got := r.nodes[1].Sum(1); got != 10 {
		t.Fatalf("sum = %d under 100%% duplication, want 10", got)
	}
}

func TestPNCounter(t *testing.T) {
	cfg := Config{Reg: 3, Capacity: 128, Kind: PNCounter}
	r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 10_000})
	r.nodes[0].Add(1, 100)
	r.nodes[1].Sub(1, 30)
	r.nodes[2].Add(1, 5)
	r.eng.RunFor(2 * time.Millisecond)
	for i, n := range r.nodes {
		if got := n.Sum(1); got != 75 {
			t.Fatalf("node %d = %d, want 75", i, got)
		}
	}
}

func TestSubOnGCounterPanics(t *testing.T) {
	r := newRig(t, 1, 2, ctrCfg(), netem.LinkProfile{})
	defer func() {
		if recover() == nil {
			t.Fatal("Sub on G-counter did not panic")
		}
	}()
	r.nodes[0].Sub(1, 1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := newRig(t, 1, 2, lwwCfg(), netem.LinkProfile{})
	for name, fn := range map[string]func(){
		"Add": func() { r.nodes[0].Add(1, 1) },
		"Sum": func() { r.nodes[0].Sum(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on LWW did not panic", name)
				}
			}()
			fn()
		}()
	}
	c := newRig(t, 1, 2, ctrCfg(), netem.LinkProfile{})
	for name, fn := range map[string]func(){
		"Write": func() { c.nodes[0].Write(1, []byte("x")) },
		"Read":  func() { c.nodes[0].Read(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on counter did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPeriodicSyncRepairsLoss(t *testing.T) {
	// C1: lost multicast updates are repaired by periodic synchronization.
	cfg := ctrCfg()
	cfg.SyncPeriod = 500 * time.Microsecond
	r := newRig(t, 11, 3, cfg, netem.LinkProfile{Latency: 10_000, LossRate: 0.6})
	var want uint64
	for i := 0; i < 200; i++ {
		r.nodes[i%3].Add(uint64(i%10), 1)
	}
	want = 20 // per key
	// Many sync rounds: anti-entropy must converge despite 60% loss.
	r.eng.RunFor(200 * time.Millisecond)
	for i, n := range r.nodes {
		for k := uint64(0); k < 10; k++ {
			if got := n.Sum(k); got != want {
				t.Fatalf("node %d key %d = %d, want %d", i, k, got, want)
			}
		}
	}
}

func TestSyncDisabledDoesNotRepair(t *testing.T) {
	cfg := ctrCfg()
	cfg.SyncDisabled = true
	r := newRig(t, 13, 2, cfg, netem.LinkProfile{Latency: 10_000, LossRate: 1.0})
	r.nodes[0].Add(1, 5)
	r.eng.RunFor(50 * time.Millisecond)
	if got := r.nodes[1].Sum(1); got != 0 {
		t.Fatalf("replica got %d with full loss and no sync", got)
	}
	if r.nodes[0].Stats.SyncPackets.Value() != 0 {
		t.Fatal("sync packets sent while disabled")
	}
}

func TestLWWSyncRepairsLoss(t *testing.T) {
	cfg := lwwCfg()
	cfg.SyncPeriod = 500 * time.Microsecond
	r := newRig(t, 17, 3, cfg, netem.LinkProfile{Latency: 10_000, LossRate: 0.7})
	for i := 0; i < 50; i++ {
		r.nodes[i%3].Write(uint64(i), []byte(fmt.Sprintf("v%d", i)))
	}
	r.eng.RunFor(300 * time.Millisecond)
	r.converged(t)
}

func TestBatchingCoalesces(t *testing.T) {
	cfg := ctrCfg()
	cfg.Batch = 8
	cfg.SyncDisabled = true
	r := newRig(t, 1, 2, cfg, netem.LinkProfile{Latency: 10_000})
	for i := 0; i < 7; i++ {
		r.nodes[0].Add(uint64(i), 1)
	}
	if r.nodes[0].Stats.UpdatesSent.Value() != 0 {
		t.Fatal("batch flushed early")
	}
	if r.nodes[0].PendingDeltas() != 7 {
		t.Fatalf("pending = %d", r.nodes[0].PendingDeltas())
	}
	r.nodes[0].Add(7, 1) // 8th triggers flush
	if r.nodes[0].Stats.UpdatesSent.Value() != 1 {
		t.Fatalf("updates sent = %d", r.nodes[0].Stats.UpdatesSent.Value())
	}
	r.eng.RunFor(time.Millisecond)
	for i := uint64(0); i < 8; i++ {
		if r.nodes[1].Sum(i) != 1 {
			t.Fatalf("key %d not delivered", i)
		}
	}
}

func TestBatchingReducesPackets(t *testing.T) {
	run := func(batch int) uint64 {
		cfg := ctrCfg()
		cfg.Batch = batch
		cfg.SyncDisabled = true
		r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 10_000})
		// One write per instant — a packet every microsecond: what leaves
		// together without batching is an instant's writes, so only writes
		// in different instants show what Batch adds.
		for i := 0; i < 256; i++ {
			r.nodes[0].Add(uint64(i%16), 1)
			r.eng.RunFor(time.Microsecond)
		}
		r.nodes[0].Flush()
		r.eng.Run()
		return r.net.Totals().MsgsSent
	}
	unbatched, batched := run(1), run(16)
	if batched*8 > unbatched {
		t.Fatalf("batch=16 sent %d msgs vs %d unbatched; expected ~16x fewer", batched, unbatched)
	}
}

func TestJoinBySyncRecovery(t *testing.T) {
	// §6.3 EWO recovery: add the new switch to the multicast group and wait
	// for periodic synchronization.
	cfg := ctrCfg()
	cfg.SyncPeriod = 500 * time.Microsecond
	r := newRig(t, 19, 4, cfg, netem.LinkProfile{Latency: 10_000})
	// Group of 3 initially; node 4 idle.
	r.installGroup([]uint16{1, 2, 3})
	for i := 0; i < 30; i++ {
		r.nodes[i%3].Add(uint64(i%5), 2)
	}
	r.eng.RunFor(5 * time.Millisecond)
	if r.nodes[3].Keys() != 0 {
		t.Fatal("outside switch received state")
	}
	// Join.
	r.installGroup([]uint16{1, 2, 3, 4})
	r.eng.RunFor(100 * time.Millisecond)
	for k := uint64(0); k < 5; k++ {
		if got := r.nodes[3].Sum(k); got != 12 {
			t.Fatalf("joined switch key %d = %d, want 12", k, got)
		}
	}
}

func TestFailedWriterStateSurvivesViaGossip(t *testing.T) {
	// §6.3: "If a switch fails while broadcasting its updates, any switch
	// that did receive the update can then synchronize the other switches."
	cfg := ctrCfg()
	cfg.SyncPeriod = 500 * time.Microsecond
	r := newRig(t, 23, 3, cfg, netem.LinkProfile{Latency: 10_000})
	// Node 1's update reaches only node 2 (loss on 1->3).
	r.net.SetOneWayLink(1, 3, netem.LinkProfile{Latency: 10_000, LossRate: 1.0})
	r.nodes[0].Add(1, 99)
	r.eng.RunFor(2 * time.Millisecond)
	if r.nodes[1].Sum(1) != 99 {
		t.Fatal("setup: node 2 should have received the direct update")
	}
	// Writer dies; survivors must converge via gossip (node 3 can only get
	// the value from node 2, since its link from node 1 drops everything).
	r.sws[0].Fail()
	r.installGroup([]uint16{2, 3})
	r.eng.RunFor(100 * time.Millisecond)
	if got := r.nodes[2].Sum(1); got != 99 {
		t.Fatalf("node 3 = %d after gossip, want 99", got)
	}
}

func TestGroupValidation(t *testing.T) {
	r := newRig(t, 1, 2, ctrCfg(), netem.LinkProfile{})
	big := make([]uint16, 9)
	for i := range big {
		big[i] = uint16(i + 1)
	}
	if err := r.nodes[0].SetGroup(wire.GroupConfig{Epoch: 99, Members: big}); err == nil {
		t.Fatal("oversized group accepted (MaxGroup=8)")
	}
	// The message path has no caller to hand the error to: it counts.
	if !r.nodes[1].Handle(99, &wire.GroupConfig{Epoch: 99, Members: big}) {
		t.Fatal("GroupConfig not consumed")
	}
	for i, n := range r.nodes {
		if len(n.Group()) != 2 || n.Stats.GroupsRejected.Value() != 1 {
			t.Fatalf("node %d: group %v, GroupsRejected %d after one rejected config",
				i, n.Group(), n.Stats.GroupsRejected.Value())
		}
	}
	// Stale epoch ignored.
	cur := len(r.nodes[0].Group())
	if err := r.nodes[0].SetGroup(wire.GroupConfig{Epoch: 0, Members: []uint16{7}}); err != nil {
		t.Fatal(err)
	}
	if len(r.nodes[0].Group()) != cur {
		t.Fatal("stale group applied")
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	sw := pisa.New(eng, nw, pisa.Config{Addr: 1})
	if _, err := NewNode(sw, Config{Reg: 1, Capacity: 0, Kind: Counter}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewNode(sw, Config{Reg: 1, Capacity: 10, Kind: LWW}); err == nil {
		t.Error("LWW without value width accepted")
	}
	small := pisa.New(eng, nw, pisa.Config{Addr: 2, MemoryBytes: 64})
	if _, err := NewNode(small, Config{Reg: 1, Capacity: 1024, Kind: Counter}); err == nil {
		t.Error("over-budget accepted")
	}
}

func TestMemoryScalesWithGroup(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	mk := func(addr netem.Addr, maxGroup int) *Node {
		sw := pisa.New(eng, nw, pisa.Config{Addr: addr, MemoryBytes: 64 << 20})
		n, err := NewNode(sw, Config{Reg: 1, Capacity: 1000, Kind: Counter, MaxGroup: maxGroup})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	small, large := mk(1, 2), mk(2, 16)
	if large.MemoryBytes() != 8*small.MemoryBytes() {
		t.Fatalf("counter SRAM should scale linearly with group: %d vs %d",
			small.MemoryBytes(), large.MemoryBytes())
	}
}

func TestHandleIgnoresOtherRegisters(t *testing.T) {
	r := newRig(t, 1, 2, ctrCfg(), netem.LinkProfile{})
	if r.nodes[0].Handle(2, &wire.EWOUpdate{Reg: 99}) {
		t.Fatal("foreign register consumed")
	}
	if r.nodes[0].Handle(2, &wire.Heartbeat{}) {
		t.Fatal("heartbeat consumed")
	}
}

func TestKindString(t *testing.T) {
	if LWW.String() != "LWW" || Counter.String() != "Counter" || PNCounter.String() != "PNCounter" {
		t.Fatal("kind strings")
	}
}

func TestStopHaltsSync(t *testing.T) {
	cfg := ctrCfg()
	cfg.SyncPeriod = 100 * time.Microsecond
	r := newRig(t, 1, 2, cfg, netem.LinkProfile{Latency: 10_000})
	r.nodes[0].Add(1, 1)
	r.eng.RunFor(time.Millisecond)
	r.nodes[0].Stop()
	before := r.nodes[0].Stats.SyncPackets.Value()
	r.eng.RunFor(10 * time.Millisecond)
	// At most one already-dispatched sync round may still fire.
	if got := r.nodes[0].Stats.SyncPackets.Value(); got > before+1 {
		t.Fatalf("sync continued after Stop: %d -> %d", before, got)
	}
}

func TestPNCounterSyncRepairsLostDecrement(t *testing.T) {
	// A Sub whose multicast is lost must be repaired by periodic sync,
	// including gossip of the decrement vector.
	cfg := Config{Reg: 3, Capacity: 64, Kind: PNCounter, SyncPeriod: 500 * time.Microsecond}
	r := newRig(t, 31, 2, cfg, netem.LinkProfile{Latency: 10_000})
	r.nodes[0].Add(1, 100)
	r.eng.RunFor(2 * time.Millisecond)
	// All direct traffic from node 1 to node 2 now drops.
	r.net.SetOneWayLink(1, 2, netem.LinkProfile{Latency: 10_000, LossRate: 1.0})
	r.nodes[0].Sub(1, 30)
	r.eng.RunFor(5 * time.Millisecond)
	if r.nodes[1].Sum(1) != 100 {
		t.Fatalf("setup: decrement leaked through lossy link (%d)", r.nodes[1].Sum(1))
	}
	// Heal; sync gossip must deliver the decrement vector.
	r.net.SetOneWayLink(1, 2, netem.LinkProfile{Latency: 10_000})
	r.eng.RunFor(100 * time.Millisecond)
	if got := r.nodes[1].Sum(1); got != 70 {
		t.Fatalf("after sync = %d, want 70", got)
	}
}

func TestDecEntryIgnoredByGCounter(t *testing.T) {
	// A decrement announcement arriving at a G-counter register (config
	// mismatch / corruption) must be discarded, not misapplied.
	a := mkIsolated(t, Counter, 7)
	e := counterEntry(1, 3, 50, true) // dec entry
	a.merge(&e)
	if a.Sum(1) != 0 {
		t.Fatalf("dec entry applied to G-counter: %d", a.Sum(1))
	}
	if a.Stats.EntriesStale.Value() != 1 {
		t.Fatal("discard not counted")
	}
}

func TestFlushWithoutGroupDropsCleanly(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	sw := pisa.New(eng, nw, pisa.Config{Addr: 1})
	n, err := NewNode(sw, Config{Reg: 1, Capacity: 8, Kind: Counter, SyncDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	n.Add(1, 1) // no group installed: enqueue + flush must not panic
	eng.Run()   // the flush comes at the end of the instant
	if n.PendingDeltas() != 0 {
		t.Fatal("pending deltas retained with no group")
	}
	if n.Stats.UpdatesSent.Value() != 0 {
		t.Fatal("update sent with no group")
	}
}

// The writes of one instant leave as one update, at that instant: one entry
// per slot in first-write order, a slot written twice carrying its last value.
func TestInstantWritesLeaveAsOneUpdate(t *testing.T) {
	cfg := Config{Reg: 3, Capacity: 64, Kind: PNCounter, SyncDisabled: true}
	r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 10_000})
	var got []wire.EWOEntry
	r.sws[1].SetMsgHandler(func(_ *pisa.Switch, from netem.Addr, msg wire.Msg) {
		got = append(got, msg.(*wire.EWOUpdate).Entries...)
		r.nodes[1].Handle(from, msg)
	})
	n := r.nodes[0]
	n.Add(5, 1)
	n.Add(9, 2)
	n.Sub(5, 3) // the decrement vector is a slot of its own
	n.Add(5, 4) // overwrites the first entry where it stands
	if n.PendingDeltas() != 4 || n.Stats.UpdatesSent.Value() != 0 {
		t.Fatalf("mid-instant: %d deltas pending, %d updates sent", n.PendingDeltas(), n.Stats.UpdatesSent.Value())
	}
	r.eng.RunFor(time.Millisecond)
	want := []wire.EWOEntry{counterEntry(5, 1, 5, false), counterEntry(9, 1, 2, false), counterEntry(5, 1, 3, true)}
	if n.Stats.UpdatesSent.Value() != 1 || r.net.Totals().MsgsSent != 2 || len(got) != len(want) {
		t.Fatalf("%d updates, %d fabric msgs, %d entries; want 1, 2, %d",
			n.Stats.UpdatesSent.Value(), r.net.Totals().MsgsSent, len(got), len(want))
	}
	for i, w := range want {
		if got[i].Key != w.Key || got[i].Stamp != w.Stamp || got[i].Value[0] != w.Value[0] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], w)
		}
	}
	for i, peer := range r.nodes {
		if peer.Sum(5) != 2 || peer.Sum(9) != 2 {
			t.Fatalf("node %d: Sum(5) = %d, Sum(9) = %d, want 2 and 2", i, peer.Sum(5), peer.Sum(9))
		}
	}
}

// A switch that fails or is paused in the instant of its write loses that
// instant's mirrored packet, whole (§6.3: a crash between the write and its
// update). Nothing is sent and nothing panics; because a slot announces its
// running value, the next write after a pause carries what was lost.
func TestSameInstantFailOrPauseLosesTheUpdate(t *testing.T) {
	cfg := ctrCfg()
	cfg.SyncDisabled = true
	r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 10_000})
	r.nodes[0].Add(1, 5)
	r.sws[0].Fail()
	r.nodes[1].Add(1, 7)
	r.sws[1].Pause()
	r.eng.RunFor(time.Millisecond)
	if sent := r.net.Totals().MsgsSent; sent != 0 {
		t.Fatalf("%d messages left a failed and a paused switch", sent)
	}
	if r.nodes[0].PendingDeltas() != 0 || r.nodes[1].PendingDeltas() != 0 {
		t.Fatal("the lost instant's deltas are still pending")
	}
	r.sws[1].Resume()
	r.nodes[1].Add(1, 1)
	r.eng.RunFor(time.Millisecond)
	if got := r.nodes[2].Sum(1); got != 8 {
		t.Fatalf("survivor reads %d after the paused writer's next add, want 8 (7 lost with the pause + 1)", got)
	}
}

// An explicit Flush while the instant's flush event is still queued sends
// what is pending then; the event sends whatever joined afterwards, or nothing.
func TestExplicitFlushWithEventArmed(t *testing.T) {
	cfg := ctrCfg()
	cfg.SyncDisabled = true
	r := newRig(t, 1, 2, cfg, netem.LinkProfile{Latency: 10_000})
	n := r.nodes[0]
	n.Add(1, 1)
	n.Flush()
	n.Flush() // nothing open: no-op
	if n.Stats.UpdatesSent.Value() != 1 {
		t.Fatalf("explicit Flush sent %d updates, want 1", n.Stats.UpdatesSent.Value())
	}
	r.eng.RunFor(time.Millisecond) // the armed event finds nothing
	if n.Stats.UpdatesSent.Value() != 1 {
		t.Fatalf("the armed event sent an empty update: %d sent", n.Stats.UpdatesSent.Value())
	}
	n.Add(1, 1)
	n.Flush()
	n.Add(2, 1) // joins a fresh update; the event armed by the first add flushes it
	r.eng.RunFor(time.Millisecond)
	if n.Stats.UpdatesSent.Value() != 3 || r.nodes[1].Sum(1) != 2 || r.nodes[1].Sum(2) != 1 {
		t.Fatalf("%d updates sent, replica reads %d and %d; want 3, 2, 1",
			n.Stats.UpdatesSent.Value(), r.nodes[1].Sum(1), r.nodes[1].Sum(2))
	}
}

func TestBatchTimeoutFlushesPartialBatch(t *testing.T) {
	cfg := ctrCfg()
	cfg.Batch = 16
	cfg.BatchTimeout = 200 * time.Microsecond
	cfg.SyncDisabled = true
	r := newRig(t, 41, 2, cfg, netem.LinkProfile{Latency: 10_000})
	r.nodes[0].Add(1, 7) // 1 of 16: would wait forever without the timer
	r.eng.RunFor(100 * time.Microsecond)
	if r.nodes[1].Sum(1) != 0 {
		t.Fatal("partial batch flushed before the timeout")
	}
	r.eng.RunFor(time.Millisecond)
	if got := r.nodes[1].Sum(1); got != 7 {
		t.Fatalf("replica = %d after batch timeout, want 7", got)
	}
	// A full batch still flushes immediately and re-arms cleanly.
	for i := 0; i < 16; i++ {
		r.nodes[0].Add(2, 1)
	}
	r.eng.RunFor(100 * time.Microsecond)
	if got := r.nodes[1].Sum(2); got != 16 {
		t.Fatalf("full batch delayed: %d", got)
	}
}

func TestBatchTimerRearmsPerBatch(t *testing.T) {
	cfg := ctrCfg()
	cfg.Batch = 4
	cfg.BatchTimeout = 300 * time.Microsecond
	cfg.SyncDisabled = true
	r := newRig(t, 43, 2, cfg, netem.LinkProfile{Latency: 10_000})
	// Two partial batches separated in time: each must flush on its own timer.
	r.nodes[0].Add(1, 1)
	r.eng.RunFor(time.Millisecond)
	r.nodes[0].Add(2, 1)
	r.eng.RunFor(time.Millisecond)
	if r.nodes[1].Sum(1) != 1 || r.nodes[1].Sum(2) != 1 {
		t.Fatalf("timers did not re-arm: %d %d", r.nodes[1].Sum(1), r.nodes[1].Sum(2))
	}
}

// Two same-seed clusters must put byte-identical sync packets on the wire:
// a key with several slot owners announces them in column order, not in
// whatever order a map iterator happens to produce.
func TestSyncEntryOrderIsSeedDetermined(t *testing.T) {
	run := func() [][]byte {
		cfg := Config{Reg: 3, Capacity: 64, Kind: PNCounter, SyncPeriod: 100_000}
		r := newRig(t, 42, 4, cfg, netem.LinkProfile{Latency: 1000})
		var packets [][]byte
		for i, sw := range r.sws {
			node := r.nodes[i]
			sw.SetMsgHandler(func(_ *pisa.Switch, from netem.Addr, msg wire.Msg) {
				if u, ok := msg.(*wire.EWOUpdate); ok && u.Sync {
					packets = append(packets, u.Marshal(nil))
				}
				node.Handle(from, msg)
			})
		}
		// Every member owns an increment and a decrement slot on key 7.
		for i, n := range r.nodes {
			n.Add(7, uint64(i+1))
			n.Sub(7, 1)
			n.Add(uint64(10+i), 1)
		}
		r.eng.RunFor(20 * cfg.SyncPeriod) // 20 sync rounds per member
		return packets
	}
	a, b := run(), run()
	if len(a) < 4*19 || len(a) != len(b) {
		t.Fatalf("captured %d and %d sync packets, want the same >= %d", len(a), len(b), 4*19)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("sync packet %d differs between same-seed runs:\n%x\n%x", i, a[i], b[i])
		}
	}
}
