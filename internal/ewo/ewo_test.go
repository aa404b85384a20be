package ewo

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/obs"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/timesync"
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
	cfg.SyncPeriod = -1
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
	cfg.SyncPeriod = -1
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
		cfg.SyncPeriod = -1
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
	if r.nodes[3].tab.keys.Len() != 0 {
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

// A failed owner's slots reach every survivor within one floor period: the
// survivors' delta rounds carry only their own slots, so the slots the dead
// switch's lost updates left on one survivor travel in floor walks, and
// syncFloorWalks walks after the failure one has begun, plus the walk itself.
func TestFailedOwnerSlotReachesSurvivorsWithinFloorPeriod(t *testing.T) {
	cfg := ctrCfg()
	cfg.SyncPeriod = 500 * time.Microsecond
	r := newRig(t, 29, 3, cfg, netem.LinkProfile{Latency: 10_000})
	r.eng.RunFor(20 * time.Millisecond) // past the first floor walks
	// Node 1's updates reach only node 2.
	r.net.SetOneWayLink(1, 3, netem.LinkProfile{Latency: 10_000, LossRate: 1.0})
	const keys = 100
	for k := uint64(0); k < keys; k++ {
		r.nodes[0].Add(k, k+1)
	}
	r.eng.RunFor(100 * time.Microsecond)
	r.sws[0].Fail()
	r.installGroup([]uint16{2, 3})
	missing := 0
	for k := uint64(0); k < keys; k++ {
		if r.nodes[1].Sum(k) != k+1 {
			t.Fatalf("setup: node 2 holds key %d = %d, want %d", k, r.nodes[1].Sum(k), k+1)
		}
		if r.nodes[2].Sum(k) != k+1 {
			missing++
		}
	}
	if missing == 0 {
		t.Fatal("setup: node 3 already holds every key")
	}
	walk := time.Duration((keys+cfg.withDefaults().SyncWindow-1)/cfg.withDefaults().SyncWindow) * cfg.SyncPeriod
	r.eng.RunFor((syncFloorWalks+1)*walk + time.Millisecond)
	for k := uint64(0); k < keys; k++ {
		if got := r.nodes[2].Sum(k); got != k+1 {
			t.Fatalf("node 3 key %d = %d one floor period after the failure, want %d", k, got, k+1)
		}
	}
}

// A joiner holds every row, every owner's slots, within one walk of the
// SetGroup that adds it.
func TestJoinerHoldsEveryRowWithinOneWalk(t *testing.T) {
	cfg := ctrCfg()
	cfg.SyncPeriod = time.Millisecond
	r := newRig(t, 31, 4, cfg, netem.LinkProfile{Latency: 10_000})
	r.installGroup([]uint16{1, 2, 3})
	const keys = 200
	for k := uint64(0); k < keys; k++ {
		r.nodes[k%3].Add(k, k+1)
		r.nodes[(k+1)%3].Add(k, 1)
	}
	r.eng.RunFor(20 * time.Millisecond)
	if r.nodes[3].tab.keys.Len() != 0 {
		t.Fatal("setup: the outside switch received state")
	}
	r.installGroup([]uint16{1, 2, 3, 4})
	window := cfg.withDefaults().SyncWindow
	r.eng.RunFor(time.Duration((keys+window-1)/window)*cfg.SyncPeriod + 100*time.Microsecond)
	for k := uint64(0); k < keys; k++ {
		if got := r.nodes[3].Sum(k); got != k+2 {
			t.Fatalf("joiner key %d = %d one walk after joining, want %d", k, got, k+2)
		}
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

// A node makes one SRAM charge, its key table: per key, the §7 layout's
// slots (MaxGroup 16-byte slots per counter vector; a 10-byte stamp and the
// value for LWW) and the 4-byte change register. The slots scale with the
// group; the change register does not.
func TestMemoryScalesWithGroup(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	for i, tc := range []struct {
		cfg  Config
		want int
	}{
		{Config{Capacity: 1000, Kind: Counter, MaxGroup: 2}, 1000 * (2*16 + 4)},
		{Config{Capacity: 1000, Kind: Counter, MaxGroup: 16}, 1000 * (16*16 + 4)},
		{Config{Capacity: 1000, Kind: LWW, ValueWidth: 8}, 1000 * (10 + 8 + 4)},
	} {
		sw := pisa.New(eng, nw, pisa.Config{Addr: netem.Addr(i + 1), MemoryBytes: 64 << 20})
		tr := obs.NewTracer(16)
		eng.SetTracer(tr)
		tc.cfg.Reg = 1
		n, err := NewNode(sw, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var charges []int64
		for _, ev := range tr.Events() {
			if ev.Name == "mem.charge" {
				charges = append(charges, ev.V1)
			}
		}
		if len(charges) != 1 || charges[0] != int64(tc.want) || n.MemoryBytes() != tc.want {
			t.Fatalf("%v: charges %v, MemoryBytes %d; want one charge of %d", tc.cfg.Kind, charges, n.MemoryBytes(), tc.want)
		}
	}
}

// A register that does not fit the switch's SRAM fails without charging
// any: the slot arrays would fit, the change registers with them would not,
// and the one key table is charged whole or not at all.
func TestNewNodeOverBudgetChargesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	sw := pisa.New(eng, nw, pisa.Config{Addr: 1, MemoryBytes: 1000*8*16 + 1000})
	if _, err := NewNode(sw, Config{Reg: 1, Capacity: 1000, Kind: Counter}); err == nil {
		t.Fatal("over-budget register accepted")
	}
	if sw.MemoryUsed() != 0 {
		t.Fatalf("failed NewNode left %d bytes charged", sw.MemoryUsed())
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
	if LWW.String() != "LWW" || Counter.String() != "Counter" {
		t.Fatal("kind strings")
	}
}

func TestDecEntryIgnoredByGCounter(t *testing.T) {
	// A decrement announcement arriving at a G-counter register (config
	// mismatch / corruption) must be discarded, not misapplied.
	a := mkIsolated(t, Counter, 7)
	a.mergeCounters([]wire.EWOEntry{decEntry(1, 3, 50)})
	if a.Sum(1) != 0 {
		t.Fatalf("dec entry applied to G-counter: %d", a.Sum(1))
	}
	if a.Stats.EntriesStale.Value() != 1 {
		t.Fatal("discard not counted")
	}
}

// An LWW entry wider than the register (a configuration mismatch or a forged
// datagram) is discarded as stale, like a decrement reaching a G-counter: the
// cell and its stamp keep what they held.
func TestLWWOverWidthEntryIsStale(t *testing.T) {
	a := mkIsolated(t, LWW, 7)
	a.Write(1, []byte("keep"))
	before := a.StateDigest()
	wide := make([]byte, a.Config().ValueWidth+1)
	a.Handle(3, &wire.EWOUpdate{Reg: 1, From: 3, Entries: []wire.EWOEntry{
		{Key: 1, Stamp: timesync.Stamp{Time: 1 << 40, Node: 3}, Value: wide},
	}})
	if v, _ := a.Read(1); string(v) != "keep" || !digestEqual(a.StateDigest(), before) {
		t.Fatalf("after a %d-byte entry: %q, digest %v (before %v)", len(wide), v, a.StateDigest(), before)
	}
	if a.Stats.EntriesStale.Value() != 1 || a.Stats.EntriesMerged.Value() != 0 {
		t.Fatalf("%d stale, %d merged; want the entry counted stale", a.Stats.EntriesStale.Value(), a.Stats.EntriesMerged.Value())
	}
}

// No entry that leaves a node points into its table: a cell overwritten — by
// a local write or a newer remote value — while an update carrying its old
// value is in flight must not change what the receiver gets. Case 1 is a
// write update, case 2 a sync window.
func TestLWWInFlightUpdateIsStable(t *testing.T) {
	for _, sync := range []bool{false, true} {
		cfg := lwwCfg()
		cfg.SyncPeriod = -1
		r := newRig(t, 1, 2, cfg, netem.LinkProfile{Latency: 10_000})
		a := r.nodes[0]
		var got []string
		r.sws[1].SetMsgHandler(func(_ *pisa.Switch, from netem.Addr, msg wire.Msg) {
			if u, ok := msg.(*wire.EWOUpdate); ok && u.Sync == sync {
				for _, e := range u.Entries {
					got = append(got, string(e.Value))
				}
			}
			r.nodes[1].Handle(from, msg)
		})
		a.Write(1, []byte("one"))
		if sync {
			r.eng.RunFor(time.Millisecond)
			a.syncRound()
		} else {
			a.Flush()
		}
		a.Write(1, []byte("two"))
		a.Handle(2, &wire.EWOUpdate{Reg: cfg.Reg, From: 2, Entries: []wire.EWOEntry{
			{Key: 1, Stamp: timesync.Stamp{Time: 1 << 40, Node: 2}, Value: []byte("three")},
		}})
		r.eng.RunFor(time.Millisecond)
		if len(got) == 0 || got[0] != "one" {
			t.Fatalf("sync=%v: the receiver got %q first, want \"one\"", sync, got)
		}
		if v, _ := a.Read(1); string(v) != "three" {
			t.Fatalf("sync=%v: the writer holds %q, want the newer remote value", sync, v)
		}
	}
}

func TestFlushWithoutGroupDropsCleanly(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	sw := pisa.New(eng, nw, pisa.Config{Addr: 1})
	n, err := NewNode(sw, Config{Reg: 1, Capacity: 8, Kind: Counter, SyncPeriod: -1})
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
	cfg := Config{Reg: 3, Capacity: 64, Kind: Counter, SyncPeriod: -1}
	r := newRig(t, 1, 3, cfg, netem.LinkProfile{Latency: 10_000})
	var got []wire.EWOEntry
	r.sws[1].SetMsgHandler(func(_ *pisa.Switch, from netem.Addr, msg wire.Msg) {
		got = append(got, msg.(*wire.EWOUpdate).Entries...)
		r.nodes[1].Handle(from, msg)
	})
	n := r.nodes[0]
	n.Add(5, 1)
	n.Add(9, 2)
	n.Add(11, 3)
	n.Add(5, 4) // overwrites the first entry where it stands
	if n.PendingDeltas() != 4 || n.Stats.UpdatesSent.Value() != 0 {
		t.Fatalf("mid-instant: %d deltas pending, %d updates sent", n.PendingDeltas(), n.Stats.UpdatesSent.Value())
	}
	r.eng.RunFor(time.Millisecond)
	want := []wire.EWOEntry{counterEntry(5, 1, 5), counterEntry(9, 1, 2), counterEntry(11, 1, 3)}
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
		if peer.Sum(5) != 5 || peer.Sum(9) != 2 || peer.Sum(11) != 3 {
			t.Fatalf("node %d: Sum(5) = %d, Sum(9) = %d, Sum(11) = %d, want 5, 2 and 3", i, peer.Sum(5), peer.Sum(9), peer.Sum(11))
		}
	}
}

// A switch that fails or is paused in the instant of its write loses that
// instant's mirrored packet, whole (§6.3: a crash between the write and its
// update). Nothing is sent and nothing panics; because a slot announces its
// running value, the next write after a pause carries what was lost.
func TestSameInstantFailOrPauseLosesTheUpdate(t *testing.T) {
	cfg := ctrCfg()
	cfg.SyncPeriod = -1
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
	cfg.SyncPeriod = -1
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

// Two same-seed clusters must put byte-identical sync packets on the wire:
// a key with several slot owners announces them in column order, not in
// whatever order a map iterator happens to produce.
func TestSyncEntryOrderIsSeedDetermined(t *testing.T) {
	run := func() [][]byte {
		cfg := Config{Reg: 3, Capacity: 64, Kind: Counter, SyncPeriod: 100_000}
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
		// Every member owns a slot on key 7.
		for i, n := range r.nodes {
			n.Add(7, uint64(i+1))
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
