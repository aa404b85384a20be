package controller

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"swishmem/internal/chain"
	"swishmem/internal/ewo"
	"swishmem/internal/netem"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/wire"
)

const ctrlAddr netem.Addr = 1000

type rig struct {
	eng   *sim.Engine
	net   *netem.Network
	ctrl  *Controller
	sws   []*pisa.Switch
	cNode []*chain.Node
	eNode []*ewo.Node
}

func newRig(t testing.TB, seed int64, n int) *rig {
	t.Helper()
	eng := sim.NewEngine(seed)
	nw := netem.New(eng, netem.LinkProfile{Latency: 10_000})
	r := &rig{eng: eng, net: nw}
	r.ctrl = New(eng, nw, Config{Addr: ctrlAddr, HeartbeatPeriod: 200 * time.Microsecond})
	for i := 0; i < n; i++ {
		sw := pisa.New(eng, nw, pisa.Config{Addr: netem.Addr(i + 1), PipelinePPS: 1e9})
		cn, err := chain.NewNode(sw, chain.Config{Reg: 1, Capacity: 1024, ValueWidth: 8,
			RetryTimeout: 300 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		en, err := ewo.NewNode(sw, ewo.Config{Reg: 2, Capacity: 1024, Kind: ewo.Counter,
			SyncPeriod: 500 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		sw.SetMsgHandler(func(s *pisa.Switch, from netem.Addr, msg wire.Msg) {
			if cn.Handle(from, msg) {
				return
			}
			en.Handle(from, msg)
		})
		r.ctrl.Monitor(sw)
		r.sws = append(r.sws, sw)
		r.cNode = append(r.cNode, cn)
		r.eNode = append(r.eNode, en)
	}
	return r
}

func (r *rig) chainMembers(idx ...int) []ChainMember {
	out := make([]ChainMember, len(idx))
	for i, j := range idx {
		out[i] = r.cNode[j]
	}
	return out
}

func (r *rig) groupMembers(idx ...int) []GroupMember {
	out := make([]GroupMember, len(idx))
	for i, j := range idx {
		out[i] = r.eNode[j]
	}
	return out
}

func TestConfigDelivery(t *testing.T) {
	r := newRig(t, 1, 3)
	r.ctrl.ManageChain(1, r.chainMembers(0, 1, 2), nil)
	r.ctrl.ManageGroup(2, r.groupMembers(0, 1, 2))
	r.eng.RunFor(time.Millisecond)
	for i, cn := range r.cNode {
		if got := len(cn.Chain().Members); got != 3 {
			t.Fatalf("node %d chain members = %d", i, got)
		}
	}
	for i, en := range r.eNode {
		if got := len(en.Group()); got != 3 {
			t.Fatalf("node %d group = %d", i, got)
		}
	}
	if !r.cNode[0].IsHead() || !r.cNode[2].IsTail() {
		t.Fatal("chain roles wrong")
	}
}

func TestHeartbeatLiveness(t *testing.T) {
	r := newRig(t, 1, 2)
	r.eng.RunFor(5 * time.Millisecond)
	if r.ctrl.Stats.Heartbeats.Value() == 0 {
		t.Fatal("no heartbeats received")
	}
	if r.ctrl.Dead(1) || r.ctrl.Dead(2) {
		t.Fatal("live switch declared dead")
	}
}

func TestFailureDetection(t *testing.T) {
	r := newRig(t, 1, 3)
	var failedAddr netem.Addr
	r.ctrl.OnFailure = func(a netem.Addr) { failedAddr = a }
	r.eng.RunFor(2 * time.Millisecond)
	r.sws[1].Fail()
	r.eng.RunFor(5 * time.Millisecond)
	if !r.ctrl.Dead(2) {
		t.Fatal("failed switch not detected")
	}
	if failedAddr != 2 {
		t.Fatalf("OnFailure got %d", failedAddr)
	}
	if r.ctrl.Dead(1) || r.ctrl.Dead(3) {
		t.Fatal("healthy switch declared dead")
	}
}

func TestChainFailoverEndToEnd(t *testing.T) {
	// Full loop: failure detected by heartbeat timeout, chain shortened,
	// stuck write retried and committed.
	r := newRig(t, 2, 3)
	r.ctrl.ManageChain(1, r.chainMembers(0, 1, 2), nil)
	r.eng.RunFor(time.Millisecond)

	r.sws[1].Fail()
	committedAt := sim.Time(0)
	failedAt := r.eng.Now()
	r.cNode[0].Write(7, []byte("x"), func(ok bool) {
		if ok {
			committedAt = r.eng.Now()
		}
	})
	r.eng.RunFor(50 * time.Millisecond)
	if committedAt == 0 {
		t.Fatal("write never committed after automatic failover")
	}
	if len(r.cNode[0].Chain().Members) != 2 {
		t.Fatalf("chain not shortened: %v", r.cNode[0].Chain().Members)
	}
	t.Logf("write availability restored %v after failure", committedAt.Sub(failedAt))
}

func TestChainRecoveryWithSpare(t *testing.T) {
	r := newRig(t, 3, 4)
	// Chain {1,2,3}, spare {4}.
	r.ctrl.ManageChain(1, r.chainMembers(0, 1, 2), r.chainMembers(3))
	r.eng.RunFor(time.Millisecond)
	// Populate state.
	for i := 0; i < 100; i++ {
		v := make([]byte, 8)
		binary.BigEndian.PutUint64(v, uint64(i))
		r.cNode[0].Write(uint64(i), v, nil)
	}
	r.eng.RunFor(5 * time.Millisecond)

	r.sws[1].Fail()
	r.eng.RunFor(100 * time.Millisecond)

	if r.ctrl.Stats.Recoveries.Value() != 1 {
		t.Fatalf("recoveries = %d", r.ctrl.Stats.Recoveries.Value())
	}
	// Final chain: {1, 3, 4} with 4 as tail.
	cc := r.cNode[0].Chain()
	if len(cc.Members) != 3 || cc.Members[len(cc.Members)-1] != 4 {
		t.Fatalf("final chain = %v", cc.Members)
	}
	if !r.cNode[3].IsTail() {
		t.Fatal("spare not promoted to tail")
	}
	// The spare holds all state.
	for i := 0; i < 100; i++ {
		v, ok := r.cNode[3].Get(uint64(i))
		if !ok || binary.BigEndian.Uint64(v) != uint64(i) {
			t.Fatalf("key %d missing/wrong on recovered tail", i)
		}
	}
	// And the recovered chain still serves writes.
	done := false
	r.cNode[2].Write(999, []byte("post"), func(ok bool) { done = ok })
	r.eng.RunFor(20 * time.Millisecond)
	if !done {
		t.Fatal("write after recovery failed")
	}
}

func TestGroupFailover(t *testing.T) {
	r := newRig(t, 4, 3)
	r.ctrl.ManageGroup(2, r.groupMembers(0, 1, 2))
	r.eng.RunFor(time.Millisecond)
	r.sws[2].Fail()
	r.eng.RunFor(10 * time.Millisecond)
	if r.ctrl.GroupSize(2) != 2 {
		t.Fatalf("group size = %d after failure", r.ctrl.GroupSize(2))
	}
	for _, i := range []int{0, 1} {
		if len(r.eNode[i].Group()) != 2 {
			t.Fatalf("node %d group not updated: %v", i, r.eNode[i].Group())
		}
	}
}

func TestGroupRecoveryJoinBySync(t *testing.T) {
	r := newRig(t, 5, 4)
	r.ctrl.ManageGroup(2, r.groupMembers(0, 1, 2))
	r.eng.RunFor(time.Millisecond)
	for i := 0; i < 60; i++ {
		r.eNode[i%3].Add(uint64(i%6), 1)
	}
	r.eng.RunFor(2 * time.Millisecond)
	// EWO recovery: just add to the group and wait for sync (§6.3).
	r.ctrl.AddGroupMember(2, r.eNode[3])
	r.eng.RunFor(100 * time.Millisecond)
	for k := uint64(0); k < 6; k++ {
		if got := r.eNode[3].Sum(k); got != 10 {
			t.Fatalf("joined switch key %d = %d, want 10", k, got)
		}
	}
}

func TestSpareFailureDuringIdle(t *testing.T) {
	r := newRig(t, 6, 4)
	r.ctrl.ManageChain(1, r.chainMembers(0, 1), r.chainMembers(3))
	r.eng.RunFor(time.Millisecond)
	// The spare dies before ever being needed.
	r.sws[3].Fail()
	r.eng.RunFor(10 * time.Millisecond)
	// Now a member dies: failover must proceed without recovery.
	r.sws[1].Fail()
	r.eng.RunFor(20 * time.Millisecond)
	if got := len(r.cNode[0].Chain().Members); got != 1 {
		t.Fatalf("chain = %v", r.cNode[0].Chain().Members)
	}
	if r.ctrl.Stats.Recoveries.Value() != 0 {
		t.Fatal("recovery ran with a dead spare")
	}
}

func TestChainEpochMonotone(t *testing.T) {
	r := newRig(t, 7, 3)
	r.ctrl.ManageChain(1, r.chainMembers(0, 1, 2), nil)
	e1 := r.ctrl.ChainEpoch(1)
	r.sws[2].Fail()
	r.eng.RunFor(10 * time.Millisecond)
	if e2 := r.ctrl.ChainEpoch(1); e2 <= e1 {
		t.Fatalf("epoch did not advance: %d -> %d", e1, e2)
	}
	if r.ctrl.ChainEpoch(99) != 0 {
		t.Fatal("unknown chain epoch")
	}
}

func TestDirectory(t *testing.T) {
	d := NewDirectory()
	d.Register(1, 10, 11, 12)
	d.Register(2, 10)
	if got := d.Lookup(1); len(got) != 3 || got[0] != 10 {
		t.Fatalf("lookup = %v", got)
	}
	d.Register(2, 10, 9) // registering again only adds
	if got := d.Lookup(2); len(got) != 2 || got[0] != 9 || got[1] != 10 {
		t.Fatalf("lookup = %v, want sorted [9 10]", got)
	}
	if got := d.Lookup(7); len(got) != 0 {
		t.Fatalf("lookup of unknown register = %v", got)
	}
}

func TestHeartbeatAfterDeadIsRecorded(t *testing.T) {
	r := newRig(t, 8, 2)
	r.eng.RunFor(2 * time.Millisecond)
	r.sws[1].Fail()
	r.eng.RunFor(5 * time.Millisecond)
	if !r.ctrl.Dead(2) {
		t.Fatal("not detected")
	}
	// A heartbeat from a "dead" switch clears the flag (operator re-adds it
	// to chains/groups explicitly).
	r.ctrl.receive(2, &wire.Heartbeat{From: 2, Seq: 1}, 11)
	if r.ctrl.Dead(2) {
		t.Fatal("revived switch still dead")
	}
}

func TestPlannedMigration(t *testing.T) {
	// §9 extension: replace a chain member without a failure. Writes keep
	// committing throughout, and the retired switch ends up out of the chain
	// while the new one holds the full state as tail.
	r := newRig(t, 9, 4)
	r.ctrl.ManageChain(1, r.chainMembers(0, 1, 2), nil)
	r.eng.RunFor(time.Millisecond)
	for i := 0; i < 80; i++ {
		v := make([]byte, 8)
		binary.BigEndian.PutUint64(v, uint64(i))
		r.cNode[0].Write(uint64(i), v, nil)
	}
	r.eng.RunFor(10 * time.Millisecond)

	// Migrate: retire switch 2 (addr 2), bring in switch 4.
	if err := r.ctrl.ReplaceChainMember(1, 2, r.cNode[3]); err != nil {
		t.Fatal(err)
	}
	// Writes continue during the migration.
	committed := 0
	for i := 80; i < 120; i++ {
		v := make([]byte, 8)
		binary.BigEndian.PutUint64(v, uint64(i))
		r.cNode[0].Write(uint64(i), v, func(ok bool) {
			if ok {
				committed++
			}
		})
		r.eng.RunFor(200 * time.Microsecond)
	}
	r.eng.RunFor(100 * time.Millisecond)
	if committed != 40 {
		t.Fatalf("only %d/40 writes committed during migration", committed)
	}
	cc := r.cNode[0].Chain()
	for _, m := range cc.Members {
		if m == 2 {
			t.Fatalf("retired switch still in chain %v", cc.Members)
		}
	}
	if cc.Members[len(cc.Members)-1] != 4 {
		t.Fatalf("new member not tail: %v", cc.Members)
	}
	// The new member holds everything.
	for i := 0; i < 120; i++ {
		if _, ok := r.cNode[3].Get(uint64(i)); !ok {
			t.Fatalf("key %d missing on migrated-in switch", i)
		}
	}
}

func TestMigrationErrors(t *testing.T) {
	r := newRig(t, 10, 4)
	r.ctrl.ManageChain(1, r.chainMembers(0, 1), nil)
	r.eng.RunFor(time.Millisecond)
	if err := r.ctrl.ReplaceChainMember(99, 1, r.cNode[3]); err == nil {
		t.Fatal("unknown register accepted")
	}
	if err := r.ctrl.ReplaceChainMember(1, 77, r.cNode[3]); err == nil {
		t.Fatal("non-member old switch accepted")
	}
	if err := r.ctrl.ReplaceChainMember(1, 2, r.cNode[3]); err != nil {
		t.Fatal(err)
	}
	// Second concurrent migration must be refused.
	if err := r.ctrl.ReplaceChainMember(1, 1, r.cNode[2]); err == nil {
		t.Fatal("concurrent migration accepted")
	}
}

func TestFailureDuringRecoveryRestartsTransfer(t *testing.T) {
	// A second member dies while the spare's snapshot transfer is running:
	// the old-epoch transfer is abandoned and restarted under the new
	// configuration, so the join still completes.
	r := newRig(t, 11, 4)
	r.ctrl.ManageChain(1, r.chainMembers(0, 1, 2), r.chainMembers(3))
	r.eng.RunFor(time.Millisecond)
	for i := 0; i < 400; i++ {
		v := make([]byte, 8)
		binary.BigEndian.PutUint64(v, uint64(i))
		r.cNode[0].Write(uint64(i), v, nil)
	}
	r.eng.RunFor(50 * time.Millisecond)

	r.sws[1].Fail() // triggers recovery: spare 4 starts joining
	// Let detection fire and the transfer start, then kill another member.
	r.eng.RunFor(3 * time.Millisecond)
	r.sws[2].Fail()
	r.eng.RunFor(300 * time.Millisecond)

	if r.ctrl.Stats.Recoveries.Value() != 1 {
		t.Fatalf("recoveries = %d; interrupted transfer never restarted", r.ctrl.Stats.Recoveries.Value())
	}
	cc := r.cNode[0].Chain()
	if cc.Joining != 0 {
		t.Fatalf("join still pending: %+v", cc)
	}
	if len(cc.Members) != 2 || cc.Members[1] != 4 {
		t.Fatalf("final chain = %v, want [1 4]", cc.Members)
	}
	for i := 0; i < 400; i++ {
		if _, ok := r.cNode[3].Get(uint64(i)); !ok {
			t.Fatalf("key %d missing on recovered tail", i)
		}
	}
}

func TestFailureDuringMigrationStillRetiresOldMember(t *testing.T) {
	// A third member dies while a planned migration's snapshot is in flight:
	// the transfer restarts under the new epoch, and the restarted join must
	// still retire the old member when it promotes the new one.
	r := newRig(t, 12, 5)
	r.ctrl.ManageChain(1, r.chainMembers(0, 1, 2, 3), nil)
	r.eng.RunFor(time.Millisecond)
	for i := 0; i < 100; i++ {
		v := make([]byte, 8)
		binary.BigEndian.PutUint64(v, uint64(i))
		r.cNode[0].Write(uint64(i), v, nil)
	}
	r.eng.RunFor(20 * time.Millisecond)

	// A slow donor->joiner link keeps the snapshot unacknowledged past the
	// failure detector's timeout.
	r.net.SetOneWayLink(1, 5, netem.LinkProfile{Latency: 3_000_000})
	if err := r.ctrl.ReplaceChainMember(1, 2, r.cNode[4]); err != nil {
		t.Fatal(err)
	}
	r.sws[2].Fail()
	r.eng.RunFor(2 * time.Millisecond)
	if !r.ctrl.Dead(3) || r.ctrl.Stats.Recoveries.Value() != 0 {
		t.Fatalf("fault shape: dead(3)=%v recoveries=%d; the crash must land mid-transfer",
			r.ctrl.Dead(3), r.ctrl.Stats.Recoveries.Value())
	}
	r.eng.RunFor(300 * time.Millisecond)

	if r.ctrl.Stats.Recoveries.Value() != 1 {
		t.Fatalf("recoveries = %d; interrupted migration never completed", r.ctrl.Stats.Recoveries.Value())
	}
	cc := r.cNode[0].Chain()
	if cc.Joining != 0 || !slices.Equal(cc.Members, []uint16{1, 4, 5}) {
		t.Fatalf("final chain = %+v, want members [1 4 5] (old member 2 retired)", cc)
	}
	for i := 0; i < 100; i++ {
		if _, ok := r.cNode[4].Get(uint64(i)); !ok {
			t.Fatalf("key %d missing on migrated-in switch", i)
		}
	}
}
