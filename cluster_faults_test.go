package swishmem

import (
	"encoding/binary"
	"testing"
	"time"
)

// Direct coverage of the cluster fault-injection surface used by the
// randomized explorer (internal/explore): Partition/HealPartition semantics
// and EWO spare recovery via JoinCounterGroup, including its error paths.

func newFaultCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPartitionDropsCrossGroupTraffic checks the partition model end to end:
// while partitioned, EWO counter state diverges exactly along group lines
// (cross-group multicasts and syncs are dropped on the fabric), and after
// HealPartition the periodic synchronization reconverges every replica to
// the exact global total.
func TestPartitionDropsCrossGroupTraffic(t *testing.T) {
	c := newFaultCluster(t, Config{Switches: 4, Seed: 1})
	ctr, err := c.DeclareCounter("c", EventualOptions{
		Capacity: 64, SyncPeriod: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)

	c.Partition([]int{0, 1}, []int{2, 3})
	before := c.NetworkTotals()

	ctr[0].Add(7, 10) // side A
	ctr[2].Add(7, 5)  // side B
	c.RunFor(5 * time.Millisecond)

	for i, want := range map[int]uint64{0: 10, 1: 10, 2: 5, 3: 5} {
		if got := ctr[i].Sum(7); got != want {
			t.Errorf("during partition: node %d sum = %d, want only its side's %d", i, got, want)
		}
	}
	if d := c.NetworkTotals().MsgsDropped - before.MsgsDropped; d == 0 {
		t.Error("no messages were dropped while partitioned")
	}

	c.HealPartition()
	c.RunFor(5 * time.Millisecond)
	for i := 0; i < 4; i++ {
		if got := ctr[i].Sum(7); got != 15 {
			t.Errorf("after heal: node %d sum = %d, want exact total 15", i, got)
		}
	}
}

// TestPartitionMinorityWriteCommitsAfterHeal checks SRO behavior across a
// partition: a write issued on the minority side cannot commit while the
// chain is severed (the chain spans both sides), the protocol keeps
// retrying, and once the partition heals within the retry budget the write
// commits and is readable from the other side.
func TestPartitionMinorityWriteCommitsAfterHeal(t *testing.T) {
	c := newFaultCluster(t, Config{Switches: 3, Seed: 1})
	strong, err := c.DeclareStrong("s", StrongOptions{
		Capacity: 64, ValueWidth: 8, RetryTimeout: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)

	c.Partition([]int{0}, []int{1, 2})
	val := make([]byte, 8)
	binary.BigEndian.PutUint64(val, 0xfeedface)
	resolved, committed := false, false
	strong[0].Write(3, val, func(ok bool) { resolved, committed = true, ok })

	c.RunFor(3 * time.Millisecond)
	if resolved {
		t.Fatalf("write resolved (ok=%v) while the chain was partitioned", committed)
	}

	c.HealPartition()
	c.RunFor(30 * time.Millisecond)
	if !resolved || !committed {
		t.Fatalf("write did not commit after heal (resolved=%v ok=%v)", resolved, committed)
	}
	var got []byte
	var ok bool
	strong[2].Read(3, func(v []byte, o bool) { got, ok = v, o })
	c.RunFor(5 * time.Millisecond)
	if !ok || binary.BigEndian.Uint64(got) != 0xfeedface {
		t.Fatalf("read from far side after heal: ok=%v val=%x", ok, got)
	}
}

// TestOneWayHeartbeatLossEvictsThenRevives covers the asymmetric-partition
// trap for the failure detector: the victim->controller direction dies (its
// heartbeats vanish) while controller->victim stays healthy. The controller
// must evict the — actually healthy — switch, and because the config path
// still works the victim immediately learns it is out: no split-brain, and
// the surviving chain keeps committing. Healing the direction lets the
// heartbeats flow again and the revival path walks the victim back in.
func TestOneWayHeartbeatLossEvictsThenRevives(t *testing.T) {
	c := newFaultCluster(t, Config{Switches: 3, Seed: 3,
		HeartbeatPeriod: 500 * time.Microsecond})
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
	ctr[0].Add(1, 10)
	c.RunFor(2 * time.Millisecond)

	const victim = 1
	vAddr := c.Switch(victim).Addr()
	def := c.Link(0, 1) // the cluster-wide default profile
	dead := def
	dead.Deny = DenyBlackhole
	c.SetControllerLink(victim, dead, def)
	c.RunFor(10 * time.Millisecond)

	ctrl := c.Controller()
	if !ctrl.Dead(vAddr) {
		t.Fatal("one-way heartbeat loss not detected: silence must mean dead")
	}
	if ctrl.Stats.FailuresSeen.Value() == 0 {
		t.Fatal("no failure recorded for the muted switch")
	}
	// The reconfigured chain (victim excluded) still serves writes, and
	// counter traffic keeps flowing among the survivors.
	committed := false
	val := make([]byte, 8)
	binary.BigEndian.PutUint64(val, 0xabcd)
	strong[0].Write(5, val, func(ok bool) { committed = ok })
	ctr[2].Add(1, 3)
	c.RunFor(10 * time.Millisecond)
	if !committed {
		t.Fatal("write did not commit while the healthy-but-muted switch was evicted")
	}

	// Heal the heartbeat direction: the very next beat revives the victim and
	// the controller walks it back into its chain (spare path) and group.
	c.SetControllerLink(victim, def, def)
	c.RunFor(30 * time.Millisecond)
	if ctrl.Dead(vAddr) {
		t.Fatal("victim still dead after the heartbeat path healed")
	}
	if ctrl.Stats.Revivals.Value() == 0 {
		t.Fatal("no revival recorded after heal")
	}
	// Group rejoin reconciles both ways: every replica — including the one
	// that missed the mid-outage increments — converges to the exact total.
	for i := 0; i < 3; i++ {
		if got := ctr[i].Sum(1); got != 13 {
			t.Errorf("node %d sum = %d, want exact total 13", i, got)
		}
	}
	// And the re-formed chain commits with the victim back in the loop.
	committed = false
	strong[victim].Write(6, val, func(ok bool) { committed = ok })
	c.RunFor(10 * time.Millisecond)
	if !committed {
		t.Error("write via revived switch did not commit")
	}
}

// TestJoinCounterGroupUnderConcurrentWrites exercises §6.3 EWO recovery with
// traffic in flight: a spare joins the counter group mid-workload and must
// converge to the exact total, including increments issued both before and
// after the join.
func TestJoinCounterGroupUnderConcurrentWrites(t *testing.T) {
	c := newFaultCluster(t, Config{Switches: 3, Spares: 1, Seed: 1})
	ctr, err := c.DeclareCounter("c", EventualOptions{
		Capacity: 64, SyncPeriod: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)

	var total uint64
	add := func(node int, delta uint64) {
		ctr[node].Add(1, delta)
		total += delta
		c.RunFor(100 * time.Microsecond)
	}

	for i := 0; i < 30; i++ {
		add(i%3, uint64(i%5+1))
		if i == 15 {
			if err := c.JoinCounterGroup("c", 3); err != nil {
				t.Fatalf("join: %v", err)
			}
		}
	}
	c.RunFor(5 * time.Millisecond) // a few sync periods to converge

	id, okID := c.RegisterID("c")
	if !okID {
		t.Fatal("register \"c\" missing")
	}
	spare, err := c.Instance(3).CounterHandle(id)
	if err != nil {
		t.Fatalf("spare has no counter handle after join: %v", err)
	}
	if got := spare.Sum(1); got != total {
		t.Errorf("spare sum = %d, want exact total %d", got, total)
	}
	for i := 0; i < 3; i++ {
		if got := ctr[i].Sum(1); got != total {
			t.Errorf("replica %d sum = %d, want %d", i, got, total)
		}
	}
}

func TestJoinCounterGroupErrors(t *testing.T) {
	c := newFaultCluster(t, Config{Switches: 2, Spares: 1, Seed: 1})
	if _, err := c.DeclareCounter("c", EventualOptions{Capacity: 8}); err != nil {
		t.Fatal(err)
	}
	if err := c.JoinCounterGroup("nope", 2); err == nil {
		t.Error("unknown register name accepted")
	}
	if err := c.JoinCounterGroup("c", 0); err == nil {
		t.Error("replica index accepted as a spare")
	}
	if err := c.JoinCounterGroup("c", 3); err == nil {
		t.Error("out-of-range spare index accepted")
	}
}
