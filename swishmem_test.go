package swishmem

import (
	"fmt"
	"testing"
	"time"
)

func TestClusterValidation(t *testing.T) {
	if _, err := New(Config{Switches: 0}); err == nil {
		t.Fatal("zero switches accepted")
	}
	if _, err := New(Config{Switches: 1, Spares: -1}); err == nil {
		t.Fatal("negative spares accepted")
	}
}

func TestStrongRegisterEndToEnd(t *testing.T) {
	c, err := New(Config{Switches: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	regs, err := c.DeclareStrong("table", StrongOptions{Capacity: 1024, ValueWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 3 {
		t.Fatalf("handles = %d", len(regs))
	}
	c.RunFor(2 * time.Millisecond) // controller pushes chain config
	committed := false
	regs[1].Write(42, []byte("hello"), func(ok bool) { committed = ok })
	c.RunFor(10 * time.Millisecond)
	if !committed {
		t.Fatal("write not committed")
	}
	for i, r := range regs {
		got := ""
		r.Read(42, func(v []byte, ok bool) { got = string(v) })
		if got != "hello" {
			t.Fatalf("switch %d read %q", i, got)
		}
	}
}

func TestCounterRegisterEndToEnd(t *testing.T) {
	c, err := New(Config{Switches: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	regs, err := c.DeclareCounter("hits", EventualOptions{Capacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	regs[0].Add(7, 10)
	regs[1].Add(7, 5)
	regs[2].Add(7, 1)
	c.RunFor(5 * time.Millisecond)
	for i, r := range regs {
		if got := r.Sum(7); got != 16 {
			t.Fatalf("switch %d sum = %d", i, got)
		}
	}
}

func TestEventualRegisterEndToEnd(t *testing.T) {
	c, err := New(Config{Switches: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	regs, err := c.DeclareEventual("cfg", EventualOptions{Capacity: 64, ValueWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	regs[0].Write(1, []byte("x"))
	c.RunFor(5 * time.Millisecond)
	if v, ok := regs[1].Read(1); !ok || string(v) != "x" {
		t.Fatalf("replica read %q %v", v, ok)
	}
}

func TestDuplicateNamesRejected(t *testing.T) {
	c, _ := New(Config{Switches: 1, Seed: 5})
	if _, err := c.DeclareCounter("dup", EventualOptions{Capacity: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.DeclareStrong("dup", StrongOptions{Capacity: 8, ValueWidth: 8}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := c.DeclareStrong("", StrongOptions{Capacity: 8, ValueWidth: 8}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestRegisterID(t *testing.T) {
	c, _ := New(Config{Switches: 1, Seed: 6})
	c.DeclareCounter("a", EventualOptions{Capacity: 8})
	if id, ok := c.RegisterID("a"); !ok || id == 0 {
		t.Fatalf("id = %d %v", id, ok)
	}
	if _, ok := c.RegisterID("missing"); ok {
		t.Fatal("unknown name resolved")
	}
}

func TestAutomaticFailoverThroughPublicAPI(t *testing.T) {
	c, err := New(Config{Switches: 3, Spares: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	regs, err := c.DeclareStrong("t", StrongOptions{Capacity: 512, ValueWidth: 8, RetryTimeout: 300 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	for i := 0; i < 50; i++ {
		regs[0].Write(uint64(i), []byte(fmt.Sprintf("v%d", i)), nil)
	}
	c.RunFor(20 * time.Millisecond)

	c.FailSwitch(1) // mid-chain
	committed := false
	regs[0].Write(99, []byte("post"), func(ok bool) { committed = ok })
	c.RunFor(100 * time.Millisecond)
	if !committed {
		t.Fatal("write did not commit after failover")
	}
	if c.Controller().Stats.Recoveries.Value() != 1 {
		t.Fatal("spare was not recovered into the chain")
	}
}

func TestEWOSpareJoin(t *testing.T) {
	c, err := New(Config{Switches: 2, Spares: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	regs, err := c.DeclareCounter("ctr", EventualOptions{Capacity: 64, SyncPeriod: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	regs[0].Add(5, 9)
	regs[1].Add(5, 1)
	c.RunFor(5 * time.Millisecond)
	if err := c.JoinCounterGroup("ctr", 2); err != nil {
		t.Fatal(err)
	}
	c.RunFor(100 * time.Millisecond)
	h, err := c.Instance(2).CounterHandle(mustID(t, c, "ctr"))
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Sum(5); got != 10 {
		t.Fatalf("joined spare sum = %d", got)
	}
	// Error paths.
	if err := c.JoinCounterGroup("nope", 2); err == nil {
		t.Fatal("unknown register accepted")
	}
	if err := c.JoinCounterGroup("ctr", 0); err == nil {
		t.Fatal("non-spare accepted")
	}
}

func mustID(t *testing.T, c *Cluster, name string) uint16 {
	t.Helper()
	id, ok := c.RegisterID(name)
	if !ok {
		t.Fatalf("register %q not found", name)
	}
	return id
}

func TestPartitionAndHeal(t *testing.T) {
	c, _ := New(Config{Switches: 2, Seed: 9})
	regs, _ := c.DeclareCounter("p", EventualOptions{Capacity: 16, SyncPeriod: 500 * time.Microsecond})
	c.RunFor(2 * time.Millisecond)
	c.Partition([]int{0}, []int{1})
	regs[0].Add(1, 5)
	c.RunFor(10 * time.Millisecond)
	if regs[1].Sum(1) != 0 {
		t.Fatal("update crossed partition")
	}
	c.HealPartition()
	c.RunFor(50 * time.Millisecond)
	if regs[1].Sum(1) != 5 {
		t.Fatalf("not converged after heal: %d", regs[1].Sum(1))
	}
}

func TestNetworkAccounting(t *testing.T) {
	c, _ := New(Config{Switches: 2, Seed: 10})
	regs, _ := c.DeclareCounter("n", EventualOptions{Capacity: 16, DisableSync: true})
	c.RunFor(2 * time.Millisecond)
	c.ResetNetworkTotals()
	regs[0].Add(1, 1)
	c.RunFor(time.Millisecond)
	tot := c.NetworkTotals()
	if tot.BytesSent == 0 {
		t.Fatal("no replication bytes accounted")
	}
}

func TestMemoryAccountingSurface(t *testing.T) {
	c, _ := New(Config{Switches: 1, Seed: 11})
	before := c.MemoryUsed(0)
	if _, err := c.DeclareStrong("m", StrongOptions{Capacity: 1024, ValueWidth: 16}); err != nil {
		t.Fatal(err)
	}
	if c.MemoryUsed(0) <= before {
		t.Fatal("memory not charged")
	}
	// Over-budget fails with a useful error.
	if _, err := c.DeclareStrong("huge", StrongOptions{Capacity: 1 << 20, ValueWidth: 64}); err == nil {
		t.Fatal("over-budget register accepted")
	}
}

func TestNowAdvances(t *testing.T) {
	c, _ := New(Config{Switches: 1, Seed: 13})
	c.RunFor(5 * time.Millisecond)
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("Now = %v", c.Now())
	}
	if c.Size() != 1 {
		t.Fatal("Size")
	}
}

func TestPartialReplicationProxies(t *testing.T) {
	// §9 locality extension: replicas on switches 0 and 1 only; switch 2 is
	// a zero-SRAM proxy that reads at the tail and writes via the head.
	c, err := New(Config{Switches: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	before2 := c.MemoryUsed(2)
	regs, err := c.DeclareStrong("local", StrongOptions{
		Capacity: 256, ValueWidth: 8, ReplicaOn: []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.MemoryUsed(2) != before2 {
		t.Fatalf("proxy consumed SRAM: %d", c.MemoryUsed(2)-before2)
	}
	if c.MemoryUsed(0) == before2 {
		t.Fatal("replica consumed no SRAM")
	}
	c.RunFor(2 * time.Millisecond)

	// Write from the proxy commits through the chain.
	committed := false
	regs[2].Write(5, []byte("via-prox"), func(ok bool) { committed = ok })
	c.RunFor(20 * time.Millisecond)
	if !committed {
		t.Fatal("proxy write did not commit")
	}
	// Read from the proxy is remote but correct.
	got := ""
	regs[2].Read(5, func(v []byte, ok bool) { got = string(v) })
	if got != "" {
		t.Fatal("proxy read answered locally")
	}
	c.RunFor(10 * time.Millisecond)
	if got != "via-prox" {
		t.Fatalf("proxy read = %q", got)
	}
	// Directory records only the replica switches.
	id, _ := c.RegisterID("local")
	reps := c.Directory().Lookup(id)
	if len(reps) != 2 || reps[0] != c.Switch(0).Addr() || reps[1] != c.Switch(1).Addr() {
		t.Fatalf("directory = %v", reps)
	}
}

func TestPartialReplicationSurvivesFailover(t *testing.T) {
	// The proxy keeps routing after the chain reconfigures around a failure
	// (it is a controller config listener).
	c, _ := New(Config{Switches: 4, Seed: 32, HeartbeatPeriod: 500 * time.Microsecond})
	regs, err := c.DeclareStrong("r", StrongOptions{
		Capacity: 64, ValueWidth: 8, ReplicaOn: []int{0, 1, 2},
		RetryTimeout: 500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	regs[3].Write(1, []byte("pre"), nil)
	c.RunFor(20 * time.Millisecond)

	c.FailSwitch(2) // old tail dies; chain reconfigures to {0,1}
	c.RunFor(20 * time.Millisecond)
	got := ""
	regs[3].Read(1, func(v []byte, ok bool) { got = string(v) })
	c.RunFor(20 * time.Millisecond)
	if got != "pre" {
		t.Fatalf("proxy read after failover = %q", got)
	}
	committed := false
	regs[3].Write(2, []byte("post"), func(ok bool) { committed = ok })
	c.RunFor(50 * time.Millisecond)
	if !committed {
		t.Fatal("proxy write after failover failed")
	}
}

func TestReplicaOnValidation(t *testing.T) {
	c, _ := New(Config{Switches: 2, Seed: 33})
	if _, err := c.DeclareStrong("a", StrongOptions{Capacity: 8, ValueWidth: 8, ReplicaOn: []int{5}}); err == nil {
		t.Fatal("out-of-range replica index accepted")
	}
	if _, err := c.DeclareStrong("b", StrongOptions{Capacity: 8, ValueWidth: 8, ReplicaOn: []int{}}); err == nil {
		t.Fatal("empty replica set accepted")
	}
}
