package swishmem_test

import (
	"fmt"
	"time"

	"swishmem"
)

// Example builds a three-switch cluster, commits a linearizable write
// through the chain, and reads it back at a different switch.
func Example() {
	cluster, err := swishmem.New(swishmem.Config{Switches: 3, Seed: 7})
	if err != nil {
		panic(err)
	}
	regs, err := cluster.DeclareStrong("table", swishmem.StrongOptions{
		Capacity: 1024, ValueWidth: 16,
	})
	if err != nil {
		panic(err)
	}
	cluster.RunFor(2 * time.Millisecond) // controller pushes the chain config

	regs[0].Write(42, []byte("hello"), func(committed bool) {
		fmt.Println("committed:", committed)
	})
	cluster.RunFor(10 * time.Millisecond)

	regs[2].Read(42, func(v []byte, ok bool) {
		fmt.Println("read at switch 3:", string(v))
	})
	// Output:
	// committed: true
	// read at switch 3: hello
}

// ExampleCluster_DeclareCounter shows the EWO counter CRDT: concurrent
// increments from every switch merge to an exact cluster-wide sum.
func ExampleCluster_DeclareCounter() {
	cluster, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 7})
	counters, _ := cluster.DeclareCounter("hits", swishmem.EventualOptions{Capacity: 64})
	cluster.RunFor(2 * time.Millisecond)

	counters[0].Add(1, 10)
	counters[1].Add(1, 20)
	counters[2].Add(1, 12)
	cluster.RunFor(5 * time.Millisecond)

	fmt.Println("sum everywhere:", counters[0].Sum(1), counters[1].Sum(1), counters[2].Sum(1))
	// Output:
	// sum everywhere: 42 42 42
}

// ExampleCluster_DeclareEventual shows the EWO last-writer-wins register:
// writes apply locally at once, and concurrent writes to one key converge on
// every switch to the one with the larger version stamp (synchronized clock
// time, switch ID as the tie breaker).
func ExampleCluster_DeclareEventual() {
	cluster, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 42})
	flags, _ := cluster.DeclareEventual("flags", swishmem.EventualOptions{Capacity: 64, ValueWidth: 8})
	cluster.RunFor(2 * time.Millisecond)

	flags[0].Write(1, []byte("from-sw0"))
	flags[2].Write(1, []byte("from-sw2"))
	v0, _ := flags[0].Read(1)
	fmt.Printf("switch 0 reads its own write: %s\n", v0)
	cluster.RunFor(5 * time.Millisecond)

	for i, f := range flags {
		v, _ := f.Read(1)
		fmt.Printf("switch %d: %s\n", i, v)
	}
	// Output:
	// switch 0 reads its own write: from-sw0
	// switch 0: from-sw0
	// switch 1: from-sw0
	// switch 2: from-sw0
}

// ExampleCluster_FailSwitch demonstrates automatic failover: after a chain
// member fail-stops, the controller detects it by heartbeat timeout,
// shortens the chain, and the retried write commits.
func ExampleCluster_FailSwitch() {
	cluster, _ := swishmem.New(swishmem.Config{
		Switches: 3, Spares: 1, Seed: 7, HeartbeatPeriod: 500 * time.Microsecond,
	})
	regs, _ := cluster.DeclareStrong("t", swishmem.StrongOptions{
		Capacity: 64, ValueWidth: 8, RetryTimeout: 500 * time.Microsecond,
	})
	cluster.RunFor(2 * time.Millisecond)

	cluster.FailSwitch(1) // mid-chain fail-stop
	regs[0].Write(1, []byte("alive"), func(ok bool) {
		fmt.Println("write committed after failover:", ok)
	})
	cluster.RunFor(100 * time.Millisecond)
	fmt.Println("recoveries:", cluster.Controller().Stats.Recoveries.Value())
	// Output:
	// write committed after failover: true
	// recoveries: 1
}
