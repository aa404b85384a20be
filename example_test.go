package swishmem_test

import (
	"fmt"
	"math/rand"
	"time"

	"swishmem"
	"swishmem/internal/netem"
	"swishmem/internal/nf"
	"swishmem/internal/packet"
	"swishmem/internal/topology"
	"swishmem/internal/workload"
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

// ExampleCluster_DeployNAT is the §6.3 NAT failover: a chain member fails
// mid-run, the controller detects it by heartbeat timeout, shortens the
// chain and recovers full replication onto a spare. Existing translations
// keep working, also on a switch that never saw the connections open, and a
// new connection commits on the repaired chain.
func ExampleCluster_DeployNAT() {
	cluster, _ := swishmem.New(swishmem.Config{
		Switches: 3, Spares: 1, Seed: 5, HeartbeatPeriod: 500 * time.Microsecond,
	})
	nats, _ := cluster.DeployNAT("nat", swishmem.NATOptions{
		Capacity: 1 << 14, ExternalIP: swishmem.Addr4(203, 0, 113, 1),
	})
	out := make([]int, len(nats))
	for i := range nats {
		i := i
		nats[i].Egress = func(*swishmem.Packet) { out[i]++ }
		nats[i].Install()
	}
	cluster.RunFor(2 * time.Millisecond)
	conn := func(i int, flags packet.TCPFlags) *swishmem.Packet {
		return packet.NewBuilder().Src(packet.Addr4(10, 0, 0, byte(i+1))).
			Dst(packet.Addr4(198, 51, 100, 7)).TCP(uint16(2000+i), 80, flags).Build()
	}

	for i := 0; i < 200; i++ { // 200 connections open through switch 1
		nats[0].Switch().InjectPacket(conn(i, packet.FlagSYN))
	}
	cluster.RunFor(300 * time.Millisecond)
	fmt.Println("translations at switch 1:", nats[0].Stats.NewConns.Value())

	cluster.FailSwitch(1) // mid-chain fail-stop
	cluster.RunFor(100 * time.Millisecond)
	ctrl := cluster.Controller()
	fmt.Println("failure detected:", ctrl.Dead(cluster.Switch(1).Addr()), "recoveries:", ctrl.Stats.Recoveries.Value())

	for i := 0; i < 200; i++ { // the same connections, now through switch 3
		nats[2].Switch().InjectPacket(conn(i, packet.FlagACK))
	}
	cluster.RunFor(50 * time.Millisecond)
	fmt.Println("existing connections translated at switch 3:", out[2])

	nats[2].Switch().InjectPacket(conn(250, packet.FlagSYN))
	cluster.RunFor(100 * time.Millisecond)
	fmt.Println("new translations at switch 3:", nats[2].Stats.NewConns.Value())
	// Output:
	// translations at switch 1: 200
	// failure detected: true recoveries: 1
	// existing connections translated at switch 3: 200
	// new translations at switch 3: 1
}

// ExampleStrongOptions_replicaOn is the §9 locality extension: replicas on
// two of four switches, zero-SRAM proxy handles on the other two that write
// via the chain head and read at its tail, across a failover of the tail.
func ExampleStrongOptions_replicaOn() {
	cluster, _ := swishmem.New(swishmem.Config{
		Switches: 4, Seed: 11, HeartbeatPeriod: 500 * time.Microsecond,
	})
	regs, _ := cluster.DeclareStrong("rack-state", swishmem.StrongOptions{
		Capacity: 4096, ValueWidth: 16, ReplicaOn: []int{0, 1},
		RetryTimeout: 500 * time.Microsecond,
	})
	cluster.RunFor(2 * time.Millisecond)
	for i, r := range regs {
		fmt.Printf("switch %d SRAM: %d bytes\n", i+1, r.MemoryBytes())
	}
	id, _ := cluster.RegisterID("rack-state")
	fmt.Println("replicated on:", cluster.Directory().Lookup(id))

	regs[3].Write(7, []byte("remote-write"), func(ok bool) { fmt.Println("proxy write committed:", ok) })
	cluster.RunFor(10 * time.Millisecond)
	read := func(i int, what string) {
		start := cluster.Now()
		regs[i].Read(7, func(v []byte, ok bool) { fmt.Printf("%s %q in %v\n", what, v, cluster.Now()-start) })
		cluster.RunFor(10 * time.Millisecond)
	}
	read(2, "proxy read")
	read(0, "replica read")
	cluster.FailSwitch(1) // the tail replica
	cluster.RunFor(50 * time.Millisecond)
	read(2, "proxy read after failover")
	// Output:
	// switch 1 SRAM: 135168 bytes
	// switch 2 SRAM: 135168 bytes
	// switch 3 SRAM: 0 bytes
	// switch 4 SRAM: 0 bytes
	// replicated on: [1 2]
	// proxy write committed: true
	// proxy read "remote-write" in 20.803µs
	// replica read "remote-write" in 0s
	// proxy read after failover "remote-write" in 20.803µs
}

// ExampleCluster_DeployDDoS is the §4.2 detector: an attack below the
// threshold at every single switch crosses it in the cluster-wide,
// CRDT-merged sketch, which a sharded deployment cannot see.
func ExampleCluster_DeployDDoS() {
	const switches = 4
	cluster, _ := swishmem.New(swishmem.Config{Switches: switches, Seed: 99})
	dets, _ := cluster.DeployDDoS("ddos", swishmem.DDoSOptions{
		Width: 2048, Depth: 3, Threshold: 2000, Window: 50 * time.Millisecond,
	})
	cluster.RunFor(2 * time.Millisecond)
	alarms := 0
	for _, d := range dets {
		d := d
		d.OnAlarm = func(victim swishmem.FlowKey, est uint64) {
			if alarms++; alarms == 1 {
				fmt.Printf("alarm at %v on switch %d: victim %v, estimate %d\n", cluster.Now(), d.Switch().Addr(), victim.Dst, est)
			}
		}
	}

	rng := rand.New(rand.NewSource(99))
	bg, _ := workload.GenTrace(rng, workload.TraceConfig{
		Duration: 40 * time.Millisecond, FlowsPerSec: 20000, Servers: 64,
	})
	// 120k pps at one victim is 1500 packets per 50 ms window per switch:
	// below the 2000 threshold everywhere, 6000 cluster-wide.
	atk, _ := workload.GenAttack(rng, workload.AttackConfig{
		Duration: 40 * time.Millisecond, PacketsPerSec: 120_000, Sources: 4000, Victim: 9,
	})
	i := 0
	workload.Replay(cluster.Engine(), workload.Merge(bg, atk), func(p *swishmem.Packet) {
		cluster.Switch(i % switches).InjectPacket(p)
		i++
	})
	cluster.RunFor(60 * time.Millisecond)
	var shed uint64
	for _, d := range dets {
		shed += d.Stats.Dropped.Value()
	}
	fmt.Println("attack packets shed:", shed)
	// Output:
	// alarm at 17.885164ms on switch 3: victim 192.168.0.9, estimate 2000
	// attack packets shed: 2988
}

// ExampleCluster_DeployLoadBalancer is the §3.2 motivating scenario: an L4
// load balancer behind an ECMP ingress loses a switch, and ECMP re-routes
// most flows. Switch-local (sharded) state re-assigns rerouted connections
// to new DIPs and breaks them; SRO state keeps every connection on its DIP.
func ExampleCluster_DeployLoadBalancer() {
	fmt.Println("sharded baseline: broken connections:", lbBrokenConns(true), "of 300")
	fmt.Println("SwiShmem SRO: broken connections:", lbBrokenConns(false), "of 300")
	// Output:
	// sharded baseline: broken connections: 131 of 300
	// SwiShmem SRO: broken connections: 0 of 300
}

// lbBrokenConns opens 300 connections over a 4-switch load balancer, fails
// switch 4, sends on every connection again and counts the connections
// that reached more than one DIP (per-connection-consistency violations).
func lbBrokenConns(sharded bool) int {
	const switches, flows = 4, 300
	cluster, _ := swishmem.New(swishmem.Config{Switches: switches, Seed: 7})
	vip := packet.Addr4(203, 0, 113, 80)
	lbs, _ := cluster.DeployLoadBalancer("lb", swishmem.LBOptions{
		Capacity: 1 << 14, Sharded: sharded,
		DIPs: []swishmem.Addr{swishmem.Addr4(192, 168, 1, 1), swishmem.Addr4(192, 168, 1, 2), swishmem.Addr4(192, 168, 1, 3)},
	})
	seen := map[uint64]map[swishmem.Addr]bool{}
	for _, l := range lbs {
		l.Egress = func(p *swishmem.Packet) {
			k, _ := p.Flow()
			k.Dst = vip // undo the DIP rewrite
			id := nf.FlowID(k)
			if seen[id] == nil {
				seen[id] = map[swishmem.Addr]bool{}
			}
			seen[id][p.IP.Dst] = true
		}
		l.Install()
	}
	cluster.RunFor(2 * time.Millisecond)

	var addrs []netem.Addr
	for i := 0; i < switches; i++ {
		addrs = append(addrs, cluster.Switch(i).Addr())
	}
	ing := topology.NewIngress(topology.ECMPMod, addrs, cluster.Engine().Rand().Intn)
	send := func(k packet.FlowKey, flags packet.TCPFlags, payload int) {
		if a, ok := ing.Route(k); ok {
			cluster.Switch(int(a - 1)).InjectPacket(packet.ForFlow(k, flags, payload))
		}
	}
	keys := make([]packet.FlowKey, flows)
	for i := range keys {
		keys[i] = packet.FlowKey{Src: packet.AddrU32(0x0b000000 + uint32(i)), Dst: vip,
			SrcPort: uint16(1024 + i), DstPort: 80, Proto: packet.ProtoTCP}
		send(keys[i], packet.FlagSYN, 0)
	}
	cluster.RunFor(200 * time.Millisecond)
	for _, k := range keys {
		send(k, packet.FlagACK, 64)
	}
	cluster.RunFor(50 * time.Millisecond)

	cluster.FailSwitch(switches - 1)
	ing.Fail(cluster.Switch(switches - 1).Addr())
	cluster.RunFor(50 * time.Millisecond)
	for _, k := range keys {
		send(k, packet.FlagACK, 64)
	}
	cluster.RunFor(200 * time.Millisecond)
	broken := 0
	for _, dips := range seen {
		if len(dips) > 1 {
			broken++
		}
	}
	return broken
}
