package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"swishmem"
	"swishmem/internal/livecluster"
	"swishmem/internal/netem"
	"swishmem/internal/netem/live"
	"swishmem/internal/obs"
	"swishmem/internal/packet"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/sketch"
	"swishmem/internal/stats"
	"swishmem/internal/wire"
)

const probeReps = 5

// timeOp is the isolated-probe loop: probeReps repetitions of n calls of fn each;
// it returns the median ns per call and the smallest allocations per call
// (the steady-state figure: a repetition that grew a pool is not it).
func timeOp(n int, fn func()) (ns, allocs float64) {
	var times, mallocs []float64
	for r := 0; r < probeReps; r++ {
		m0 := readMem()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t0)
		m := readMem().since(m0)
		times = append(times, float64(d)/float64(n))
		mallocs = append(mallocs, float64(m.mallocs)/float64(n))
	}
	sort.Float64s(mallocs)
	return median(times), mallocs[0]
}

// runProbes measures each layer in isolation through its exported functions
// (the stage table of ROADMAP item 1(b), taken from outside) and runs the
// burst probe. The probes do not depend on the workload.
func runProbes(r *result, cfg config) error {
	const (
		perBatch = 16 // frames per coalesced datagram
		perDrain = 64 // calls per simulator drain
	)
	n := cfg.scale(20_000)
	// probe times fn, which makes `per` calls into the layer, and reports
	// <name>_ns and <name>_allocs per call.
	probe := func(name string, per int, fn func()) (ns, allocs float64) {
		ns, allocs = timeOp(max(n/per, 1), fn)
		ns, allocs = ns/float64(per), allocs/float64(per)
		if name != "" {
			r.setLayer(name+"_ns", ns)
			r.setLayer(name+"_allocs", allocs)
		}
		return ns, allocs
	}

	// wire: the frames an SRO write and a coalesced datagram are made of.
	w := &wire.Write{Reg: 1, Key: 7, Seq: 9, WriteID: 11, Writer: 2, Epoch: 1, Value: []byte("12345678")}
	buf := make([]byte, 0, 64)
	probe("wire.marshal_write", 1, func() { buf = w.Marshal(buf[:0]) })
	frame := w.Marshal(nil)
	probe("wire.unmarshal_write", 1, func() {
		if _, err := wire.Unmarshal(frame); err != nil {
			panic(err)
		}
	})
	var bb wire.BatchBuilder
	probe("wire.batch_add", perBatch, func() {
		bb.Reset()
		for i := 0; i < perBatch; i++ {
			bb.Add(w)
		}
	})
	datagram := append([]byte(nil), bb.Bytes()...)
	vs := wire.NewViewSet(nil)
	ns, allocs := probe("", perBatch, func() {
		msgs, errs := vs.Decode(datagram)
		if errs != 0 || len(msgs) != perBatch {
			panic("bench: view decode of a well-formed batch failed")
		}
		for _, m := range msgs {
			m.(netem.Releasable).Release()
		}
		vs.Release()
	})
	r.setLayer("wire.view_decode_ns_per_msg", ns)
	r.setLayer("wire.view_decode_allocs", allocs)

	// chain, core, ewo: a 3-switch simulated cluster; writes and adds are
	// timed with the drain that commits or delivers them.
	c3, err := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	if err != nil {
		return err
	}
	strong, err := c3.DeclareStrong("s", swishmem.StrongOptions{Capacity: 1 << 12, ValueWidth: 8})
	if err != nil {
		return err
	}
	ctr, err := c3.DeclareCounter("c", swishmem.EventualOptions{Capacity: 1 << 12, DisableSync: true})
	if err != nil {
		return err
	}
	c3.RunFor(2 * time.Millisecond)
	val, committed := []byte("12345678"), 0
	onCommit := func(ok bool) {
		if ok {
			committed++
		}
	}
	key := uint64(0)
	probe("chain.sim_write_commit", perDrain, func() {
		for i := 0; i < perDrain; i++ {
			key++
			strong[0].Write(key%(1<<12), val, onCommit)
		}
		c3.RunFor(time.Millisecond)
	})
	if committed == 0 {
		return fmt.Errorf("chain probe: no write committed")
	}
	onRead := func([]byte, bool) {}
	probe("chain.read_local", 1, func() { strong[1].Node().Read(1, onRead) })
	probe("core.read_call", 1, func() { strong[1].Read(1, onRead) })
	probe("ewo.add", perDrain, func() {
		for i := 0; i < perDrain; i++ {
			key++
			ctr[0].Add(key%(1<<12), 1)
		}
		c3.RunFor(100 * time.Microsecond)
	})

	// sim, netem, pisa: one engine, one two-node network, one switch.
	eng := sim.NewEngine(1)
	nop := func() {}
	probe("sim.event", perDrain, func() {
		now := eng.Now()
		for i := 0; i < perDrain; i++ {
			eng.Schedule(now.Add(sim.Duration(i+1)), nop)
		}
		eng.Run()
	})
	nw := netem.New(eng, netem.DataCenter())
	sink := func(netem.Addr, any, int) {}
	nw.Attach(1, sink)
	nw.Attach(2, sink)
	hb := &wire.Heartbeat{From: 1}
	probe("netem.send_deliver", perDrain, func() {
		for i := 0; i < perDrain; i++ {
			nw.Send(1, 2, hb, hb.Size())
		}
		eng.Run()
	})
	sw := pisa.New(eng, nw, pisa.Config{Addr: 3})
	sw.SetProgram(func(*pisa.Switch, *packet.Packet) pisa.Verdict { return pisa.Drop })
	pkt := packet.ForFlow(packet.FlowKey{Src: packet.Addr4(10, 0, 0, 1), Dst: packet.Addr4(192, 168, 0, 1),
		SrcPort: 1234, DstPort: 80, Proto: packet.ProtoTCP}, packet.FlagACK, 64)
	probe("pisa.inject_packet", perDrain, func() {
		for i := 0; i < perDrain; i++ {
			sw.InjectPacket(pkt)
		}
		eng.Run()
	})

	// nf/ddos on one switch (no peers: the sketch update without the
	// multicast), and the bare count-min sketch.
	c1, err := swishmem.New(swishmem.Config{Switches: 1, Seed: 1})
	if err != nil {
		return err
	}
	if _, err := c1.DeployDDoS("d", swishmem.DDoSOptions{Threshold: 1 << 40, Window: 50 * time.Millisecond}); err != nil {
		return err
	}
	probe("nf.ddos_packet", perDrain, func() {
		for i := 0; i < perDrain; i++ {
			c1.Switch(0).InjectPacket(pkt)
		}
		c1.RunFor(10 * time.Microsecond)
	})
	cm, err := sketch.NewCountMin(1024, 3)
	if err != nil {
		return err
	}
	probe("sketch.update", 1, func() { key++; cm.Add(key, 1) })
	h := stats.NewHistogram()
	probe("stats.hist_observe", 1, func() { key++; h.Observe(float64(key & 0xfffff)) })

	// host: a dependent xorshift chain nothing can overlap or elide.
	r.setLayer("host.nproc", float64(runtime.NumCPU()))
	r.setLayer("host.spin_ns", hostSpin())

	if err := probeGenerator(r, cfg); err != nil {
		return err
	}
	if err := probeLoopback(r, cfg); err != nil {
		return err
	}
	speedup, err := simShardsSpeedup(cfg.seed, cfg.scale(20))
	if err != nil {
		return err
	}
	r.setLayer("sim.shards2_speedup", speedup)
	return probeBurst(r, cfg)
}

// spinSink keeps the calibration loop's result alive.
var spinSink uint64

// hostSpin times one xorshift step, a dependent chain the CPU can neither
// overlap nor elide: the calibration figure that says how fast this host's
// core is (ROADMAP 1(c)).
func hostSpin() float64 {
	x := uint64(88172645463325252)
	ns, _ := timeOp(1<<20, func() { x ^= x << 13; x ^= x >> 7; x ^= x << 17 })
	spinSink = x
	return ns
}

// probeGenerator prices the harness itself: the closed loop against a
// closure that completes at once on an otherwise idle fabric. Its allocations
// per op must be ~0, or go.allocs_per_op would measure the generator.
func probeGenerator(r *result, cfg config) error {
	f, err := live.NewFabric(live.FabricConfig{Addr: 9, Seed: 1})
	if err != nil {
		return err
	}
	f.Start()
	defer f.Stop()
	c := &cluster{members: []*livecluster.Member{{Fabric: f}}}
	l := newLoop(c, []op{{kind: opNop}}, sroWindow, 1)
	n := uint64(cfg.scale(200_000))
	l.warm(n / 10)
	m0, t0, ops0 := readMem(), time.Now(), l.completed
	l.warm(n)
	wall, mem := time.Since(t0), readMem().since(m0)
	ops := float64(l.completed - ops0)
	l.drain(5 * time.Second)
	r.setLayer("gen.post_ns", float64(wall)/ops)
	r.setLayer("gen.allocs_per_op", float64(mem.mallocs)/ops)
	return nil
}

// probeLoopback blasts heartbeats from one fabric to another over loopback
// UDP, credit-gated so the kernel queue never overflows: the transport's
// per-message cost with no protocol above it.
func probeLoopback(r *result, cfg config) error {
	const blast, credits = 128, 4
	sender, err := live.NewFabric(live.FabricConfig{Addr: 1, Seed: 1, Coalesce: true, EgressShards: 2})
	if err != nil {
		return err
	}
	defer sender.Stop()
	recv, err := live.NewFabric(live.FabricConfig{Addr: 2, Seed: 2})
	if err != nil {
		return err
	}
	defer recv.Stop()
	got, credit := 0, make(chan struct{}, credits)
	recv.SetSystemHandler(func(netem.Addr, wire.Msg) bool {
		if got++; got%blast == 0 {
			credit <- struct{}{}
		}
		return true
	})
	sender.Network().Attach(1, func(netem.Addr, any, int) {})
	sender.AddRemote(2, recv.AddrPort())
	recv.AddRemote(1, sender.AddrPort())
	var free []*wire.Heartbeat
	freeFn := func(h *wire.Heartbeat) { free = append(free, h) }
	seq := uint64(0)
	send := func() {
		for i := 0; i < blast; i++ {
			var hb *wire.Heartbeat
			if n := len(free); n > 0 {
				hb, free = free[n-1], free[:n-1]
			} else {
				hb = &wire.Heartbeat{}
				hb.EnablePool(freeFn)
			}
			seq++
			hb.From, hb.Seq = 1, seq
			hb.Ref()
			sender.Network().Send(1, 2, hb, hb.Size())
			hb.Release()
		}
	}
	recv.Start()
	sender.Start()
	for i := 0; i < credits; i++ {
		credit <- struct{}{}
	}
	blasts := func(n int) error {
		for i := 0; i < n; i++ {
			select {
			case <-credit:
			case <-time.After(5 * time.Second):
				return fmt.Errorf("loopback probe: a blast was lost")
			}
			sender.Post(send)
		}
		return nil
	}
	n := cfg.scale(4000)
	if err := blasts(n / 10); err != nil {
		return err
	}
	m0, t0, rx0 := readMem(), time.Now(), recv.Node().Stats().Received
	if err := blasts(n); err != nil {
		return err
	}
	wall, mem := time.Since(t0), readMem().since(m0)
	rx := recv.Node().Stats().Received - rx0
	r.setLayer("live.loopback_msg_ns", float64(wall)/float64(n*blast))
	r.setLayer("live.loopback_allocs_per_datagram", float64(mem.mallocs)/float64(max(rx, 1)))
	return nil
}

// obsSnapshot times one full metrics-registry snapshot of a member, taken
// the only way it may be on a running member: under Fabric.Call.
func obsSnapshot(c *cluster) time.Duration {
	m := c.members[0]
	reg := obs.NewRegistry()
	m.RegisterMetrics(reg, "node=0")
	t0 := time.Now()
	var samples int
	m.Fabric.Call(func() { samples = len(reg.Snapshot().Samples) })
	d := time.Since(t0)
	if samples == 0 {
		return 0
	}
	return d
}
