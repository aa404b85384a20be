package pisa

import (
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/packet"
	"swishmem/internal/sim"
	"swishmem/internal/wire"
)

func testRig(seed int64, cfgs ...Config) (*sim.Engine, *netem.Network, []*Switch) {
	eng := sim.NewEngine(seed)
	nw := netem.New(eng, netem.LinkProfile{Latency: 1000})
	sws := make([]*Switch, len(cfgs))
	for i, c := range cfgs {
		sws[i] = New(eng, nw, c)
	}
	return eng, nw, sws
}

func mkPkt() *packet.Packet {
	return packet.NewBuilder().Src(packet.Addr4(1, 1, 1, 1)).Dst(packet.Addr4(2, 2, 2, 2)).
		TCP(1000, 80, packet.FlagSYN).Build()
}

func TestDefaults(t *testing.T) {
	_, _, sws := testRig(1, Config{Addr: 1})
	cfg := sws[0].cfg
	if cfg.MemoryBytes != 10<<20 {
		t.Fatalf("memory default = %d", cfg.MemoryBytes)
	}
	if cfg.PipelinePPS != 5e9 {
		t.Fatalf("pps default = %v", cfg.PipelinePPS)
	}
	if sws[0].Addr() != 1 {
		t.Fatal("addr")
	}
}

func TestPipelineForward(t *testing.T) {
	eng, _, sws := testRig(1, Config{Addr: 1})
	sw := sws[0]
	var out []*packet.Packet
	sw.SetProgram(func(s *Switch, p *packet.Packet) Verdict { return Forward })
	sw.SetEgress(func(p *packet.Packet) { out = append(out, p) })
	sw.InjectPacket(mkPkt())
	eng.Run()
	if len(out) != 1 {
		t.Fatalf("forwarded %d", len(out))
	}
	if sw.Stats.Processed.Value() != 1 || sw.Stats.Forwarded.Value() != 1 {
		t.Fatalf("stats: %+v", sw.Stats)
	}
}

func TestPipelineLatencyAndRate(t *testing.T) {
	// 1e9 pps -> 1ns slot; latency 400ns default.
	eng, _, sws := testRig(1, Config{Addr: 1, PipelinePPS: 1e9})
	sw := sws[0]
	var times []sim.Time
	sw.SetProgram(func(s *Switch, p *packet.Packet) Verdict { return Forward })
	sw.SetEgress(func(p *packet.Packet) { times = append(times, eng.Now()) })
	for i := 0; i < 3; i++ {
		sw.InjectPacket(mkPkt())
	}
	eng.Run()
	if len(times) != 3 {
		t.Fatalf("egress count %d", len(times))
	}
	if times[0] != sim.Time(400*time.Nanosecond) {
		t.Fatalf("first egress at %v", times[0])
	}
	// Subsequent packets spaced by 1ns slots.
	if times[1]-times[0] != 1 || times[2]-times[1] != 1 {
		t.Fatalf("spacing: %v", times)
	}
}

func TestQueueLimitTailDrop(t *testing.T) {
	eng, _, sws := testRig(1, Config{Addr: 1, PipelinePPS: 1e6, QueueLimit: 8})
	sw := sws[0]
	sw.SetProgram(func(s *Switch, p *packet.Packet) Verdict { return Drop })
	accepted := 0
	for i := 0; i < 100; i++ {
		if sw.InjectPacket(mkPkt()) {
			accepted++
		}
	}
	eng.Run()
	if accepted > 9 { // queue of 8 plus the in-service slot boundary
		t.Fatalf("accepted %d with queue limit 8", accepted)
	}
	if sw.Stats.QueueDrops.Value() != uint64(100-accepted) {
		t.Fatalf("queue drops = %d", sw.Stats.QueueDrops.Value())
	}
}

func TestRecirculation(t *testing.T) {
	eng, _, sws := testRig(1, Config{Addr: 1})
	sw := sws[0]
	sw.SetProgram(func(s *Switch, p *packet.Packet) Verdict {
		if p.Meta.Recirculated < 3 {
			return Recirculate
		}
		return Forward
	})
	done := false
	sw.SetEgress(func(p *packet.Packet) {
		done = true
		if p.Meta.Recirculated != 3 {
			t.Errorf("recirculated %d times", p.Meta.Recirculated)
		}
	})
	sw.InjectPacket(mkPkt())
	eng.Run()
	if !done {
		t.Fatal("packet never egressed")
	}
	if sw.Stats.Recirculated.Value() != 3 {
		t.Fatalf("recirc stat = %d", sw.Stats.Recirculated.Value())
	}
}

func TestPuntToControlPlane(t *testing.T) {
	eng, _, sws := testRig(1, Config{Addr: 1, CtrlLatency: time.Millisecond})
	sw := sws[0]
	sw.SetProgram(func(s *Switch, p *packet.Packet) Verdict { return ToControlPlane })
	var handledAt sim.Time
	sw.SetCtrlPacketHandler(func(p *packet.Packet) { handledAt = eng.Now() })
	sw.InjectPacket(mkPkt())
	eng.Run()
	if handledAt < sim.Time(time.Millisecond) {
		t.Fatalf("control handler ran at %v, before ctrl latency", handledAt)
	}
	if sw.Stats.Punted.Value() != 1 || sw.Stats.CtrlOps.Value() != 1 {
		t.Fatalf("stats: punted=%d ctrl=%d", sw.Stats.Punted.Value(), sw.Stats.CtrlOps.Value())
	}
}

func TestControlPlaneServiceRate(t *testing.T) {
	// 1000 ops/s -> 1ms per op; 10 ops take >= 10ms minus latency pipelining.
	eng, _, sws := testRig(1, Config{Addr: 1, CtrlOpsPerSec: 1000, CtrlLatency: 1})
	sw := sws[0]
	var last sim.Time
	for i := 0; i < 10; i++ {
		sw.CtrlDo(func() { last = eng.Now() })
	}
	eng.Run()
	if last < sim.Time(9*time.Millisecond) {
		t.Fatalf("10 ctrl ops finished at %v; service rate not enforced", last)
	}
}

// The smallest timing the model accepts (what a live member runs its switch
// at: the process is the pipeline and the control plane, so no modelled delay
// is replayed on the wall clock) makes whatever is submitted at one instant
// due at once: control-plane ops, the ops those ops submit, and injected
// messages all run inside one RunUntil a microsecond wide, each class in
// submission order. At the defaults the first control-plane op is 50µs away.
func TestSmallestTimingRunsSubmittedWorkAtOnceInOrder(t *testing.T) {
	eng, _, sws := testRig(1, Config{Addr: 1, PipelineLatency: 1, CtrlLatency: 1, CtrlOpsPerSec: 1e9})
	sw := sws[0]
	eng.RunUntil(sim.Time(3 * time.Millisecond)) // a clock that has been running, as a pump's has
	const n = 64
	var ctrl, msgs []int
	sw.SetMsgHandler(func(_ *Switch, _ netem.Addr, m wire.Msg) {
		msgs = append(msgs, int(m.(*wire.Heartbeat).Seq))
	})
	for i := 0; i < n; i++ {
		sw.CtrlDo(func() {
			ctrl = append(ctrl, i)
			sw.CtrlDo(func() { ctrl = append(ctrl, n+i) })
		})
		sw.injectMsg(2, &wire.Heartbeat{From: 2, Seq: uint64(i)})
	}
	eng.RunUntil(eng.Now().Add(time.Microsecond))
	if len(ctrl) != 2*n || len(msgs) != n {
		t.Fatalf("ran %d of %d control-plane ops and %d of %d messages within 1µs", len(ctrl), 2*n, len(msgs), n)
	}
	for i, got := range ctrl {
		if got != i {
			t.Fatalf("control-plane op %d ran in position %d", got, i)
		}
	}
	for i, got := range msgs {
		if got != i {
			t.Fatalf("message %d was handled in position %d", got, i)
		}
	}
}

func TestSendBetweenSwitches(t *testing.T) {
	eng, _, sws := testRig(1, Config{Addr: 1}, Config{Addr: 2})
	var got []wire.Msg
	sws[1].SetMsgHandler(func(s *Switch, from netem.Addr, m wire.Msg) {
		if from != 1 {
			t.Errorf("from = %d", from)
		}
		got = append(got, m)
	})
	sws[0].Send(2, &wire.Heartbeat{From: 1, Seq: 7})
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("got %d msgs", len(got))
	}
	if got[0].(*wire.Heartbeat).Seq != 7 {
		t.Fatalf("msg = %+v", got[0])
	}
	if sws[1].Stats.MsgsHandled.Value() != 1 {
		t.Fatal("MsgsHandled")
	}
}

func TestMsgWithoutDataHandlerGoesToCtrl(t *testing.T) {
	eng, _, sws := testRig(1, Config{Addr: 1}, Config{Addr: 2})
	var ctrlGot wire.Msg
	sws[1].SetCtrlMsgHandler(func(from netem.Addr, m wire.Msg) { ctrlGot = m })
	sws[0].Send(2, &wire.Heartbeat{From: 1, Seq: 9})
	eng.Run()
	if ctrlGot == nil {
		t.Fatal("control-plane handler not invoked")
	}
}

func TestPacketSendBetweenSwitches(t *testing.T) {
	eng, nw, sws := testRig(1, Config{Addr: 1}, Config{Addr: 2})
	n := 0
	sws[1].SetProgram(func(s *Switch, p *packet.Packet) Verdict { n++; return Drop })
	pkt := mkPkt()
	nw.Send(1, 2, pkt, pkt.Len())
	eng.Run()
	if n != 1 {
		t.Fatalf("pipeline ran %d times", n)
	}
}

func TestMulticast(t *testing.T) {
	eng, _, sws := testRig(1, Config{Addr: 1}, Config{Addr: 2}, Config{Addr: 3})
	counts := map[netem.Addr]int{}
	for _, sw := range sws[1:] {
		sw := sw
		sw.SetMsgHandler(func(s *Switch, from netem.Addr, m wire.Msg) { counts[s.Addr()]++ })
	}
	sws[0].Multicast([]netem.Addr{1, 2, 3}, &wire.Heartbeat{From: 1})
	eng.Run()
	if counts[2] != 1 || counts[3] != 1 || counts[1] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestPacketGen: a generator runs once per period and stops itself, leaving
// nothing queued, once its switch fails.
func TestPacketGen(t *testing.T) {
	eng, _, sws := testRig(1, Config{Addr: 1})
	n := 0
	sws[0].PacketGen(time.Millisecond, func() { n++ })
	// The handler runs one pipeline latency after each tick, so allow a
	// little slack past the 10th tick.
	eng.RunFor(10*time.Millisecond + time.Microsecond)
	if n != 10 {
		t.Fatalf("packet gen ran %d times", n)
	}
	sws[0].Fail()
	eng.RunFor(10 * time.Millisecond)
	if n != 10 {
		t.Fatal("packet gen ran after its switch failed")
	}
	if p := eng.Pending(); p != 0 {
		t.Fatalf("%d events pending after the generator's switch failed, want 0", p)
	}
}

func TestFailStop(t *testing.T) {
	eng, nw, sws := testRig(1, Config{Addr: 1}, Config{Addr: 2})
	sw := sws[0]
	ran := false
	sw.SetProgram(func(s *Switch, p *packet.Packet) Verdict { ran = true; return Drop })
	sw.Fail()
	if !sw.Failed() {
		t.Fatal("Failed()")
	}
	if sw.InjectPacket(mkPkt()) {
		t.Fatal("failed switch accepted packet")
	}
	sw.CtrlDo(func() { ran = true })
	sw.Send(2, &wire.Heartbeat{})
	sw.PacketGen(time.Millisecond, func() { ran = true })
	eng.RunFor(5 * time.Millisecond)
	if ran {
		t.Fatal("failed switch executed work")
	}
	// Messages sent to a failed switch are dropped: it is down in the network.
	sws[1].Send(1, &wire.Heartbeat{})
	eng.Run()
	if st := nw.Stats(2, 1); st.MsgsDropped != 1 || st.MsgsDeliv != 0 {
		t.Fatalf("link to failed switch: %+v, want 1 dropped", st)
	}
}

func TestFailDuringFlight(t *testing.T) {
	// Packet accepted, switch fails before the pipeline event fires: no processing.
	eng, _, sws := testRig(1, Config{Addr: 1})
	sw := sws[0]
	ran := false
	sw.SetProgram(func(s *Switch, p *packet.Packet) Verdict { ran = true; return Drop })
	sw.InjectPacket(mkPkt())
	sw.Fail()
	eng.Run()
	if ran {
		t.Fatal("pipeline ran after fail-stop")
	}
}

func TestMemoryBudget(t *testing.T) {
	_, _, sws := testRig(1, Config{Addr: 1, MemoryBytes: 1000})
	sw := sws[0]
	r, err := sw.NewRegisterArray("a", 100, 8) // 800 bytes
	if err != nil {
		t.Fatal(err)
	}
	if sw.MemoryUsed() != 800 || sw.MemoryFree() != 200 {
		t.Fatalf("used/free = %d/%d", sw.MemoryUsed(), sw.MemoryFree())
	}
	if _, err := sw.NewRegisterArray("b", 100, 8); err == nil {
		t.Fatal("over-budget allocation succeeded")
	}
	r.Free()
	if sw.MemoryUsed() != 0 {
		t.Fatalf("used after free = %d", sw.MemoryUsed())
	}
	if _, err := sw.NewRegisterArray("c", 100, 8); err != nil {
		t.Fatalf("allocation after free failed: %v", err)
	}
}

func TestRegisterArrayOps(t *testing.T) {
	_, _, sws := testRig(1, Config{Addr: 1})
	r, err := sws[0].NewRegisterArray("r", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	r.U64Set(2, 0xdeadbeefcafe)
	if r.U64Get(2) != 0xdeadbeefcafe {
		t.Fatalf("U64 = %#x", r.U64Get(2))
	}
	if v := r.View(2); len(v) != 8 || v[2] != 0xde {
		t.Fatalf("View = %x, want the big-endian entry", v)
	}
	// A write through one entry's view leaves its neighbours alone.
	r.View(1)[7] = 1
	if r.U64Get(1) != 1 || r.U64Get(2) != 0xdeadbeefcafe || r.U64Get(0) != 0 {
		t.Fatal("View write reached another entry")
	}
	if r.Bytes() != 32 {
		t.Fatal("geometry")
	}
}

func TestRegisterArrayPanics(t *testing.T) {
	_, _, sws := testRig(1, Config{Addr: 1})
	r, _ := sws[0].NewRegisterArray("r", 4, 8)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("oob", func() { r.View(4) })
	mustPanic("neg", func() { r.View(-1) })
	r.Free()
	mustPanic("freed", func() { r.View(0) })
	if _, err := sws[0].NewRegisterArray("bad", 0, 8); err == nil {
		t.Error("zero entries accepted")
	}
}

func TestHashIndexStableAndInRange(t *testing.T) {
	for _, size := range []int{1, 7, 1024} {
		for k := uint64(0); k < 1000; k++ {
			i := HashIndex(k, size)
			if i < 0 || i >= size {
				t.Fatalf("HashIndex(%d,%d) = %d", k, size, i)
			}
			if HashIndex(k, size) != i {
				t.Fatal("HashIndex not stable")
			}
		}
	}
	// Spread check: 1000 keys into 1024 buckets should hit many buckets.
	hit := map[int]bool{}
	for k := uint64(0); k < 1000; k++ {
		hit[HashIndex(k, 1024)] = true
	}
	if len(hit) < 400 {
		t.Fatalf("hash spread too poor: %d distinct buckets", len(hit))
	}
}

func TestAtomicityAcrossPackets(t *testing.T) {
	// §2: a packet's multiple writes are atomic — the next packet must see
	// either all or none. The model guarantees this by serializing pipeline
	// executions; this test asserts the invariant via a two-register write.
	eng, _, sws := testRig(1, Config{Addr: 1, PipelinePPS: 1e9})
	sw := sws[0]
	ra, _ := sw.NewRegisterArray("a", 1, 8)
	rb, _ := sw.NewRegisterArray("b", 1, 8)
	violations := 0
	sw.SetProgram(func(s *Switch, p *packet.Packet) Verdict {
		if ra.U64Get(0) != rb.U64Get(0) {
			violations++
		}
		ra.U64Set(0, ra.U64Get(0)+1)
		rb.U64Set(0, rb.U64Get(0)+1)
		return Drop
	})
	for i := 0; i < 1000; i++ {
		sw.InjectPacket(mkPkt())
	}
	eng.Run()
	if violations != 0 {
		t.Fatalf("%d atomicity violations", violations)
	}
	if ra.U64Get(0) != 1000 {
		t.Fatalf("count = %d", ra.U64Get(0))
	}
}

func BenchmarkPipeline(b *testing.B) {
	eng, _, sws := testRig(1, Config{Addr: 1})
	sw := sws[0]
	r, _ := sw.NewRegisterArray("r", 1024, 8)
	sw.SetProgram(func(s *Switch, p *packet.Packet) Verdict {
		i := int(p.Meta.ArrivalSeq) & 1023
		r.U64Set(i, r.U64Get(i)+1)
		return Drop
	})
	pkt := mkPkt()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sw.InjectPacket(pkt)
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
}

func TestPuntWithoutCtrlHandlerIsSafe(t *testing.T) {
	eng, _, sws := testRig(1, Config{Addr: 1})
	sws[0].SetProgram(func(s *Switch, p *packet.Packet) Verdict { return ToControlPlane })
	sws[0].InjectPacket(mkPkt())
	eng.Run() // no handler installed: must not panic
	if sws[0].Stats.Punted.Value() != 1 {
		t.Fatal("punt not counted")
	}
}

func TestInjectEgress(t *testing.T) {
	eng, _, sws := testRig(1, Config{Addr: 1})
	var out []*packet.Packet
	sws[0].SetEgress(func(p *packet.Packet) { out = append(out, p) })
	if !sws[0].InjectEgress(mkPkt()) {
		t.Fatal("InjectEgress refused")
	}
	eng.Run()
	if len(out) != 1 {
		t.Fatal("packet not emitted")
	}
	if sws[0].Stats.Forwarded.Value() != 1 {
		t.Fatal("forwarded not counted")
	}
	sws[0].Fail()
	if sws[0].InjectEgress(mkPkt()) {
		t.Fatal("failed switch accepted InjectEgress")
	}
}

func TestPipelineSteadyStateZeroAllocs(t *testing.T) {
	eng, _, sws := testRig(1, Config{Addr: 1})
	sw := sws[0]
	k := packet.FlowKey{Src: packet.Addr4(1, 1, 1, 1), Dst: packet.Addr4(2, 2, 2, 2),
		SrcPort: 9, DstPort: 80, Proto: packet.ProtoTCP}
	sw.SetProgram(func(s *Switch, p *packet.Packet) Verdict { return Drop })
	// One pre-built packet injected again and again, as a trace replay does.
	pkt := packet.ForFlow(k, 0, 64)
	// Warm the task and event pools.
	for i := 0; i < 64; i++ {
		sw.InjectPacket(pkt)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		sw.InjectPacket(pkt)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("pipeline processes a packet with %v allocs per run, want 0", allocs)
	}
}
