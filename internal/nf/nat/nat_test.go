package nat

import (
	"testing"
	"time"

	"swishmem/internal/core"
	"swishmem/internal/netem"
	"swishmem/internal/packet"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/wire"
)

type rig struct {
	eng  *sim.Engine
	net  *netem.Network
	nats []*NAT
	out  [][]*packet.Packet
}

func newRig(t testing.TB, seed int64, n int) *rig {
	t.Helper()
	eng := sim.NewEngine(seed)
	nw := netem.New(eng, netem.LinkProfile{Latency: 10_000})
	r := &rig{eng: eng, net: nw, out: make([][]*packet.Packet, n)}
	var members []uint16
	ext := packet.Addr4(203, 0, 113, 1)
	for i := 0; i < n; i++ {
		sw := pisa.New(eng, nw, pisa.Config{Addr: netem.Addr(i + 1), PipelinePPS: 1e9})
		in := core.NewInstance(sw)
		lo := uint16(10000 + 1000*i)
		nat, err := New(in, Config{
			Reg: 1, Capacity: 4096, ExternalIP: ext,
			PortLo: lo, PortHi: lo + 999,
		})
		if err != nil {
			t.Fatal(err)
		}
		i := i
		nat.Egress = func(p *packet.Packet) { r.out[i] = append(r.out[i], p) }
		nat.Install()
		r.nats = append(r.nats, nat)
		members = append(members, uint16(i+1))
	}
	cc := wire.ChainConfig{Epoch: 1, Members: members}
	for _, nat := range r.nats {
		nat.Register().Node().SetChain(cc)
	}
	return r
}

func clientFlow(cSrc byte, sport uint16) packet.FlowKey {
	return packet.FlowKey{
		Src: packet.Addr4(10, 0, 0, cSrc), Dst: packet.Addr4(198, 51, 100, 7),
		SrcPort: sport, DstPort: 80, Proto: packet.ProtoTCP,
	}
}

func clientPkt(cSrc byte, sport uint16, flags packet.TCPFlags) *packet.Packet {
	return packet.ForFlow(clientFlow(cSrc, sport), flags, 0)
}

func TestOutboundTranslationCreated(t *testing.T) {
	r := newRig(t, 1, 3)
	r.nats[0].Switch().InjectPacket(clientPkt(1, 5555, packet.FlagSYN))
	r.eng.RunFor(50 * time.Millisecond)
	if len(r.out[0]) != 1 {
		t.Fatalf("egressed %d packets", len(r.out[0]))
	}
	p := r.out[0][0]
	if p.IP.Src != packet.Addr4(203, 0, 113, 1) {
		t.Fatalf("src not translated: %v", p.IP.Src)
	}
	if p.TCP.SrcPort < 10000 || p.TCP.SrcPort > 10999 {
		t.Fatalf("port %d outside switch 1's slice", p.TCP.SrcPort)
	}
	if r.nats[0].Stats.NewConns.Value() != 1 {
		t.Fatal("new connection not counted")
	}
}

func TestSubsequentPacketsFastPath(t *testing.T) {
	r := newRig(t, 2, 3)
	r.nats[0].Switch().InjectPacket(clientPkt(1, 5555, packet.FlagSYN))
	r.eng.RunFor(50 * time.Millisecond)
	held := r.nats[0].Stats.HeldPackets.Value()
	// Follow-up packets translate in the data plane, no control plane.
	for i := 0; i < 10; i++ {
		r.nats[0].Switch().InjectPacket(clientPkt(1, 5555, packet.FlagACK))
	}
	r.eng.RunFor(10 * time.Millisecond)
	if len(r.out[0]) != 11 {
		t.Fatalf("egressed %d packets", len(r.out[0]))
	}
	if r.nats[0].Stats.HeldPackets.Value() != held {
		t.Fatal("fast-path packet went to control plane")
	}
	// All use the same translation.
	port := r.out[0][0].TCP.SrcPort
	for _, p := range r.out[0] {
		if p.TCP.SrcPort != port {
			t.Fatal("translation changed mid-connection")
		}
	}
}

func TestCrossSwitchConsistency(t *testing.T) {
	// The paper's multi-path scenario: a flow's later packets arrive at a
	// DIFFERENT switch and must see the same translation.
	r := newRig(t, 3, 3)
	r.nats[0].Switch().InjectPacket(clientPkt(1, 6000, packet.FlagSYN))
	r.eng.RunFor(50 * time.Millisecond)
	port := r.out[0][0].TCP.SrcPort

	r.nats[2].Switch().InjectPacket(clientPkt(1, 6000, packet.FlagACK))
	r.eng.RunFor(10 * time.Millisecond)
	if len(r.out[2]) != 1 {
		t.Fatalf("switch 3 egressed %d", len(r.out[2]))
	}
	if got := r.out[2][0].TCP.SrcPort; got != port {
		t.Fatalf("switch 3 used port %d, switch 1 used %d", got, port)
	}
	if r.nats[2].Stats.NewConns.Value() != 0 {
		t.Fatal("switch 3 created a duplicate translation")
	}
}

func TestInboundReverseTranslation(t *testing.T) {
	r := newRig(t, 4, 2)
	r.nats[0].Switch().InjectPacket(clientPkt(9, 7000, packet.FlagSYN))
	r.eng.RunFor(50 * time.Millisecond)
	extPort := r.out[0][0].TCP.SrcPort

	// Server reply arrives at the OTHER switch.
	reply := packet.NewBuilder().
		Src(packet.Addr4(198, 51, 100, 7)).Dst(packet.Addr4(203, 0, 113, 1)).
		TCP(80, extPort, packet.FlagACK).Build()
	r.nats[1].Switch().InjectPacket(reply)
	r.eng.RunFor(10 * time.Millisecond)
	if len(r.out[1]) != 1 {
		t.Fatalf("reply not forwarded (%d)", len(r.out[1]))
	}
	p := r.out[1][0]
	if p.IP.Dst != packet.Addr4(10, 0, 0, 9) || p.TCP.DstPort != 7000 {
		t.Fatalf("reverse translation wrong: %v:%d", p.IP.Dst, p.TCP.DstPort)
	}
}

func TestInboundWithoutStateDropped(t *testing.T) {
	r := newRig(t, 5, 2)
	stray := packet.NewBuilder().
		Src(packet.Addr4(198, 51, 100, 7)).Dst(packet.Addr4(203, 0, 113, 1)).
		TCP(80, 12345, packet.FlagSYN).Build()
	r.nats[0].Switch().InjectPacket(stray)
	r.eng.RunFor(10 * time.Millisecond)
	if len(r.out[0]) != 0 {
		t.Fatal("stray inbound packet forwarded")
	}
	if r.nats[0].Stats.DropNoState.Value() != 1 {
		t.Fatal("drop not counted")
	}
}

func TestPortPoolExhaustion(t *testing.T) {
	eng := sim.NewEngine(6)
	nw := netem.New(eng, netem.LinkProfile{Latency: 10_000})
	sw := pisa.New(eng, nw, pisa.Config{Addr: 1, PipelinePPS: 1e9})
	in := core.NewInstance(sw)
	nat, err := New(in, Config{Reg: 1, Capacity: 64, ExternalIP: packet.Addr4(1, 1, 1, 1),
		PortLo: 10000, PortHi: 10001}) // only 2 ports
	if err != nil {
		t.Fatal(err)
	}
	nat.Egress = func(*packet.Packet) {}
	nat.Install()
	nat.Register().Node().SetChain(wire.ChainConfig{Epoch: 1, Members: []uint16{1}})
	for i := 0; i < 4; i++ {
		sw.InjectPacket(sw.PacketPool().ForFlow(clientFlow(1, uint16(5000+i)), packet.FlagSYN, 0))
	}
	eng.RunFor(50 * time.Millisecond)
	if nat.Stats.DropNoPorts.Value() != 2 {
		t.Fatalf("pool-exhaustion drops = %d, want 2", nat.Stats.DropNoPorts.Value())
	}
	if got := sw.PacketPool().Free(); got != 2 {
		t.Fatalf("%d of the 2 dropped packets went back to the packet pool", got)
	}
	if nat.FreePorts() != 0 {
		t.Fatal("pool should be empty")
	}
}

// A translation whose mapping writes cannot commit (no chain is ever
// installed, so both writers run out of retries) must leave nothing behind:
// the port is back in the pool, every held packet of the connection is back
// in the packet pool and counted, and the connection can be tried again.
func TestFailedInstallReturnsPortAndPackets(t *testing.T) {
	eng := sim.NewEngine(11)
	nw := netem.New(eng, netem.LinkProfile{Latency: 10_000})
	sw := pisa.New(eng, nw, pisa.Config{Addr: 1, PipelinePPS: 1e9})
	nat, err := New(core.NewInstance(sw), Config{Reg: 1, Capacity: 64, ExternalIP: packet.Addr4(1, 1, 1, 1),
		PortLo: 10000, PortHi: 10003})
	if err != nil {
		t.Fatal(err)
	}
	var out int
	nat.Egress = func(*packet.Packet) { out++ }
	nat.Install()
	const held = 3 // the SYN and two packets that queue behind its installation
	for i := 0; i < held; i++ {
		sw.InjectPacket(sw.PacketPool().ForFlow(clientFlow(1, 5555), packet.FlagSYN, 0))
	}
	// 100 retries a millisecond apart (chain.Config defaults) and the write
	// gives up.
	eng.RunFor(300 * time.Millisecond)
	if out != 0 {
		t.Fatalf("%d packets left a NAT that installed nothing", out)
	}
	if got := nat.Stats.WriteFails.Value(); got != 2 {
		t.Fatalf("WriteFails = %d, want 2 (forward and reverse mapping)", got)
	}
	if got := nat.FreePorts(); got != 4 {
		t.Fatalf("FreePorts = %d, want the whole pool of 4 back", got)
	}
	if got := nat.Stats.DropWriteFail.Value(); got != held {
		t.Fatalf("DropWriteFail = %d, want %d", got, held)
	}
	if got := sw.PacketPool().Free(); got != held {
		t.Fatalf("%d of %d held packets went back to the packet pool", got, held)
	}
	if len(nat.inflight) != 0 {
		t.Fatalf("%d connections still marked in flight", len(nat.inflight))
	}
}

func TestDisjointPortSlices(t *testing.T) {
	// Translations created at different switches must use their own slices.
	r := newRig(t, 7, 2)
	r.nats[0].Switch().InjectPacket(clientPkt(1, 8000, packet.FlagSYN))
	r.nats[1].Switch().InjectPacket(clientPkt(2, 8001, packet.FlagSYN))
	r.eng.RunFor(50 * time.Millisecond)
	p0, p1 := r.out[0][0].TCP.SrcPort, r.out[1][0].TCP.SrcPort
	if p0 < 10000 || p0 > 10999 {
		t.Fatalf("switch 1 port %d", p0)
	}
	if p1 < 11000 || p1 > 11999 {
		t.Fatalf("switch 2 port %d", p1)
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	in := core.NewInstance(pisa.New(eng, nw, pisa.Config{Addr: 1}))
	if _, err := New(in, Config{Reg: 1, Capacity: 8, PortLo: 2, PortHi: 1,
		ExternalIP: packet.Addr4(1, 1, 1, 1)}); err == nil {
		t.Fatal("inverted port range accepted")
	}
	in2 := core.NewInstance(pisa.New(eng, nw, pisa.Config{Addr: 2}))
	if _, err := New(in2, Config{Reg: 1, Capacity: 8}); err == nil {
		t.Fatal("missing external IP accepted")
	}
}

func TestNonTCPDropped(t *testing.T) {
	r := newRig(t, 8, 1)
	udp := packet.NewBuilder().Src(packet.Addr4(10, 0, 0, 1)).Dst(packet.Addr4(8, 8, 8, 8)).UDP(53, 53).Build()
	r.nats[0].Switch().InjectPacket(udp)
	r.eng.RunFor(10 * time.Millisecond)
	if len(r.out[0]) != 0 {
		t.Fatal("non-TCP packet forwarded")
	}
}

func TestDuplicateSYNsSingleTranslation(t *testing.T) {
	// Retransmitted SYNs while the first translation write is in flight
	// must not allocate a second port (in-flight dedup, §6.1 buffering).
	r := newRig(t, 9, 2)
	for i := 0; i < 4; i++ {
		r.nats[0].Switch().InjectPacket(clientPkt(3, 9000, packet.FlagSYN))
	}
	r.eng.RunFor(100 * time.Millisecond)
	if got := r.nats[0].Stats.NewConns.Value(); got != 1 {
		t.Fatalf("translations = %d, want 1", got)
	}
	if len(r.out[0]) != 4 {
		t.Fatalf("released %d of 4 buffered packets", len(r.out[0]))
	}
	port := r.out[0][0].TCP.SrcPort
	for _, p := range r.out[0] {
		if p.TCP.SrcPort != port {
			t.Fatal("buffered packets used different translations")
		}
	}
}
