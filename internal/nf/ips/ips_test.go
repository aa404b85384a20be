package ips

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
	ipss []*IPS
	out  [][]*packet.Packet
}

func newRig(t testing.TB, seed int64, n int) *rig {
	t.Helper()
	eng := sim.NewEngine(seed)
	nw := netem.New(eng, netem.LinkProfile{Latency: 10_000})
	r := &rig{eng: eng, out: make([][]*packet.Packet, n)}
	var members []uint16
	for i := 0; i < n; i++ {
		sw := pisa.New(eng, nw, pisa.Config{Addr: netem.Addr(i + 1), PipelinePPS: 1e9})
		in := core.NewInstance(sw)
		s, err := New(in, Config{Reg: 1, Capacity: 4096})
		if err != nil {
			t.Fatal(err)
		}
		i := i
		s.Egress = func(p *packet.Packet) { r.out[i] = append(r.out[i], p) }
		s.Install()
		r.ipss = append(r.ipss, s)
		members = append(members, uint16(i+1))
	}
	cc := wire.ChainConfig{Epoch: 1, Members: members}
	for _, s := range r.ipss {
		s.Register().Node().SetChain(cc)
	}
	return r
}

func payloadPkt(payload []byte) *packet.Packet {
	return packet.NewBuilder().
		Src(packet.Addr4(172, 16, 0, 1)).Dst(packet.Addr4(10, 0, 0, 1)).
		TCP(1234, 80, packet.FlagACK).Payload(payload).Build()
}

func TestCleanTrafficForwarded(t *testing.T) {
	r := newRig(t, 1, 2)
	r.ipss[0].Switch().InjectPacket(payloadPkt([]byte("completely harmless data")))
	r.eng.RunFor(10 * time.Millisecond)
	if len(r.out[0]) != 1 {
		t.Fatal("clean packet dropped")
	}
	if r.ipss[0].Stats.Matched.Value() != 0 {
		t.Fatal("false match")
	}
}

func TestSignatureMatchDrops(t *testing.T) {
	r := newRig(t, 2, 2)
	done := false
	r.ipss[0].AddSignature([]byte("EVILWORM"), func(ok bool) { done = ok })
	r.eng.RunFor(50 * time.Millisecond)
	if !done {
		t.Fatal("signature install did not commit")
	}
	// The signature appears mid-payload: window scan must find it.
	r.ipss[0].Switch().InjectPacket(payloadPkt([]byte("xxEVILWORMyy")))
	r.eng.RunFor(10 * time.Millisecond)
	if len(r.out[0]) != 0 {
		t.Fatal("malicious packet forwarded")
	}
	if r.ipss[0].Stats.Matched.Value() != 1 {
		t.Fatal("match not counted")
	}
}

func TestSignaturePropagatesToAllSwitches(t *testing.T) {
	r := newRig(t, 3, 3)
	r.ipss[0].AddSignature([]byte("BADBYTES"), nil)
	r.eng.RunFor(50 * time.Millisecond)
	for i := range r.ipss {
		r.ipss[i].Switch().InjectPacket(payloadPkt([]byte("..BADBYTES..")))
	}
	r.eng.RunFor(10 * time.Millisecond)
	for i := range r.out {
		if len(r.out[i]) != 0 {
			t.Fatalf("switch %d did not enforce the replicated signature", i+1)
		}
	}
}

func TestRemoveSignature(t *testing.T) {
	r := newRig(t, 4, 2)
	r.ipss[0].AddSignature([]byte("OLDRULE!"), nil)
	r.eng.RunFor(50 * time.Millisecond)
	r.ipss[0].RemoveSignature([]byte("OLDRULE!"), nil)
	r.eng.RunFor(50 * time.Millisecond)
	r.ipss[1].Switch().InjectPacket(payloadPkt([]byte("xxOLDRULE!xx")))
	r.eng.RunFor(10 * time.Millisecond)
	if len(r.out[1]) != 1 {
		t.Fatal("retired signature still enforced")
	}
}

func TestEROReadsAreLocalDuringUpdate(t *testing.T) {
	// The §4.1 trade: during signature propagation, other switches keep
	// processing from their local copy with no read forwarding.
	r := newRig(t, 5, 3)
	r.ipss[0].AddSignature([]byte("NEWSIG!!"), nil)
	// Immediately scan at another switch: must not block or forward reads.
	r.ipss[2].Switch().InjectPacket(payloadPkt([]byte("NEWSIG!! payload")))
	r.eng.RunFor(50 * time.Millisecond)
	if r.ipss[2].Register().Node().Counters().ReadsForwarded.Value() != 0 {
		t.Fatal("ERO register forwarded reads")
	}
}

func TestShortPayloadNotScanned(t *testing.T) {
	r := newRig(t, 6, 1)
	r.ipss[0].AddSignature([]byte("ABCDEFGH"), nil)
	r.eng.RunFor(50 * time.Millisecond)
	// 7-byte payload: no full window, must pass.
	r.ipss[0].Switch().InjectPacket(payloadPkt([]byte("ABCDEFG")))
	r.eng.RunFor(10 * time.Millisecond)
	if len(r.out[0]) != 1 {
		t.Fatal("short payload dropped")
	}
}

func TestMaxWindowsBoundsScan(t *testing.T) {
	eng := sim.NewEngine(7)
	nw := netem.New(eng, netem.LinkProfile{Latency: 10_000})
	in := core.NewInstance(pisa.New(eng, nw, pisa.Config{Addr: 1, PipelinePPS: 1e9}))
	s, err := New(in, Config{Reg: 1, Capacity: 128})
	if err != nil {
		t.Fatal(err)
	}
	var out []*packet.Packet
	s.Egress = func(p *packet.Packet) { out = append(out, p) }
	s.Install()
	s.Register().Node().SetChain(wire.ChainConfig{Epoch: 1, Members: []uint16{1}})
	s.AddSignature([]byte("DEEPSIG!"), nil)
	eng.RunFor(50 * time.Millisecond)
	// Signature starts just past the scan budget's last window.
	payload := append(make([]byte, maxWindows), []byte("DEEPSIG!")...)
	s.Switch().InjectPacket(payloadPkt(payload))
	eng.RunFor(10 * time.Millisecond)
	if len(out) != 1 {
		t.Fatal("scan exceeded its window budget")
	}
}

func TestConfigValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	in := core.NewInstance(pisa.New(eng, nw, pisa.Config{Addr: 1}))
	if _, err := New(in, Config{Reg: 1, Capacity: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestSignatureKeyPadding(t *testing.T) {
	if SignatureKey([]byte("AB")) != SignatureKey([]byte{'A', 'B', 0, 0, 0, 0, 0, 0}) {
		t.Fatal("short patterns should be zero-padded")
	}
	if SignatureKey([]byte("ABCDEFGH")) == SignatureKey([]byte("ABCDEFGI")) {
		t.Fatal("distinct patterns collided")
	}
}
