package packet

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTCPRoundTrip(t *testing.T) {
	p := NewBuilder().
		Src(Addr4(10, 0, 0, 1)).Dst(Addr4(192, 168, 1, 2)).
		TCP(12345, 80, FlagSYN|FlagACK).
		Payload([]byte("hello")).
		Build()
	p.IP.ID = 777
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != p.Len() {
		t.Fatalf("len mismatch: raw %d, Len() %d", len(raw), p.Len())
	}
	q, err := Decode(raw, true)
	if err != nil {
		t.Fatal(err)
	}
	if q.IP.Src != p.IP.Src || q.IP.Dst != p.IP.Dst || q.IP.ID != 777 {
		t.Fatalf("IP mismatch: %+v", q.IP)
	}
	if q.TCP == nil || q.TCP.SrcPort != 12345 || q.TCP.DstPort != 80 {
		t.Fatalf("TCP mismatch: %+v", q.TCP)
	}
	if !q.TCP.Flags.Has(FlagSYN) || !q.TCP.Flags.Has(FlagACK) || q.TCP.Flags.Has(FlagFIN) {
		t.Fatalf("flags = %v", q.TCP.Flags)
	}
	if !bytes.Equal(q.Payload, []byte("hello")) {
		t.Fatalf("payload = %q", q.Payload)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	p := NewBuilder().
		Src(Addr4(1, 2, 3, 4)).Dst(Addr4(5, 6, 7, 8)).
		UDP(5000, 53).
		Payload([]byte{0xde, 0xad}).
		Build()
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(raw, true)
	if err != nil {
		t.Fatal(err)
	}
	if q.UDP == nil || q.UDP.SrcPort != 5000 || q.UDP.DstPort != 53 {
		t.Fatalf("UDP = %+v", q.UDP)
	}
	if q.UDP.Length != udpLen+2 {
		t.Fatalf("UDP length = %d", q.UDP.Length)
	}
	if !bytes.Equal(q.Payload, []byte{0xde, 0xad}) {
		t.Fatalf("payload = %v", q.Payload)
	}
}

func TestIPChecksumValid(t *testing.T) {
	p := NewBuilder().Src(Addr4(10, 0, 0, 1)).Dst(Addr4(10, 0, 0, 2)).UDP(1, 2).Build()
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	// A header summed over its own checksum field folds to zero.
	ipRaw := raw[ethernetLen:][:ipv4Len]
	if checksum(ipRaw, 0) != 0 {
		t.Fatal("IP checksum invalid")
	}
	// Corrupt a byte: checksum must fail.
	ipRaw[15] ^= 0xff
	if checksum(ipRaw, 0) == 0 {
		t.Fatal("corrupted header passed checksum")
	}
}

func TestDecodeWithoutEthernet(t *testing.T) {
	p := NewBuilder().Src(Addr4(1, 1, 1, 1)).Dst(Addr4(2, 2, 2, 2)).TCP(1, 2, FlagACK).Build()
	p.Eth = nil
	raw, err := p.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(raw, false)
	if err != nil {
		t.Fatal(err)
	}
	if q.Eth != nil {
		t.Fatal("unexpected ethernet layer")
	}
	if q.TCP == nil {
		t.Fatal("missing TCP layer")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name    string
		data    []byte
		withEth bool
	}{
		{"empty eth", nil, true},
		{"empty ip", nil, false},
		{"short ip", make([]byte, 10), false},
		{"bad version", append([]byte{0x65}, make([]byte, 19)...), false},
		{"bad ihl", append([]byte{0x41}, make([]byte, 19)...), false},
	}
	for _, c := range cases {
		if _, err := Decode(c.data, c.withEth); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Truncated TCP.
	p := NewBuilder().Src(Addr4(1, 1, 1, 1)).Dst(Addr4(2, 2, 2, 2)).TCP(1, 2, 0).Build()
	p.Eth = nil
	raw, _ := p.Serialize()
	if _, err := Decode(raw[:ipv4Len+5], false); err == nil {
		t.Error("truncated TCP: expected error")
	}
}

func TestNonIPv4EtherType(t *testing.T) {
	raw := make([]byte, ethernetLen+4)
	raw[12], raw[13] = 0x08, 0x06 // ARP
	raw[14] = 0xaa
	p, err := Decode(raw, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.IP != nil {
		t.Fatal("ARP decoded as IP")
	}
	if p.Eth.EtherType != EtherTypeARP {
		t.Fatalf("ethertype = %#x", p.Eth.EtherType)
	}
	if len(p.Payload) != 4 || p.Payload[0] != 0xaa {
		t.Fatalf("payload = %v", p.Payload)
	}
}

func TestFlowKey(t *testing.T) {
	p := NewBuilder().Src(Addr4(10, 0, 0, 1)).Dst(Addr4(10, 0, 0, 2)).TCP(1111, 80, FlagSYN).Build()
	k, ok := p.Flow()
	if !ok {
		t.Fatal("Flow failed")
	}
	if k.SrcPort != 1111 || k.DstPort != 80 || k.Proto != ProtoTCP {
		t.Fatalf("key = %+v", k)
	}
	r := k.Reverse()
	if r.Src != k.Dst || r.SrcPort != k.DstPort || r.Reverse() != k {
		t.Fatalf("reverse = %+v", r)
	}
	var noIP Packet
	if _, ok := noIP.Flow(); ok {
		t.Fatal("Flow on non-IP packet should fail")
	}
}

func TestClone(t *testing.T) {
	p := NewBuilder().Src(Addr4(1, 2, 3, 4)).Dst(Addr4(4, 3, 2, 1)).TCP(5, 6, FlagACK).Payload([]byte{1, 2, 3}).Build()
	q := p.Clone()
	q.IP.TTL = 1
	q.TCP.SrcPort = 99
	q.Payload[0] = 9
	if p.IP.TTL == 1 || p.TCP.SrcPort == 99 || p.Payload[0] == 9 {
		t.Fatal("clone aliases original")
	}
	if !reflect.DeepEqual(p.Clone().Eth, p.Eth) {
		t.Fatal("eth clone mismatch")
	}
}

func TestForFlow(t *testing.T) {
	k := FlowKey{Src: Addr4(1, 1, 1, 1), Dst: Addr4(2, 2, 2, 2), SrcPort: 10, DstPort: 20, Proto: ProtoUDP}
	p := ForFlow(k, 0, 100)
	got, ok := p.Flow()
	if !ok || got != k {
		t.Fatalf("flow = %+v, want %+v", got, k)
	}
	if len(p.Payload) != 100 {
		t.Fatalf("payload len = %d", len(p.Payload))
	}
	k.Proto = ProtoTCP
	p = ForFlow(k, FlagSYN, 0)
	if p.TCP == nil || !p.TCP.Flags.Has(FlagSYN) {
		t.Fatal("TCP flow packet wrong")
	}
}

var packetSink *Packet

// TestForFlowAllocBudget: a packet and its headers are one allocation, and
// a payload of up to len(zeroPayload) bytes shares the zero array; only a
// longer one allocates.
func TestForFlowAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		proto   IPProto
		payload int
		want    float64
	}{{ProtoTCP, 64, 1}, {ProtoTCP, 0, 1}, {ProtoUDP, 64, 1}, {ProtoUDP, 0, 1},
		{ProtoUDP, len(zeroPayload), 1}, {ProtoUDP, len(zeroPayload) + 1, 2}} {
		k := FlowKey{Src: Addr4(10, 0, 0, 1), Dst: Addr4(10, 0, 0, 2), SrcPort: 1024, DstPort: 80, Proto: tc.proto}
		if n := testing.AllocsPerRun(200, func() { packetSink = ForFlow(k, FlagSYN, tc.payload) }); n != tc.want {
			t.Errorf("%v with a %d B payload: %.1f allocs, want %.0f", tc.proto, tc.payload, n, tc.want)
		}
	}
}

func TestAddrConversions(t *testing.T) {
	a := Addr4(192, 168, 0, 1)
	v := U32Addr(a)
	if v != 0xc0a80001 {
		t.Fatalf("U32Addr = %#x", v)
	}
	if AddrU32(v) != a {
		t.Fatalf("round trip failed: %v", AddrU32(v))
	}
}

func TestSerializeErrors(t *testing.T) {
	// IPv6 address in IPv4 header.
	p := &Packet{IP: &IPv4{Src: netip.MustParseAddr("::1"), Dst: Addr4(1, 1, 1, 1)}}
	if _, err := p.Serialize(); err == nil {
		t.Error("expected error for non-v4 address")
	}
	// Both TCP and UDP.
	p2 := NewBuilder().Src(Addr4(1, 1, 1, 1)).Dst(Addr4(2, 2, 2, 2)).TCP(1, 2, 0).Build()
	p2.UDP = &UDP{}
	if _, err := p2.Serialize(); err == nil {
		t.Error("expected error for both TCP and UDP")
	}
	// Oversized payload.
	p3 := NewBuilder().Src(Addr4(1, 1, 1, 1)).Dst(Addr4(2, 2, 2, 2)).UDP(1, 2).Payload(make([]byte, 70000)).Build()
	if _, err := p3.Serialize(); err == nil {
		t.Error("expected error for oversized packet")
	}
}

func TestFlagsString(t *testing.T) {
	if s := (FlagSYN | FlagACK).String(); s != "SYN|ACK" {
		t.Fatalf("flags string = %q", s)
	}
	if s := TCPFlags(0).String(); s != "-" {
		t.Fatalf("empty flags string = %q", s)
	}
}

func TestStringers(t *testing.T) {
	p := NewBuilder().Src(Addr4(1, 1, 1, 1)).Dst(Addr4(2, 2, 2, 2)).TCP(1, 2, FlagSYN).Build()
	if s := p.String(); s == "" || s == "packet" {
		t.Fatalf("String = %q", s)
	}
	if (&Packet{}).String() != "non-IP packet" {
		t.Fatal("non-IP stringer")
	}
	if ProtoTCP.String() != "TCP" || ProtoUDP.String() != "UDP" || ProtoICMP.String() != "ICMP" {
		t.Fatal("proto stringer")
	}
	if IPProto(99).String() != "proto(99)" {
		t.Fatal("unknown proto stringer")
	}
	m := MAC{0xaa, 0xbb, 0xcc, 0, 1, 2}
	if m.String() != "aa:bb:cc:00:01:02" {
		t.Fatalf("mac = %s", m)
	}
}

// Property: serialize→decode is the identity on the header fields we set,
// for arbitrary addresses, ports, flags and payloads.
func TestRoundTripProperty(t *testing.T) {
	f := func(srcV, dstV uint32, sp, dp uint16, fl uint8, useUDP bool, payload []byte) bool {
		k := FlowKey{Src: AddrU32(srcV), Dst: AddrU32(dstV), SrcPort: sp, DstPort: dp}
		var p *Packet
		if useUDP {
			k.Proto = ProtoUDP
			p = ForFlow(k, 0, 0)
		} else {
			k.Proto = ProtoTCP
			p = ForFlow(k, TCPFlags(fl&0x3f), 0)
		}
		p.Payload = payload
		raw, err := p.Serialize()
		if err != nil {
			return false
		}
		q, err := Decode(raw, true)
		if err != nil {
			return false
		}
		k2, ok := q.Flow()
		if !ok || k2 != k {
			return false
		}
		if !useUDP && q.TCP.Flags != TCPFlags(fl&0x3f) {
			return false
		}
		return bytes.Equal(q.Payload, payload) || (len(payload) == 0 && len(q.Payload) == 0)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSerialize(b *testing.B) {
	p := NewBuilder().Src(Addr4(10, 0, 0, 1)).Dst(Addr4(10, 0, 0, 2)).TCP(1234, 80, FlagACK).Payload(make([]byte, 64)).Build()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Serialize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	p := NewBuilder().Src(Addr4(10, 0, 0, 1)).Dst(Addr4(10, 0, 0, 2)).TCP(1234, 80, FlagACK).Payload(make([]byte, 64)).Build()
	raw, _ := p.Serialize()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw, true); err != nil {
			b.Fatal(err)
		}
	}
}
