package packet

import "net/netip"

// Builder provides a fluent constructor for test and workload packets.
// The zero value is not usable; start with NewBuilder.
type Builder struct{ f *frame }

// frame is a packet and every header it can carry, allocated as one object:
// the packet's layer pointers point into it.
type frame struct {
	p   Packet
	eth Ethernet
	ip  IPv4
	tcp TCP
	udp UDP
}

// NewBuilder starts a packet with an Ethernet+IPv4 skeleton using sensible
// defaults (TTL 64).
func NewBuilder() *Builder {
	f := &frame{eth: Ethernet{EtherType: EtherTypeIPv4}, ip: IPv4{TTL: 64}}
	f.p.Eth, f.p.IP = &f.eth, &f.ip
	return &Builder{f: f}
}

// Src sets the IPv4 source address.
func (b *Builder) Src(a netip.Addr) *Builder { b.f.ip.Src = a; return b }

// Dst sets the IPv4 destination address.
func (b *Builder) Dst(a netip.Addr) *Builder { b.f.ip.Dst = a; return b }

// TCP attaches a TCP header with the given ports and flags.
func (b *Builder) TCP(srcPort, dstPort uint16, flags TCPFlags) *Builder {
	b.f.ip.Protocol = ProtoTCP
	b.f.tcp = TCP{SrcPort: srcPort, DstPort: dstPort, Flags: flags, Window: 65535}
	b.f.p.TCP, b.f.p.UDP = &b.f.tcp, nil
	return b
}

// UDP attaches a UDP header with the given ports.
func (b *Builder) UDP(srcPort, dstPort uint16) *Builder {
	b.f.ip.Protocol = ProtoUDP
	b.f.udp = UDP{SrcPort: srcPort, DstPort: dstPort}
	b.f.p.UDP, b.f.p.TCP = &b.f.udp, nil
	return b
}

// Payload sets the packet payload.
func (b *Builder) Payload(data []byte) *Builder { b.f.p.Payload = data; return b }

// Build returns the packet.
func (b *Builder) Build() *Packet { return &b.f.p }

// zeroPayload backs every ForFlow payload up to its size (512 B covers the
// generators' 64 B and 512 B payloads). No code writes a packet's payload,
// so the packets share these zeros instead of each allocating its own.
var zeroPayload [512]byte

// ForFlow builds a minimal packet for a flow key — the workhorse of the
// workload generators. Its payload is payloadLen zero bytes, shared with
// other packets up to len(zeroPayload) and capacity-clamped, so it must be
// read, never written in place.
func ForFlow(k FlowKey, flags TCPFlags, payloadLen int) *Packet {
	b := NewBuilder().Src(k.Src).Dst(k.Dst)
	switch k.Proto {
	case ProtoUDP:
		b.UDP(k.SrcPort, k.DstPort)
	default:
		b.TCP(k.SrcPort, k.DstPort, flags)
	}
	switch {
	case payloadLen > len(zeroPayload):
		b.Payload(make([]byte, payloadLen))
	case payloadLen > 0:
		b.Payload(zeroPayload[:payloadLen:payloadLen])
	}
	return b.Build()
}

// Addr4 is a convenience constructor for IPv4 addresses from octets.
func Addr4(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

// AddrU32 converts a uint32 to an IPv4 address (big-endian), handy for
// synthesizing address ranges in workloads.
func AddrU32(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// U32Addr converts an IPv4 address back to its uint32 form.
func U32Addr(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
