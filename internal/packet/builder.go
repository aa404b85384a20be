package packet

import "net/netip"

// Builder provides a fluent constructor for test and workload packets.
// The zero value is not usable; start with NewBuilder.
type Builder struct{ p *Packet }

// NewBuilder starts a packet with an Ethernet+IPv4 skeleton using sensible
// defaults (TTL 64).
func NewBuilder() *Builder {
	return &Builder{p: &Packet{
		Eth: &Ethernet{EtherType: EtherTypeIPv4},
		IP:  &IPv4{TTL: 64},
	}}
}

// Src sets the IPv4 source address.
func (b *Builder) Src(a netip.Addr) *Builder { b.p.IP.Src = a; return b }

// Dst sets the IPv4 destination address.
func (b *Builder) Dst(a netip.Addr) *Builder { b.p.IP.Dst = a; return b }

// TCP attaches a TCP header with the given ports and flags.
func (b *Builder) TCP(srcPort, dstPort uint16, flags TCPFlags) *Builder {
	b.p.IP.Protocol = ProtoTCP
	b.p.TCP = &TCP{SrcPort: srcPort, DstPort: dstPort, Flags: flags, Window: 65535}
	b.p.UDP = nil
	return b
}

// UDP attaches a UDP header with the given ports.
func (b *Builder) UDP(srcPort, dstPort uint16) *Builder {
	b.p.IP.Protocol = ProtoUDP
	b.p.UDP = &UDP{SrcPort: srcPort, DstPort: dstPort}
	b.p.TCP = nil
	return b
}

// Payload sets the packet payload.
func (b *Builder) Payload(data []byte) *Builder { b.p.Payload = data; return b }

// Build returns the packet.
func (b *Builder) Build() *Packet { return b.p }

// ForFlow builds a minimal packet for a flow key — the workhorse of the
// workload generators.
func ForFlow(k FlowKey, flags TCPFlags, payloadLen int) *Packet {
	b := NewBuilder().Src(k.Src).Dst(k.Dst)
	switch k.Proto {
	case ProtoUDP:
		b.UDP(k.SrcPort, k.DstPort)
	default:
		b.TCP(k.SrcPort, k.DstPort, flags)
	}
	if payloadLen > 0 {
		b.Payload(make([]byte, payloadLen))
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
