// Package packet models the network packets processed by the emulated PISA
// switches. It follows the gopacket layering idiom: a packet is decoded into
// a stack of typed layers (Ethernet, IPv4, TCP/UDP, payload), each of which
// can also serialize itself back to bytes. Only the protocols the SwiShmem
// NFs need are implemented, but they are implemented completely: real header
// layouts, real checksums, so the live UDP harness can carry these packets
// verbatim.
package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// Supported EtherTypes.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
)

// IPProto identifies the transport protocol of an IPv4 packet.
type IPProto uint8

// Supported IP protocol numbers.
const (
	ProtoICMP IPProto = 1
	ProtoTCP  IPProto = 6
	ProtoUDP  IPProto = 17
)

func (p IPProto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Ethernet is the L2 header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType EtherType
}

const ethernetLen = 14

// IPv4 is the L3 header (without options).
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol IPProto
	Checksum uint16 // filled on serialize
	Src, Dst netip.Addr
}

const ipv4Len = 20

// TCPFlags is the TCP flag byte.
type TCPFlags uint8

// TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

func (f TCPFlags) Has(bit TCPFlags) bool { return f&bit != 0 }

func (f TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"}, {FlagRST, "RST"}, {FlagPSH, "PSH"}, {FlagURG, "URG"}}
	s := ""
	for _, n := range names {
		if f.Has(n.bit) {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	if s == "" {
		s = "-"
	}
	return s
}

// TCP is the L4 TCP header (without options).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            TCPFlags
	Window           uint16
	Checksum         uint16
}

const tcpLen = 20

// UDP is the L4 UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

const udpLen = 8

// Packet is a fully decoded packet. Nil layer pointers mean the layer is
// absent. Payload holds whatever follows the last decoded header.
type Packet struct {
	Eth     *Ethernet
	IP      *IPv4
	TCP     *TCP
	UDP     *UDP
	Payload []byte

	// Meta carries per-packet metadata attached by the switch pipeline
	// (ingress port, recirculation count, etc.). It is not serialized.
	Meta Metadata
}

// Metadata is pipeline metadata carried alongside a packet inside a switch.
type Metadata struct {
	IngressPort  int
	EgressPort   int
	Recirculated int
	// ArrivalSeq is a monotone per-switch arrival number, used by audits.
	ArrivalSeq uint64
}

// FlowKey is the canonical 5-tuple used as NF state key.
type FlowKey struct {
	Src, Dst netip.Addr
	SrcPort  uint16
	DstPort  uint16
	Proto    IPProto
}

func (k FlowKey) String() string {
	return fmt.Sprintf("%s %s:%d->%s:%d", k.Proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// Reverse returns the key of the opposite direction of the same flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Flow extracts the 5-tuple from a decoded packet. ok is false if the packet
// has no IPv4 layer.
func (p *Packet) Flow() (k FlowKey, ok bool) {
	if p.IP == nil {
		return k, false
	}
	k.Src, k.Dst, k.Proto = p.IP.Src, p.IP.Dst, p.IP.Protocol
	switch {
	case p.TCP != nil:
		k.SrcPort, k.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		k.SrcPort, k.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	}
	return k, true
}

// Len returns the serialized length in bytes.
func (p *Packet) Len() int {
	n := 0
	if p.Eth != nil {
		n += ethernetLen
	}
	if p.IP != nil {
		n += ipv4Len
	}
	if p.TCP != nil {
		n += tcpLen
	}
	if p.UDP != nil {
		n += udpLen
	}
	return n + len(p.Payload)
}

func (p *Packet) String() string {
	if p.IP == nil {
		return "non-IP packet"
	}
	if k, ok := p.Flow(); ok {
		extra := ""
		if p.TCP != nil {
			extra = " [" + p.TCP.Flags.String() + "]"
		}
		return k.String() + extra
	}
	return "packet"
}

// Serialize encodes the packet into wire bytes, computing the IPv4 total
// length, the IPv4 header checksum, and the transport checksums.
func (p *Packet) Serialize() ([]byte, error) {
	buf := make([]byte, 0, p.Len())
	// Compute transport first for the IP TotalLen.
	var l4 []byte
	switch {
	case p.TCP != nil && p.UDP != nil:
		return nil, fmt.Errorf("packet: both TCP and UDP present")
	case p.TCP != nil:
		l4 = make([]byte, tcpLen)
		t := p.TCP
		binary.BigEndian.PutUint16(l4[0:], t.SrcPort)
		binary.BigEndian.PutUint16(l4[2:], t.DstPort)
		binary.BigEndian.PutUint32(l4[4:], t.Seq)
		binary.BigEndian.PutUint32(l4[8:], t.Ack)
		l4[12] = 5 << 4 // data offset: 5 words
		l4[13] = byte(t.Flags)
		binary.BigEndian.PutUint16(l4[14:], t.Window)
		// checksum at [16:18] computed below
	case p.UDP != nil:
		l4 = make([]byte, udpLen)
		u := p.UDP
		binary.BigEndian.PutUint16(l4[0:], u.SrcPort)
		binary.BigEndian.PutUint16(l4[2:], u.DstPort)
		binary.BigEndian.PutUint16(l4[4:], uint16(udpLen+len(p.Payload)))
	}

	var ipHdr []byte
	if p.IP != nil {
		ip := p.IP
		if !ip.Src.Is4() || !ip.Dst.Is4() {
			return nil, fmt.Errorf("packet: non-IPv4 address in IPv4 header (%v -> %v)", ip.Src, ip.Dst)
		}
		ipHdr = make([]byte, ipv4Len)
		ipHdr[0] = 0x45 // version 4, IHL 5
		ipHdr[1] = ip.TOS
		total := ipv4Len + len(l4) + len(p.Payload)
		if total > 0xffff {
			return nil, fmt.Errorf("packet: total length %d exceeds IPv4 maximum", total)
		}
		binary.BigEndian.PutUint16(ipHdr[2:], uint16(total))
		binary.BigEndian.PutUint16(ipHdr[4:], ip.ID)
		binary.BigEndian.PutUint16(ipHdr[6:], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
		ipHdr[8] = ip.TTL
		ipHdr[9] = byte(ip.Protocol)
		src, dst := ip.Src.As4(), ip.Dst.As4()
		copy(ipHdr[12:16], src[:])
		copy(ipHdr[16:20], dst[:])
		binary.BigEndian.PutUint16(ipHdr[10:], checksum(ipHdr, 0))

		// Transport checksum over pseudo-header + l4 + payload.
		if len(l4) > 0 {
			ph := pseudoHeader(src, dst, byte(ip.Protocol), len(l4)+len(p.Payload))
			sum := partialSum(ph, 0)
			sum = partialSum(l4, sum)
			sum = partialSum(p.Payload, sum)
			ck := foldSum(sum)
			switch {
			case p.TCP != nil:
				binary.BigEndian.PutUint16(l4[16:], ck)
			case p.UDP != nil:
				if ck == 0 {
					ck = 0xffff // UDP: 0 means "no checksum"
				}
				binary.BigEndian.PutUint16(l4[6:], ck)
			}
		}
	}

	if p.Eth != nil {
		e := make([]byte, ethernetLen)
		copy(e[0:6], p.Eth.Dst[:])
		copy(e[6:12], p.Eth.Src[:])
		binary.BigEndian.PutUint16(e[12:], uint16(p.Eth.EtherType))
		buf = append(buf, e...)
	}
	buf = append(buf, ipHdr...)
	buf = append(buf, l4...)
	buf = append(buf, p.Payload...)
	return buf, nil
}

// Decode parses wire bytes into a Packet. The first layer is Ethernet if
// withEth is true, IPv4 otherwise.
func Decode(data []byte, withEth bool) (*Packet, error) {
	p := &Packet{}
	rest := data
	if withEth {
		if len(rest) < ethernetLen {
			return nil, fmt.Errorf("packet: truncated ethernet header (%d bytes)", len(rest))
		}
		e := &Ethernet{}
		copy(e.Dst[:], rest[0:6])
		copy(e.Src[:], rest[6:12])
		e.EtherType = EtherType(binary.BigEndian.Uint16(rest[12:14]))
		p.Eth = e
		rest = rest[ethernetLen:]
		if e.EtherType != EtherTypeIPv4 {
			p.Payload = append([]byte(nil), rest...)
			return p, nil
		}
	}
	if len(rest) < ipv4Len {
		return nil, fmt.Errorf("packet: truncated IPv4 header (%d bytes)", len(rest))
	}
	if v := rest[0] >> 4; v != 4 {
		return nil, fmt.Errorf("packet: IP version %d, want 4", v)
	}
	ihl := int(rest[0]&0x0f) * 4
	if ihl < ipv4Len || len(rest) < ihl {
		return nil, fmt.Errorf("packet: bad IHL %d", ihl)
	}
	ip := &IPv4{
		TOS:      rest[1],
		TotalLen: binary.BigEndian.Uint16(rest[2:4]),
		ID:       binary.BigEndian.Uint16(rest[4:6]),
		TTL:      rest[8],
		Protocol: IPProto(rest[9]),
	}
	fo := binary.BigEndian.Uint16(rest[6:8])
	ip.Flags = uint8(fo >> 13)
	ip.FragOff = fo & 0x1fff
	ip.Src = netip.AddrFrom4([4]byte(rest[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(rest[16:20]))
	if int(ip.TotalLen) > len(rest) {
		return nil, fmt.Errorf("packet: total length %d exceeds available %d", ip.TotalLen, len(rest))
	}
	if ip.TotalLen > 0 {
		rest = rest[:ip.TotalLen]
	}
	p.IP = ip
	rest = rest[ihl:]

	switch ip.Protocol {
	case ProtoTCP:
		if len(rest) < tcpLen {
			return nil, fmt.Errorf("packet: truncated TCP header (%d bytes)", len(rest))
		}
		t := &TCP{
			SrcPort:  binary.BigEndian.Uint16(rest[0:2]),
			DstPort:  binary.BigEndian.Uint16(rest[2:4]),
			Seq:      binary.BigEndian.Uint32(rest[4:8]),
			Ack:      binary.BigEndian.Uint32(rest[8:12]),
			Flags:    TCPFlags(rest[13]),
			Window:   binary.BigEndian.Uint16(rest[14:16]),
			Checksum: binary.BigEndian.Uint16(rest[16:18]),
		}
		off := int(rest[12]>>4) * 4
		if off < tcpLen || len(rest) < off {
			return nil, fmt.Errorf("packet: bad TCP data offset %d", off)
		}
		p.TCP = t
		rest = rest[off:]
	case ProtoUDP:
		if len(rest) < udpLen {
			return nil, fmt.Errorf("packet: truncated UDP header (%d bytes)", len(rest))
		}
		u := &UDP{
			SrcPort:  binary.BigEndian.Uint16(rest[0:2]),
			DstPort:  binary.BigEndian.Uint16(rest[2:4]),
			Length:   binary.BigEndian.Uint16(rest[4:6]),
			Checksum: binary.BigEndian.Uint16(rest[6:8]),
		}
		p.UDP = u
		rest = rest[udpLen:]
	}
	p.Payload = append([]byte(nil), rest...)
	return p, nil
}

// pseudoHeader builds the IPv4 pseudo-header used by TCP/UDP checksums.
func pseudoHeader(src, dst [4]byte, proto byte, l4len int) []byte {
	ph := make([]byte, 12)
	copy(ph[0:4], src[:])
	copy(ph[4:8], dst[:])
	ph[9] = proto
	binary.BigEndian.PutUint16(ph[10:], uint16(l4len))
	return ph
}

func partialSum(b []byte, sum uint32) uint32 {
	n := len(b)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if n%2 == 1 {
		sum += uint32(b[n-1]) << 8
	}
	return sum
}

func foldSum(sum uint32) uint16 {
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// checksum computes the 16-bit ones-complement checksum of b with an
// initial partial sum.
func checksum(b []byte, initial uint32) uint16 { return foldSum(partialSum(b, initial)) }
