package packet

// Pool recycles Packets together with their header structs and payload
// backing arrays, so steady-state packet construction and pipeline
// processing allocate nothing. A Pool belongs to one simulation engine
// (one goroutine); it needs no locking.
//
// Ownership contract:
//
//   - A packet obtained from a Pool has a single owner at any moment. The
//     owner ends the packet's life by calling Recycle (directly or through
//     the switch pipeline, which recycles dropped packets — see
//     internal/pisa).
//   - Once recycled, the packet and everything it references (headers,
//     payload bytes) may be reincarnated by the next Get/ForFlow/Clone.
//     Holding a reference past Recycle is a bug.
//   - Recycle on a packet that did not come from a pool is a no-op, so
//     lifetime-ending call sites can recycle unconditionally.
//   - Do not send pooled packets across links with DupRate > 0: duplicate
//     delivery hands the same packet to two owners.
type Pool struct {
	free []*Packet
}

// Get returns a blank pooled packet: no layers, empty payload, zero Meta.
func (pl *Pool) Get() *Packet {
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.inPool = false
	} else {
		p = &Packet{pool: pl}
	}
	return p
}

// Free reports how many packets are parked in the pool (for tests).
func (pl *Pool) Free() int { return len(pl.free) }

// Recycle returns the packet to its owning pool. It is a no-op for nil,
// non-pooled, or already-recycled packets, so every lifetime-ending path
// can call it unconditionally.
func (p *Packet) Recycle() {
	if p == nil || p.pool == nil || p.inPool {
		return
	}
	p.inPool = true
	p.Eth, p.IP, p.TCP, p.UDP = nil, nil, nil, nil
	// Keep the payload backing for reuse; a caller-substituted Payload
	// slice is simply dropped.
	p.Payload = nil
	p.Meta = Metadata{}
	p.pool.free = append(p.pool.free, p)
}

// grow returns the packet's payload backing resized to n zeroed bytes.
func (p *Packet) growPayload(n int) []byte {
	if cap(p.payload) < n {
		p.payload = make([]byte, n)
		return p.payload
	}
	b := p.payload[:n]
	clear(b)
	return b
}

// ForFlow is the pooled equivalent of the package-level ForFlow: a minimal
// packet for a flow key, with headers and payload drawn from the pool.
func (pl *Pool) ForFlow(k FlowKey, flags TCPFlags, payloadLen int) *Packet {
	p := pl.Get()
	p.eth = Ethernet{EtherType: EtherTypeIPv4}
	p.Eth = &p.eth
	p.ip = IPv4{TTL: 64, Src: k.Src, Dst: k.Dst}
	p.IP = &p.ip
	switch k.Proto {
	case ProtoUDP:
		p.ip.Protocol = ProtoUDP
		p.udp = UDP{SrcPort: k.SrcPort, DstPort: k.DstPort}
		p.UDP = &p.udp
	default:
		p.ip.Protocol = ProtoTCP
		p.tcp = TCP{SrcPort: k.SrcPort, DstPort: k.DstPort, Flags: flags, Window: 65535}
		p.TCP = &p.tcp
	}
	if payloadLen > 0 {
		p.Payload = p.growPayload(payloadLen)
	}
	return p
}
