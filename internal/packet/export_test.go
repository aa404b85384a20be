package packet

// Clone deep-copies the packet (used when a switch mirrors or multicasts).
func (p *Packet) Clone() *Packet {
	q := &Packet{Meta: p.Meta}
	if p.Eth != nil {
		e := *p.Eth
		q.Eth = &e
	}
	if p.IP != nil {
		ip := *p.IP
		q.IP = &ip
	}
	if p.TCP != nil {
		t := *p.TCP
		q.TCP = &t
	}
	if p.UDP != nil {
		u := *p.UDP
		q.UDP = &u
	}
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return q
}

// Clone deep-copies src into a pooled packet (the pooled equivalent of
// Packet.Clone, used by egress mirroring).
func (pl *Pool) Clone(src *Packet) *Packet {
	p := pl.Get()
	p.Meta = src.Meta
	if src.Eth != nil {
		p.eth = *src.Eth
		p.Eth = &p.eth
	}
	if src.IP != nil {
		p.ip = *src.IP
		p.IP = &p.ip
	}
	if src.TCP != nil {
		p.tcp = *src.TCP
		p.TCP = &p.tcp
	}
	if src.UDP != nil {
		p.udp = *src.UDP
		p.UDP = &p.udp
	}
	if src.Payload != nil {
		b := p.growPayload(len(src.Payload))
		copy(b, src.Payload)
		p.Payload = b
	}
	return p
}

// Pooled reports whether the packet came from a pool (for tests/audits).
func (p *Packet) Pooled() bool { return p.pool != nil }
