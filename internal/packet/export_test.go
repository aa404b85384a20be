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
