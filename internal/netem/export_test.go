package netem

// Lossy returns profile p with the given loss rate.
func (p LinkProfile) Lossy(rate float64) LinkProfile { p.LossRate = rate; return p }

// EachLink invokes fn for every directed link the network knows about, in
// ascending (from, to) order so output built from it is deterministic.
// This closes the Stats/Totals asymmetry: Totals returns the global
// aggregate, but per-link stats used to be reachable only by asking for a
// (from, to) pair the caller already knew existed — exporters iterate here
// without any topology knowledge.
func (n *Network) EachLink(fn func(from, to Addr, s LinkStats)) {
	n.links.Each(func(from Addr, row *AddrTable[*link]) {
		row.Each(func(to Addr, l *link) { fn(from, to, l.stats) })
	})
}
