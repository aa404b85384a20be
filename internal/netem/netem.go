// Package netem emulates the unreliable inter-switch network that SwiShmem
// protocols run over. It is built on the deterministic simulator: messages
// between attached nodes experience configurable latency, jitter,
// bandwidth-limited serialization delay, loss, duplication, and reordering;
// links and nodes can fail and recover; node groups can be partitioned.
//
// The paper's §3.4 challenges — "packets can be dropped, and links and
// switches may fail" with no TCP available — are exactly the properties this
// package injects. Per-link and global byte accounting support the bandwidth
// overhead experiments (E3, E11).
//
// Messages carry an opaque typed payload plus an explicit wire size. In
// simulation mode protocol layers exchange typed messages directly and
// declare the size their wire encoding would have (the encodings themselves
// are implemented and tested in internal/wire and used verbatim by the live
// UDP transport in netem/live).
//
// All model randomness (loss, jitter, reorder, duplication) comes from
// per-link streams seeded by (engine seed, from, to) — never from the
// shared engine source — so the draw sequence of one link is independent of
// traffic on other links.
package netem

import (
	"fmt"
	"math/rand"
	"slices"

	"swishmem/internal/obs"
	"swishmem/internal/sim"
)

// Addr identifies an attached node (a switch or the central controller).
type Addr uint16

// Handler receives delivered messages.
type Handler func(from Addr, payload any, size int)

// Releasable is implemented by pooled payloads (e.g. wire.EWOUpdate). The
// network takes one reference per scheduled delivery and releases it when
// the delivery is dropped in flight; when the payload reaches a handler the
// reference passes to the receiver, which must release it after processing.
// Payloads that do not implement Releasable are unaffected.
type Releasable interface {
	Ref()
	Release()
}

// DenyMode is an administrative block on one direction of a link — the
// iptables analog of the fault model (pumba/aerolab distinguish a REJECT
// rule, which surfaces an ICMP error to the sender, from a DROP rule, which
// blackholes silently).
type DenyMode uint8

// Deny modes.
const (
	// DenyNone lets traffic flow (the default).
	DenyNone DenyMode = iota
	// DenyBlackhole silently drops every message (iptables DROP): the
	// sender learns nothing.
	DenyBlackhole
	// DenyReject drops every message and schedules a reject notification
	// back to the sender after a round trip (iptables REJECT / ICMP
	// port-unreachable). Senders observe it via SetRejectHandler.
	DenyReject
)

// LinkProfile describes the behaviour of one direction of a link. Links are
// directed: SetLink applies a profile to both directions as sugar, while
// SetOneWayLink shapes a single direction (asymmetric faults — egress-only
// loss, one-way heartbeat blackholes).
type LinkProfile struct {
	// Latency is the propagation delay.
	Latency sim.Duration
	// Jitter adds a uniform random delay in [0, Jitter].
	Jitter sim.Duration
	// BandwidthBps is the link rate in bits per second; 0 means infinite
	// (no serialization delay or queueing).
	BandwidthBps float64
	// LossRate is the probability a message is silently dropped.
	LossRate float64
	// DupRate is the probability a message is delivered twice.
	DupRate float64
	// ReorderRate is the probability a message gets an extra delay of up to
	// ReorderLagMax, letting later messages overtake it.
	ReorderRate float64
	// LossEveryN, when >= 1, deterministically drops every Nth message on
	// the link (pumba's periodic-loss mode): the link counts sends and the
	// Nth, 2Nth, ... are dropped. Unlike LossRate this consumes no
	// randomness, so the anomaly pattern is exactly periodic.
	LossEveryN int
	// CorruptRate is the probability a message's payload is corrupted in
	// flight. A corrupted message never reaches its destination handler —
	// the model of a datagram failing its checksum / decode at the receiver
	// — but the network offers the (bit-flipped) encoding to the registered
	// CorruptionChecker first, which proves the wire decoder survives it.
	CorruptRate float64
	// Deny administratively blocks the direction (see DenyMode).
	Deny DenyMode
}

// DataCenter is a typical intra-DC link: 10us latency, 100Gbps, lossless.
func DataCenter() LinkProfile {
	return LinkProfile{Latency: 10_000, BandwidthBps: 100e9}
}

// LinkStats accumulates per-direction accounting.
type LinkStats struct {
	MsgsSent     uint64
	BytesSent    uint64
	MsgsDropped  uint64 // loss + down-link + partition + deny + nth + corrupt drops
	MsgsDeliv    uint64
	BytesDeliv   uint64
	MsgsDup      uint64
	MsgsCorrupt  uint64 // dropped by CorruptRate (subset of MsgsDropped)
	MsgsRejected uint64 // dropped by DenyReject (subset of MsgsDropped)
}

// link is one direction of a pair.
type link struct {
	profile LinkProfile
	// shape is the fault model's per-direction state (random stream,
	// every-Nth counter, serialization horizon).
	shape Shaper
	// seq numbers scheduled arrivals; with the directed link id it forms
	// the delivery's deterministic ordering key.
	seq   uint64
	stats LinkStats
	// queued counts the link's arrivals waiting in the engine queue: while
	// it is zero, none can sort after a fan-out record (see Multicast).
	queued int
	// due is the latest arrival time ever scheduled on the link. While it is
	// before an arrival's own time, every arrival still queued on the link is
	// due strictly earlier, so the arrival may join a fan-out record.
	due sim.Time
}

type endpoint struct {
	handler Handler
	up      bool
}

// AddrTable maps every Addr to a T (the zero T when unset) in two array
// loads: the per-message path looks up both ends of every send and every
// delivery, and a map[Addr] pays a generic hash for each (Go has no fast
// path for 16-bit keys). Pages of 256 entries hang off a directory indexed
// by the address's high byte and are allocated on first set: switch
// addresses are small and the controller sits at 0xfffe, so a network
// touches two pages where a flat slice would hold 64 K entries. The zero
// table is empty and ready to use; it is not safe for concurrent mutation.
type AddrTable[T comparable] struct {
	pages [256]*[256]T
}

// Get returns the value stored under a, or the zero T.
func (t *AddrTable[T]) Get(a Addr) (v T) {
	if p := t.pages[a>>8]; p != nil {
		v = p[a&0xff]
	}
	return v
}

// Set stores v under a; storing the zero T unsets a.
func (t *AddrTable[T]) Set(a Addr, v T) {
	p := t.pages[a>>8]
	if p == nil {
		p = new([256]T)
		t.pages[a>>8] = p
	}
	p[a&0xff] = v
}

// Each calls fn for every address holding a non-zero value, in ascending
// address order.
func (t *AddrTable[T]) Each(fn func(Addr, T)) {
	var zero T
	for hi, page := range t.pages {
		if page == nil {
			continue
		}
		for lo, v := range page {
			if v != zero {
				fn(Addr(hi<<8|lo), v)
			}
		}
	}
}

// Network is the emulated fabric.
type Network struct {
	eng            *sim.Engine
	seed           int64
	defaultProfile LinkProfile
	nodes          AddrTable[*endpoint] // nil when not attached
	// links is source -> destination -> directed link: a send finds its link
	// in four array loads, and a walk visits links in (from, to) order.
	links AddrTable[*AddrTable[*link]]
	// partition holds each node's group id; different nonzero groups can't
	// talk. split is false while every node is in group 0, which lets the
	// per-message check return without a lookup.
	partition AddrTable[int]
	split     bool
	totals    LinkStats
	// local is set by NewLocal: send delivers in the call, with no link.
	local bool
	// dfree pools in-flight delivery records.
	dfree []*delivery
	// corruptCheck, when set, is invoked for every message the CorruptRate
	// draw condemns, before the drop (see SetCorruptionChecker).
	corruptCheck CorruptionChecker
	// rejectHandlers maps a sender address to its ICMP-analog callback for
	// DenyReject notifications (see SetRejectHandler).
	rejectHandlers map[Addr]func(to Addr)
	// unbooked takes a local network's per-link counts; nothing reads it.
	unbooked LinkStats
}

// CorruptionChecker is called at send time for every message the
// CorruptRate draw selects. It receives the link's private random stream
// (positioned right after the corruption draw) so it can bit-flip a
// deterministic encoding of the payload and prove the wire decoder returns
// a clean error instead of panicking. Implementations must draw from rng
// deterministically (draw count independent of global state) and must not
// retain payload. The cluster facade installs a checker that marshals wire
// messages into a reused scratch buffer.
type CorruptionChecker func(rng *rand.Rand, from, to Addr, payload any, size int)

// SetCorruptionChecker installs the decode-proof hook for corrupted
// messages. A driver operation: set it before the run starts. Passing nil
// removes the hook (corrupted messages are then dropped unchecked).
func (n *Network) SetCorruptionChecker(c CorruptionChecker) { n.corruptCheck = c }

// SetRejectHandler registers the callback invoked when a message from sent
// hits a DenyReject direction: the emulated ICMP port-unreachable. The
// notification arrives one round trip (2x the link latency, plus a tick)
// after the send. Passing nil removes the handler; with no handler the
// reject is still counted in MsgsRejected but the sender learns nothing.
func (n *Network) SetRejectHandler(from Addr, fn func(to Addr)) {
	if n.rejectHandlers == nil {
		n.rejectHandlers = make(map[Addr]func(to Addr))
	}
	if fn == nil {
		delete(n.rejectHandlers, from)
		return
	}
	n.rejectHandlers[from] = fn
}

// FlipBits flips n distinct bits of frame in place, drawing positions from
// rng (exactly 2 draws per flip). It is the shared corruption primitive: the sim
// fabric's decode-proof checker, the live transport's tx corruption, and
// the fuzz-corpus harvester all use it so corrupted frames look alike
// everywhere. A zero-length frame is left untouched (no draws).
func FlipBits(rng *rand.Rand, frame []byte, n int) {
	bits := len(frame) * 8
	if bits == 0 {
		return
	}
	if n > bits {
		n = bits
	}
	// Exactly 2 draws per flip: the draw count is part of the sim link
	// stream's byte-identity contract, so a collision advances to the next
	// bit deterministically instead of redrawing. Sampling with replacement
	// could hit one bit twice, cancel the flips, and deliver the frame
	// intact — "corrupt" must corrupt.
	flipped := make([]int, 0, n)
	for i := 0; i < n; i++ {
		p := rng.Intn(len(frame))*8 + rng.Intn(8)
		for slices.Contains(flipped, p) {
			p = (p + 1) % bits
		}
		flipped = append(flipped, p)
		frame[p/8] ^= 1 << uint(p%8)
	}
}

// delivery is one engine event that delivers one message to one or more
// destinations at the same instant: a Send's arrival, or the copies of a
// Multicast that joined one fan-out record. Its run closure is bound once
// when the record is first created and reused for the record's lifetime.
type delivery struct {
	n       *Network
	from    Addr
	payload any
	size    int
	at      sim.Time
	targets []target
	// keyTo and keySeq are the ordering key of the member with the least
	// destination: (KeyClassDeliver|from<<16|keyTo, keySeq).
	keyTo  Addr
	keySeq uint64
	run    func()
}

// target is one destination of a delivery and the link it crosses.
type target struct {
	l  *link
	to Addr
}

func (n *Network) getDelivery() *delivery {
	if ln := len(n.dfree); ln > 0 {
		d := n.dfree[ln-1]
		n.dfree[ln-1] = nil
		n.dfree = n.dfree[:ln-1]
		return d
	}
	d := &delivery{n: n}
	d.run = d.deliver
	return d
}

// putDelivery returns a record to the pool. Its stale targets point only at
// links, which live as long as the network.
func (n *Network) putDelivery(d *delivery) {
	d.targets, d.payload = d.targets[:0], nil
	n.dfree = append(n.dfree, d)
}

// deliver runs a scheduled record: each target in group order. The record
// returns to the pool only after the last handler, since a handler's nested
// sends must not reuse it while its targets are still being walked.
func (d *delivery) deliver() {
	n := d.n
	for _, t := range d.targets {
		t.l.queued--
		n.arrive(&t.l.stats, d.from, t.to, d.payload, d.size)
	}
	n.putDelivery(d)
}

// arrive completes one delivery, counted in st and the totals: the message
// reaches the handler, or drops if the node went down or a partition formed
// while it was in flight.
func (n *Network) arrive(st *LinkStats, from, to Addr, payload any, size int) {
	dst := n.nodes.Get(to)
	if dst == nil || !dst.up || n.partitioned(from, to) {
		st.MsgsDropped++
		n.totals.MsgsDropped++
		n.traceDrop("drop.recv", from, to)
		if r, ok := payload.(Releasable); ok {
			r.Release()
		}
		return
	}
	st.MsgsDeliv++
	st.BytesDeliv += uint64(size)
	n.totals.MsgsDeliv++
	n.totals.BytesDeliv += uint64(size)
	// The delivery's payload reference passes to the receiver here.
	dst.handler(from, payload, size)
}

// New creates a network over eng where unset links use defaultProfile.
func New(eng *sim.Engine, defaultProfile LinkProfile) *Network {
	return &Network{eng: eng, seed: eng.Seed(), defaultProfile: defaultProfile}
}

// NewLocal creates a live fabric's local network: a switchboard with no
// model (faults live in the transport; SetLink, SetOneWayLink and Partition
// panic). A Send is the sender-up check, the totals, a Ref on a pooled
// payload, the destination's lookup and up check and its handler call, in
// the call: no link, verdict, engine event or per-link book; a tracer sees
// what a queued arrival leaves. Handlers run nested in whatever called Send,
// so they must only defer work, as a switch (claim a slot, schedule) and a
// relay (append an egress record) do.
func NewLocal(eng *sim.Engine) *Network {
	n := New(eng, LinkProfile{})
	n.local = true
	return n
}

// Attach registers a node; messages addressed to addr invoke h. Attaching an
// existing address replaces its handler (used when a failed switch is
// replaced by a fresh one).
func (n *Network) Attach(addr Addr, h Handler) {
	n.nodes.Set(addr, &endpoint{handler: h, up: true})
}

// SetNodeUp marks a node up or down. A down node neither sends nor receives —
// this is the fail-stop switch failure model of §6.3.
func (n *Network) SetNodeUp(addr Addr, up bool) {
	if ep := n.nodes.Get(addr); ep != nil {
		ep.up = up
	}
}

// SetLink configures both directions between a and b with profile.
func (n *Network) SetLink(a, b Addr, profile LinkProfile) {
	n.SetOneWayLink(a, b, profile)
	n.SetOneWayLink(b, a, profile)
}

// SetOneWayLink configures only the a->b direction.
func (n *Network) SetOneWayLink(a, b Addr, profile LinkProfile) {
	if n.local {
		panic("netem: a local network carries no model")
	}
	n.linkFor(a, b).profile = profile
}

// link returns the a->b link, or nil if it was never materialized.
func (n *Network) link(a, b Addr) *link {
	if row := n.links.Get(a); row != nil {
		return row.Get(b)
	}
	return nil
}

// linkFor returns the a->b link, materializing it on first use.
func (n *Network) linkFor(a, b Addr) *link {
	row := n.links.Get(a)
	if row == nil {
		row = new(AddrTable[*link])
		n.links.Set(a, row)
	}
	l := row.Get(b)
	if l == nil {
		l = &link{profile: n.defaultProfile, shape: NewShaper(n.seed, a, b)}
		row.Set(b, l)
	}
	return l
}

// Profile returns the profile of the a->b direction: the configured link,
// or the network default when the pair was never configured or used. It
// never materializes a link.
func (n *Network) Profile(a, b Addr) LinkProfile {
	if l := n.link(a, b); l != nil {
		return l.profile
	}
	return n.defaultProfile
}

// Partition assigns nodes to partition groups. Nodes in different nonzero
// groups cannot exchange messages; group 0 (the default) talks to everyone.
func (n *Network) Partition(group int, addrs ...Addr) {
	if n.local {
		panic("netem: a local network carries no model")
	}
	for _, a := range addrs {
		n.partition.Set(a, group)
	}
	n.split = n.split || group != 0
}

// HealPartition returns all nodes to group 0.
func (n *Network) HealPartition() { n.partition, n.split = AddrTable[int]{}, false }

func (n *Network) partitioned(a, b Addr) bool {
	if !n.split {
		return false
	}
	ga, gb := n.partition.Get(a), n.partition.Get(b)
	return ga != 0 && gb != 0 && ga != gb
}

// Send transmits payload of the given wire size from->to. It reports whether
// the message entered the network (false if the sender is down/unknown).
// Delivery is never guaranteed.
func (n *Network) Send(from, to Addr, payload any, size int) bool {
	if size < 0 {
		panic(fmt.Sprintf("netem: negative size %d", size))
	}
	src := n.nodes.Get(from)
	if src == nil || !src.up {
		return false
	}
	n.send(from, to, payload, size, nil)
	return true
}

// send runs the send-side steps of one message from an up sender, the same
// for a unicast and for each copy of a multicast: the counts, the partition
// check, the verdict, then a drop or the scheduling of its arrival (and of
// a duplicate). A copy's arrival that fan accepts joins that fan-out record
// instead of taking an engine event of its own; a duplicate, due later on
// the same link, is always scheduled alone.
func (n *Network) send(from, to Addr, payload any, size int, fan *delivery) {
	n.totals.MsgsSent++
	n.totals.BytesSent += uint64(size)
	if n.local {
		if r, ok := payload.(Releasable); ok {
			r.Ref()
		}
		if n.eng.Tracer().Enabled() {
			n.traceFlight(0, from, to, size)
		}
		n.arrive(&n.unbooked, from, to, payload, size)
		return
	}
	l := n.linkFor(from, to)
	l.stats.MsgsSent++
	l.stats.BytesSent += uint64(size)

	v := Verdict{Fate: DropPartition}
	if !n.partitioned(from, to) {
		v = l.shape.Decide(&l.profile, n.eng.Now(), size)
	}
	if v.Fate != Deliver {
		n.dropAtSend(l, v.Fate, from, to, payload, size)
		return
	}
	n.scheduleDelivery(v.Delay, l, from, to, payload, size, fan)
	if v.DupLag > 0 {
		l.stats.MsgsDup++
		n.totals.MsgsDup++
		n.traceDrop("dup", from, to)
		n.scheduleDelivery(v.Delay+v.DupLag, l, from, to, payload, size, nil)
	}
}

// dropAtSend accounts and traces a message the verdict condemned.
func (n *Network) dropAtSend(l *link, fate Fate, from, to Addr, payload any, size int) {
	l.stats.MsgsDropped++
	n.totals.MsgsDropped++
	switch fate {
	case DropCorrupt:
		// Corruption drops the message — the model of a datagram failing its
		// decode at the receiver — but first the checker gets to prove the
		// real decoder survives the bit-flipped encoding. The checker's rng
		// draws are part of the link stream, so they are byte-reproducible.
		if n.corruptCheck != nil {
			n.corruptCheck(l.shape.Rand(), from, to, payload, size)
		}
		l.stats.MsgsCorrupt++
		n.totals.MsgsCorrupt++
	case DropReject:
		l.stats.MsgsRejected++
		n.totals.MsgsRejected++
		// The ICMP analog: notify the sender after a round trip.
		if h := n.rejectHandlers[from]; h != nil {
			n.eng.ScheduleAfter(2*l.profile.Latency+1, func() { h(to) })
		}
	}
	n.traceDrop(fate.String(), from, to)
}

// traceFlight emits one arrival's flight span, covering send -> arrival.
func (n *Network) traceFlight(delay sim.Duration, from, to Addr, size int) {
	rec := n.eng.Tracer().Emit(obs.PhaseSpan, int64(n.eng.Now()), int64(delay), obs.PidFabric, "net", "msg")
	rec.K1, rec.V1 = "from", int64(from)
	rec.K2, rec.V2 = "to", int64(to)
	rec.K3, rec.V3 = "bytes", int64(size)
}

// traceDrop emits a fabric instant for a drop or duplication decision.
func (n *Network) traceDrop(name string, from, to Addr) {
	tr := n.eng.Tracer()
	if !tr.Enabled() {
		return
	}
	rec := tr.Emit(obs.PhaseInstant, int64(n.eng.Now()), 0, obs.PidFabric, "net", name)
	rec.K1, rec.V1 = "from", int64(from)
	rec.K2, rec.V2 = "to", int64(to)
}

// scheduleDelivery queues one arrival, taking a payload reference for
// pooled payloads. Each arrival gets a (directed link, sequence) ordering key
// assigned at send time (duplicates included), which fixes its position
// among same-timestamp events. The arrival joins fan when fan accepts it and
// is otherwise its own engine event.
func (n *Network) scheduleDelivery(delay sim.Duration, l *link, from, to Addr, payload any, size int, fan *delivery) {
	if r, ok := payload.(Releasable); ok {
		r.Ref()
	}
	if n.eng.Tracer().Enabled() {
		n.traceFlight(delay, from, to, size)
	}
	at := n.eng.Now().Add(delay)
	// A joiner's earlier arrivals on its link all come strictly before the
	// record, so none of them can sort after it (see Multicast).
	join := fan != nil && (len(fan.targets) == 0 || at == fan.at) && (l.queued == 0 || l.due < at)
	d := fan
	if !join {
		d = n.getDelivery()
		d.from, d.payload, d.size = from, payload, size
	}
	if len(d.targets) == 0 || to < d.keyTo {
		d.keyTo, d.keySeq = to, l.seq
	}
	d.at = at
	d.targets = append(d.targets, target{l: l, to: to})
	l.queued++
	l.seq++
	l.due = max(l.due, at)
	if !join {
		n.schedule(d)
	}
}

// schedule queues d as one engine event at d.at under its ordering key.
func (n *Network) schedule(d *delivery) {
	n.eng.ScheduleKeyed(d.at, sim.KeyClassDeliver|uint64(d.from)<<16|uint64(d.keyTo), d.keySeq, d.run)
}

// Multicast sends payload to every address in group except from itself.
// It models the switch multicast engine: each destination gets the same
// send-side steps, in group order, as a Send to it would, but the copies
// that arrive at one instant are one engine event. A copy joins that fan-out
// record when it arrives at the first joiner's time on a link whose queued
// arrivals are all due strictly earlier; any other copy, and every
// duplicate, is scheduled alone, exactly as a Send. The record runs the
// copies in group order under the least of their ordering keys. A
// receiver's inputs keep their order: no arrival on a member's link sorts
// between the record and that member's own key at the record's instant (an
// earlier one is excluded by the join rule, a later one carries a larger
// sequence), and arrivals from other senders stay in their sender's band.
// Only the interleaving of different receivers within one instant changes.
func (n *Network) Multicast(from Addr, group []Addr, payload any, size int) {
	if size < 0 {
		panic(fmt.Sprintf("netem: negative size %d", size))
	}
	src := n.nodes.Get(from)
	if src == nil || !src.up {
		return
	}
	fan := n.getDelivery()
	fan.from, fan.payload, fan.size = from, payload, size
	for _, to := range group {
		// A handler run inline on a local network may take the sender down.
		if to == from || !src.up {
			continue
		}
		n.send(from, to, payload, size, fan)
	}
	if len(fan.targets) == 0 {
		n.putDelivery(fan)
		return
	}
	n.schedule(fan)
}

// Stats returns accounting for the a->b direction: zero for a pair that
// never carried or configured traffic, and any pair on a local network.
// Like Profile it never materializes a link or adds rows to EachLink.
func (n *Network) Stats(a, b Addr) LinkStats {
	if l := n.link(a, b); l != nil {
		return l.stats
	}
	return LinkStats{}
}

// Totals returns network-wide accounting.
func (n *Network) Totals() LinkStats { return n.totals }

// ResetTotals zeroes all accounting (per-link and global); used between
// experiment phases.
func (n *Network) ResetTotals() {
	n.totals = LinkStats{}
	n.links.Each(func(_ Addr, row *AddrTable[*link]) {
		row.Each(func(_ Addr, l *link) { l.stats = LinkStats{} })
	})
}
