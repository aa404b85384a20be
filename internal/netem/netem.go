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
// # Sharded execution
//
// A network built with NewSharded spans the engines of a sim.Group: each
// attached node lives on one shard, sends execute on the sender's shard,
// and deliveries execute on the destination's shard. Same-shard deliveries
// take the exact sequential path; cross-shard deliveries are appended to a
// per-shard outbox (owned by the sending shard's goroutine, so no locks)
// and injected into destination queues at the group's window barrier.
// Determinism does not depend on the injection order: every delivery
// carries a (timestamp, directed-link, per-link-sequence) key and engine
// queues order events by that key, so a sharded run executes deliveries in
// exactly the order a sequential run would (see internal/sim/shard.go).
//
// All model randomness (loss, jitter, reorder, duplication) comes from
// per-link streams seeded by (engine seed, from, to) — never from the
// shared engine source — so the draw sequence of one link is independent of
// traffic on other links and of how links are spread across shards.
package netem

import (
	"fmt"
	"math/rand"
	"reflect"
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

// RemoteMsg is implemented by payloads that cannot be shared across shard
// boundaries by pointer: pooled messages (their free lists belong to the
// creating shard) and messages the receiver mutates. When a delivery
// crosses shards the network calls CloneRemote at the barrier and hands the
// clone to the destination, releasing the original on the sending side —
// the shard boundary acts as a serialization boundary, exactly like the
// live UDP transport's encode/decode. Clones must not be pooled.
//
// Payloads implementing Releasable but not RemoteMsg cannot cross shards
// (the network panics): a pooled object must never be released from a
// foreign shard. Plain payloads pass by pointer; ownership transfers to
// the receiver, and the sender must treat the object as immutable after
// Send.
type RemoteMsg interface {
	CloneRemote() any
}

// RemotePooled is an optional extension of RemoteMsg for payloads that cross
// shards on the hot path (EWO updates, heartbeats). Instead of a fresh
// allocation per crossing, the network keeps a free list of clones per
// (destination shard, concrete type): the barrier pops a drained clone and
// asks the payload to refill it, and the receiving shard's final Release
// pushes it back via the recycle hook. The barrier and the shard windows
// strictly alternate, so the pool needs no locking, and steady-state
// cross-shard traffic allocates nothing.
type RemotePooled interface {
	RemoteMsg
	// CloneRemotePooled deep-copies the message for the receiving shard.
	// prev, when non-nil, is an earlier clone of the same concrete type whose
	// receiver has fully released it; its storage must be reused. The clone
	// must hand itself to recycle when its reference count drains (bind the
	// hook once per object — a reused prev already carries it) and must come
	// back holding exactly one reference for the receiver to release.
	CloneRemotePooled(prev any, recycle func(any)) any
}

// PoolAware is implemented by payload types whose Releasable plumbing is
// armed per instance (wire.EnablePool): an instance reporting Pooled()
// false has no free list to corrupt and crosses shards by pointer like any
// plain payload. Without this probe, adding Ref/Release methods to a type
// would force every instance — including the simulator's plain, unpooled
// messages — through the clone-or-panic path at shard boundaries.
type PoolAware interface {
	Pooled() bool
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

// Lossy returns profile p with the given loss rate.
func (p LinkProfile) Lossy(rate float64) LinkProfile { p.LossRate = rate; return p }

// MinDelay is the smallest possible send-to-arrival delay on the link.
// Every stochastic component (jitter, serialization, reorder lag, duplicate
// lag) is non-negative, so no delivery — duplicated or reordered — ever arrives
// earlier than Latency after its send. This is the lookahead invariant the
// parallel simulation relies on: the conservative window width derived from
// cross-shard MinDelay values can never be violated by a reordered or
// duplicated copy.
func (p LinkProfile) MinDelay() sim.Duration { return p.Latency }

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

func (s *LinkStats) add(o *LinkStats) {
	s.MsgsSent += o.MsgsSent
	s.BytesSent += o.BytesSent
	s.MsgsDropped += o.MsgsDropped
	s.MsgsDeliv += o.MsgsDeliv
	s.BytesDeliv += o.BytesDeliv
	s.MsgsDup += o.MsgsDup
	s.MsgsCorrupt += o.MsgsCorrupt
	s.MsgsRejected += o.MsgsRejected
}

// link is one direction of a pair. Its fields are split by owner so a
// sharded run never writes the same word from two goroutines: everything
// except recv is touched only at send time (sender's shard); recv only at
// delivery time (destination's shard).
type link struct {
	profile LinkProfile
	// shape is the fault model's per-direction state (random stream,
	// every-Nth counter, serialization horizon).
	shape Shaper
	// seq numbers scheduled arrivals; with the directed link id it forms
	// the delivery's deterministic ordering key.
	seq uint64
	// sent is the sender-owned half: MsgsSent/BytesSent/MsgsDup plus drops
	// decided at send time (loss, partition).
	sent LinkStats
	// recv is the receiver-owned half: MsgsDeliv/BytesDeliv plus drops
	// decided at arrival (down node, partition formed in flight).
	recv LinkStats
	// pending is the open delivery burst for this link: the most recently
	// scheduled arrival batch, joinable while later sends compute the same
	// arrival time. For a same-shard link it is touched at send and at fire,
	// both on the owning shard's goroutine; for a cross-shard link it is
	// touched at the barrier (coordinator, all shards quiescent) and at fire
	// (destination shard window), which strictly alternate. The fired burst
	// clears it, so it never dangles.
	pending *burst
}

// stats merges both halves into the public view.
func (l *link) statsMerged() LinkStats {
	s := l.sent
	s.MsgsDeliv = l.recv.MsgsDeliv
	s.BytesDeliv = l.recv.BytesDeliv
	s.MsgsDropped += l.recv.MsgsDropped
	return s
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

// crossMsg is one cross-shard delivery parked in a sender-shard outbox
// until the next window barrier.
type crossMsg struct {
	at       sim.Time
	khi, klo uint64
	l        *link
	from, to Addr
	payload  any
	size     int
}

// Network is the emulated fabric.
type Network struct {
	engines        []*sim.Engine
	group          *sim.Group // nil in sequential mode
	shardOf        func(Addr) int
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
	// totals are per executing shard (one row in sequential mode); Totals
	// sums them so no row is ever written from two goroutines.
	totals []LinkStats
	// mode is how an arrival reaches its destination (see deliveryMode).
	mode deliveryMode
	// dfree pools in-flight delivery records, one free list per shard: a
	// record is always taken and returned on the destination's shard (same-
	// shard sends run there already; cross-shard records materialize at the
	// single-threaded barrier).
	dfree [][]*delivery
	// bfree pools burst records with the same shard discipline as dfree.
	bfree [][]*burst
	// outbox parks cross-shard deliveries per sending shard.
	outbox [][]crossMsg
	// rfree pools shard-crossing clones per destination shard and concrete
	// payload type (see RemotePooled); recycleTo[i] is the bound release
	// hook feeding shard i's pool.
	rfree     []map[reflect.Type][]any
	recycleTo []func(any)
	// corruptCheck, when set, is invoked for every message the CorruptRate
	// draw condemns, before the drop (see SetCorruptionChecker).
	corruptCheck CorruptionChecker
	// rejectHandlers maps a sender address to its ICMP-analog callback for
	// DenyReject notifications (see SetRejectHandler).
	rejectHandlers map[Addr]func(to Addr)
}

// CorruptionChecker is called at send time, on the sending shard, for every
// message the CorruptRate draw selects. It receives the link's private
// random stream (positioned right after the corruption draw) so it can
// bit-flip a deterministic encoding of the payload and prove the wire
// decoder returns a clean error instead of panicking. Implementations must
// draw from rng deterministically (draw count independent of global state)
// and must not retain payload. The cluster facade installs a checker that
// marshals wire messages into per-shard scratch buffers.
type CorruptionChecker func(shard int, rng *rand.Rand, from, to Addr, payload any, size int)

// SetCorruptionChecker installs the decode-proof hook for corrupted
// messages. A driver operation: set it before the run starts. Passing nil
// removes the hook (corrupted messages are then dropped unchecked).
func (n *Network) SetCorruptionChecker(c CorruptionChecker) { n.corruptCheck = c }

// SetRejectHandler registers the callback invoked on from's shard when a
// message from sent hits a DenyReject direction: the emulated ICMP
// port-unreachable. The notification arrives one round trip (2x the link
// latency, plus a tick) after the send, as a local event on the sender's
// shard. Passing nil removes the handler; with no handler the reject is
// still counted in MsgsRejected but the sender learns nothing.
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

// delivery is one scheduled message arrival. Its run closure is bound once
// when the record is first created and reused for the record's lifetime.
type delivery struct {
	n        *Network
	l        *link
	from, to Addr
	payload  any
	size     int
	shard    int // destination shard: the pool the record returns to
	run      func()
}

func (n *Network) getDelivery(shard int) *delivery {
	free := n.dfree[shard]
	if ln := len(free); ln > 0 {
		d := free[ln-1]
		free[ln-1] = nil
		n.dfree[shard] = free[:ln-1]
		return d
	}
	d := &delivery{n: n, shard: shard}
	d.run = d.deliver
	return d
}

func (d *delivery) deliver() {
	n, l := d.n, d.l
	from, to, payload, size := d.from, d.to, d.payload, d.size
	// Return the record to the pool before invoking the handler so nested
	// sends can reuse it; all needed fields are copied out above.
	d.l, d.payload = nil, nil
	n.dfree[d.shard] = append(n.dfree[d.shard], d)

	n.arrive(d.shard, l, from, to, payload, size)
}

// arrive completes one delivery on the destination's shard: the message
// reaches the handler, or drops if the node went down or a partition formed
// while it was in flight.
func (n *Network) arrive(shard int, l *link, from, to Addr, payload any, size int) {
	dst := n.nodes.Get(to)
	if dst == nil || !dst.up || n.partitioned(from, to) {
		l.recv.MsgsDropped++
		n.totals[shard].MsgsDropped++
		n.traceDrop(n.engines[shard], "drop.recv", from, to)
		if r, ok := payload.(Releasable); ok {
			r.Release()
		}
		return
	}
	l.recv.MsgsDeliv++
	l.recv.BytesDeliv += uint64(size)
	n.totals[shard].MsgsDeliv++
	n.totals[shard].BytesDeliv += uint64(size)
	// The delivery's payload reference passes to the receiver here.
	dst.handler(from, payload, size)
}

// burstItem is one coalesced arrival inside a burst.
type burstItem struct {
	payload any
	size    int
}

// burst is one scheduled arrival event carrying the run of deliveries that
// share a directed link and an arrival time. The ordering key of the first
// member places the whole run: same-(link, time) deliveries are consecutive
// in the event order anyway (one khi, ascending klo), so delivering members
// back-to-back reproduces the uncoalesced order exactly while paying the
// heap push/pop and pool round-trip once per run instead of once per
// message.
type burst struct {
	n        *Network
	l        *link
	from, to Addr
	at       sim.Time
	shard    int // destination shard: the pool the record returns to
	items    []burstItem
	run      func()
}

func (n *Network) getBurst(shard int) *burst {
	free := n.bfree[shard]
	if ln := len(free); ln > 0 {
		b := free[ln-1]
		free[ln-1] = nil
		n.bfree[shard] = free[:ln-1]
		return b
	}
	b := &burst{n: n, shard: shard}
	b.run = b.deliver
	return b
}

func (b *burst) deliver() {
	n, l := b.n, b.l
	from, to := b.from, b.to
	// Close the burst before delivering: a send executed by a handler below
	// (even at this same timestamp) must open a fresh burst, never join a
	// fired one. The guard matters because a dup/reorder arrival may have
	// replaced pending with a later burst of this link.
	if l.pending == b {
		l.pending = nil
	}
	shard := b.shard
	eng := n.engines[shard]
	items := b.items
	// The k-1 dispatches this event coalesced away still count as events
	// (and still emit their trace instants below): event totals and traces
	// are model-visible, and the determinism contract keeps them identical
	// with coalescing on or off.
	eng.CreditEvents(uint64(len(items) - 1))
	for i := range items {
		payload, size := items[i].payload, items[i].size
		items[i] = burstItem{}
		if i > 0 {
			eng.EmitEventInstant()
		}
		// arrive re-checks the destination per member: a handler may take
		// the node down mid-burst, and the remaining members must drop
		// exactly as their individual delivery events would have.
		n.arrive(shard, l, from, to, payload, size)
	}
	b.items = items[:0]
	b.l = nil
	n.bfree[shard] = append(n.bfree[shard], b)
}

// deliveryMode is how an arrival reaches its destination's handler.
type deliveryMode uint8

const (
	// deliverBurst (the default): a run of sends arriving on one directed
	// link at one virtual time rides one queued event instead of N. Such
	// deliveries are consecutive in the (khi, klo) event order anyway, so
	// order, stats, event counts and traces are byte-identical to deliverEach
	// (the burst credits the coalesced dispatches back, see burst.deliver).
	deliverBurst  deliveryMode = iota
	deliverEach                // one queued event per arrival: SetCoalesce(false)
	deliverInCall              // an arrival due now runs inside its Send, unqueued: NewLocal
)

// New creates a network over eng where unset links use defaultProfile.
func New(eng *sim.Engine, defaultProfile LinkProfile) *Network {
	return &Network{
		engines:        []*sim.Engine{eng},
		seed:           eng.Seed(),
		defaultProfile: defaultProfile,
		totals:         make([]LinkStats, 1),
		dfree:          make([][]*delivery, 1),
		bfree:          make([][]*burst, 1),
		outbox:         make([][]crossMsg, 1),
	}
}

// NewLocal creates the switchboard inside one process — a live fabric's
// local network, whose links carry no model (faults live in the transport):
// a message with a zero-delay verdict reaches its handler inside the Send
// call, after every check, count, Ref and trace span a queued arrival gets,
// and costs no engine event. Handlers run nested in whatever called Send, so
// they must only defer their work, as a switch (claim a slot, schedule) and
// a relay (append an egress record) do.
func NewLocal(eng *sim.Engine) *Network {
	n := New(eng, LinkProfile{})
	n.mode = deliverInCall
	return n
}

// NewSharded creates a network spanning the engines of a sim.Group.
// shardOf maps every address that will ever be attached to its shard (it
// must be pure and total). The network registers its cross-shard outbox
// drain as a group barrier hook.
//
// Topology mutations (Attach, Detach, SetLink, Partition, SetNodeUp, stats
// reads) are driver operations: they may only happen between Group.RunUntil
// calls, never from model callbacks, because shard goroutines read the
// topology maps without locks while a window runs.
func NewSharded(g *sim.Group, defaultProfile LinkProfile, shardOf func(Addr) int) *Network {
	engines := g.Engines()
	n := &Network{
		engines:        engines,
		group:          g,
		shardOf:        shardOf,
		seed:           engines[0].Seed(),
		defaultProfile: defaultProfile,
		totals:         make([]LinkStats, len(engines)),
		dfree:          make([][]*delivery, len(engines)),
		bfree:          make([][]*burst, len(engines)),
		outbox:         make([][]crossMsg, len(engines)),
		rfree:          make([]map[reflect.Type][]any, len(engines)),
		recycleTo:      make([]func(any), len(engines)),
	}
	for i := range n.rfree {
		pool := make(map[reflect.Type][]any)
		n.rfree[i] = pool
		n.recycleTo[i] = func(x any) {
			t := reflect.TypeOf(x)
			pool[t] = append(pool[t], x)
		}
	}
	g.AddFlush(n.flushCross)
	return n
}

// Engine returns the underlying simulation engine (shard 0's when sharded).
func (n *Network) Engine() *sim.Engine { return n.engines[0] }

// SetCoalesce enables or disables burst delivery (on by default). A driver
// operation: call it between runs, never from model callbacks. Both settings
// produce byte-identical runs — the knob exists for that A/B proof and for
// isolating the optimization when profiling.
func (n *Network) SetCoalesce(on bool) {
	n.mode = deliverBurst
	if !on {
		n.mode = deliverEach
	}
}

// shardIdx maps an address to its shard (always 0 in sequential mode).
func (n *Network) shardIdx(a Addr) int {
	if n.shardOf == nil {
		return 0
	}
	return n.shardOf(a)
}

// engineFor returns the engine that owns a's events.
func (n *Network) engineFor(a Addr) *sim.Engine { return n.engines[n.shardIdx(a)] }

// Attach registers a node; messages addressed to addr invoke h. Attaching an
// existing address replaces its handler (used when a failed switch is
// replaced by a fresh one). In sharded mode attaching also materializes the
// links between addr and every other known node, so the hot send path never
// inserts into the link table concurrently.
func (n *Network) Attach(addr Addr, h Handler) {
	n.nodes.Set(addr, &endpoint{handler: h, up: true})
	if n.group != nil {
		n.nodes.Each(func(other Addr, _ *endpoint) {
			if other != addr {
				n.linkFor(addr, other)
				n.linkFor(other, addr)
			}
		})
	}
}

// Detach removes a node entirely. Its links remain materialized.
func (n *Network) Detach(addr Addr) { n.nodes.Set(addr, nil) }

// SetNodeUp marks a node up or down. A down node neither sends nor receives —
// this is the fail-stop switch failure model of §6.3.
func (n *Network) SetNodeUp(addr Addr, up bool) {
	if ep := n.nodes.Get(addr); ep != nil {
		ep.up = up
	}
}

// SetLink configures both directions between a and b with profile.
func (n *Network) SetLink(a, b Addr, profile LinkProfile) {
	n.linkFor(a, b).profile = profile
	n.linkFor(b, a).profile = profile
}

// SetOneWayLink configures only the a->b direction.
func (n *Network) SetOneWayLink(a, b Addr, profile LinkProfile) {
	n.linkFor(a, b).profile = profile
}

// link returns the a->b link, or nil if it was never materialized.
func (n *Network) link(a, b Addr) *link {
	if row := n.links.Get(a); row != nil {
		return row.Get(b)
	}
	return nil
}

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

// eachLink visits every materialized link in ascending (from, to) order.
func (n *Network) eachLink(fn func(from, to Addr, l *link)) {
	n.links.Each(func(from Addr, row *AddrTable[*link]) {
		row.Each(func(to Addr, l *link) { fn(from, to, l) })
	})
}

// sendLink is linkFor for the hot path: in sharded mode every link a send
// can use was materialized at Attach, so a miss is a contract violation
// (it would race on the table), not a condition to repair.
func (n *Network) sendLink(a, b Addr) *link {
	if l := n.link(a, b); l != nil {
		return l
	}
	if n.group != nil {
		panic(fmt.Sprintf("netem: send %d->%d on a link never materialized by Attach", a, b))
	}
	return n.linkFor(a, b)
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

// MinCrossShardLatency returns the smallest MinDelay over directed links
// whose endpoints live on different shards. The network default is always
// included (any not-yet-configured pair falls back to it), making the
// result safe for pairs that have never talked. This is the fabric's
// contribution to the group lookahead; the cluster recomputes it after
// every profile change.
func (n *Network) MinCrossShardLatency() sim.Duration {
	min := n.defaultProfile.MinDelay()
	n.eachLink(func(from, to Addr, l *link) {
		if n.shardIdx(from) != n.shardIdx(to) {
			if d := l.profile.MinDelay(); d < min {
				min = d
			}
		}
	})
	return min
}

// Partition assigns nodes to partition groups. Nodes in different nonzero
// groups cannot exchange messages; group 0 (the default) talks to everyone.
func (n *Network) Partition(group int, addrs ...Addr) {
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
// Delivery is never guaranteed. Send must run on the sending node's shard
// (model callbacks do so naturally) or in driver code between runs.
func (n *Network) Send(from, to Addr, payload any, size int) bool {
	if size < 0 {
		panic(fmt.Sprintf("netem: negative size %d", size))
	}
	src := n.nodes.Get(from)
	if src == nil || !src.up {
		return false
	}
	l := n.sendLink(from, to)
	eng := n.engineFor(from)
	shard := n.shardIdx(from)
	l.sent.MsgsSent++
	l.sent.BytesSent += uint64(size)
	n.totals[shard].MsgsSent++
	n.totals[shard].BytesSent += uint64(size)

	v := Verdict{Fate: DropPartition}
	if !n.partitioned(from, to) {
		v = l.shape.Decide(&l.profile, eng.Now(), size)
	}
	if v.Fate != Deliver {
		n.dropAtSend(eng, shard, l, v.Fate, from, to, payload, size)
		return true
	}
	n.scheduleDelivery(eng, shard, v.Delay, l, from, to, payload, size)
	if v.DupLag > 0 {
		l.sent.MsgsDup++
		n.totals[shard].MsgsDup++
		n.traceDrop(eng, "dup", from, to)
		n.scheduleDelivery(eng, shard, v.Delay+v.DupLag, l, from, to, payload, size)
	}
	return true
}

// dropAtSend accounts and traces a message the verdict condemned.
func (n *Network) dropAtSend(eng *sim.Engine, shard int, l *link, fate Fate, from, to Addr, payload any, size int) {
	l.sent.MsgsDropped++
	n.totals[shard].MsgsDropped++
	switch fate {
	case DropCorrupt:
		// Corruption drops the message — the model of a datagram failing its
		// decode at the receiver — but first the checker gets to prove the
		// real decoder survives the bit-flipped encoding. The checker's rng
		// draws are part of the link stream, so they are byte-reproducible.
		if n.corruptCheck != nil {
			n.corruptCheck(shard, l.shape.Rand(), from, to, payload, size)
		}
		l.sent.MsgsCorrupt++
		n.totals[shard].MsgsCorrupt++
	case DropReject:
		l.sent.MsgsRejected++
		n.totals[shard].MsgsRejected++
		// The ICMP analog: notify the sender after a round trip, as a local
		// event on its own shard (deterministic across shard layouts, and
		// exempt from the cross-shard lookahead floor).
		if h := n.rejectHandlers[from]; h != nil {
			eng.ScheduleAfter(2*l.profile.Latency+1, func() { h(to) })
		}
	}
	n.traceDrop(eng, fate.String(), from, to)
}

// traceDrop emits a fabric instant for a drop or duplication decision.
func (n *Network) traceDrop(eng *sim.Engine, name string, from, to Addr) {
	tr := eng.Tracer()
	if !tr.Enabled() {
		return
	}
	rec := tr.Emit(obs.PhaseInstant, int64(eng.Now()), 0, obs.PidFabric, "net", name)
	rec.K1, rec.V1 = "from", int64(from)
	rec.K2, rec.V2 = "to", int64(to)
}

// scheduleDelivery queues one arrival, taking a payload reference for pooled
// payloads. Each arrival gets its own pooled record (duplicates included)
// and a (directed link, sequence) ordering key assigned at send time, so
// its position among same-timestamp events is fixed before anyone knows
// which queue it lands in.
func (n *Network) scheduleDelivery(eng *sim.Engine, shard int, delay sim.Duration, l *link, from, to Addr, payload any, size int) {
	if delay < l.profile.MinDelay() {
		panic(fmt.Sprintf("netem: delivery delay %v below link MinDelay %v (lookahead invariant)", delay, l.profile.MinDelay()))
	}
	if r, ok := payload.(Releasable); ok {
		r.Ref()
	}
	if tr := eng.Tracer(); tr.Enabled() {
		// One flight span per scheduled arrival, covering send -> arrival.
		rec := tr.Emit(obs.PhaseSpan, int64(eng.Now()), int64(delay), obs.PidFabric, "net", "msg")
		rec.K1, rec.V1 = "from", int64(from)
		rec.K2, rec.V2 = "to", int64(to)
		rec.K3, rec.V3 = "bytes", int64(size)
	}
	khi := sim.KeyClassDeliver | uint64(from)<<16 | uint64(to)
	klo := l.seq
	l.seq++
	at := eng.Now().Add(delay)
	dst := n.shardIdx(to)
	if dst == shard {
		n.queueArrival(dst, at, khi, klo, l, from, to, payload, size)
		return
	}
	// Cross-shard: park in this shard's outbox; the barrier injects it.
	n.outbox[shard] = append(n.outbox[shard], crossMsg{
		at: at, khi: khi, klo: klo, l: l, from: from, to: to, payload: payload, size: size,
	})
}

// queueArrival puts one arrival on its destination shard's queue: it joins
// the link's open burst when that burst lands at the same time, else opens a
// new one. Runs on the destination's shard or at the barrier.
func (n *Network) queueArrival(dst int, at sim.Time, khi, klo uint64, l *link, from, to Addr, payload any, size int) {
	if n.mode != deliverBurst && n.arriveUnbursted(dst, at, khi, klo, l, from, to, payload, size) {
		return
	}
	b := l.pending
	if b == nil || b.at != at {
		b = n.getBurst(dst)
		b.l, b.from, b.to, b.at = l, from, to, at
		l.pending = b
		n.engines[dst].ScheduleKeyed(at, khi, klo, b.run)
	}
	b.items = append(b.items, burstItem{payload, size})
}

// arriveUnbursted is queueArrival off the default mode, out of line so the
// simulator's path stays one byte test and the burst code: a queued delivery
// of its own with coalescing off; on a local network an arrival due now is
// delivered here, inside its Send, and a later one — or one whose link has a
// burst open, which it must not overtake — left to a burst (false).
func (n *Network) arriveUnbursted(dst int, at sim.Time, khi, klo uint64, l *link, from, to Addr, payload any, size int) bool {
	if n.mode == deliverEach {
		d := n.getDelivery(dst)
		d.l, d.from, d.to, d.payload, d.size = l, from, to, payload, size
		n.engines[dst].ScheduleKeyed(at, khi, klo, d.run)
	} else if at == n.engines[dst].Now() && l.pending == nil {
		n.arrive(dst, l, from, to, payload, size)
	} else {
		return false
	}
	return true
}

// flushCross drains every shard outbox into the destination queues. It runs
// as a group barrier hook (all shards quiescent), which makes it safe to
// touch destination pools and to release sender-pooled payloads. Injection
// order is irrelevant for determinism — the events carry their merge keys —
// so a simple shard-order walk suffices.
func (n *Network) flushCross() {
	for si := range n.outbox {
		box := n.outbox[si]
		for i := range box {
			m := &box[i]
			payload := m.payload
			dst := n.shardIdx(m.to)
			if pm, ok := payload.(RemotePooled); ok {
				t := reflect.TypeOf(payload)
				var prev any
				if pool := n.rfree[dst][t]; len(pool) > 0 {
					prev = pool[len(pool)-1]
					pool[len(pool)-1] = nil
					n.rfree[dst][t] = pool[:len(pool)-1]
				}
				clone := pm.CloneRemotePooled(prev, n.recycleTo[dst])
				if r, ok := payload.(Releasable); ok {
					r.Release()
				}
				payload = clone
			} else if rm, ok := payload.(RemoteMsg); ok {
				clone := rm.CloneRemote()
				if r, ok := payload.(Releasable); ok {
					r.Release()
				}
				payload = clone
			} else if _, ok := payload.(Releasable); ok {
				if pa, ok := payload.(PoolAware); !ok || pa.Pooled() {
					panic(fmt.Sprintf("netem: pooled payload %T crossing shards must implement RemoteMsg", payload))
				}
				// Unpooled instance of a poolable type: plain-payload
				// semantics, passes by pointer.
			}
			// A link's outbox entries appear in send order (one sender shard
			// per directed link), so the bursts formed here are exactly the
			// ones a sequential run forms at send time — event counts and
			// traces stay identical across shard layouts.
			n.queueArrival(dst, m.at, m.khi, m.klo, m.l, m.from, m.to, payload, m.size)
			*m = crossMsg{}
		}
		n.outbox[si] = box[:0]
	}
}

// Multicast sends payload to every address in group except from itself.
// It models the switch multicast engine: one copy per destination.
func (n *Network) Multicast(from Addr, group []Addr, payload any, size int) {
	for _, to := range group {
		if to == from {
			continue
		}
		n.Send(from, to, payload, size)
	}
}

// Stats returns accounting for the a->b direction.
func (n *Network) Stats(a, b Addr) LinkStats { return n.linkFor(a, b).statsMerged() }

// EachLink invokes fn for every directed link the network knows about, in
// ascending (from, to) order so output built from it is deterministic.
// This closes the Stats/Totals asymmetry: Totals returns the global
// aggregate, but per-link stats used to be reachable only by asking for a
// (from, to) pair the caller already knew existed — exporters iterate here
// without any topology knowledge.
func (n *Network) EachLink(fn func(from, to Addr, s LinkStats)) {
	n.eachLink(func(from, to Addr, l *link) { fn(from, to, l.statsMerged()) })
}

// Totals returns network-wide accounting (summed over shards).
func (n *Network) Totals() LinkStats {
	var s LinkStats
	for i := range n.totals {
		s.add(&n.totals[i])
	}
	return s
}

// ResetTotals zeroes all accounting (per-link and global); used between
// experiment phases.
func (n *Network) ResetTotals() {
	for i := range n.totals {
		n.totals[i] = LinkStats{}
	}
	n.eachLink(func(_, _ Addr, l *link) {
		l.sent = LinkStats{}
		l.recv = LinkStats{}
	})
}
