// Package live is the wall-clock counterpart of the simulated fabric: a
// real datagram transport over net.UDPConn carrying the same wire-encoded
// SwiShmem protocol messages between in-process (or cross-process) nodes.
// Where netem delivers typed payloads on virtual time, live marshals every
// message through internal/wire and moves real bytes through the kernel —
// the path a hardware deployment's switch CPUs would use for the protocol's
// control traffic, and a proof that the wire formats are complete.
//
// The transport exposes the same shape as netem (addresses, handlers,
// send), so protocol state machines run unchanged over either, and it runs
// the same fault model: every outbound datagram is judged by the
// netem.Shaper.Decide the simulated fabric calls, over one Shaper per
// destination seeded exactly as the simulator seeds that directed link, so a
// seed condemns the same messages on either fabric. Receive-side loss plus
// partition groups complete the parity. The network underneath stays real.
//
// Hot-path discipline matches DESIGN.md §6: sends marshal into pooled
// buffers and receives hand the kernel's read buffer straight to the
// decoder (wire unmarshalers copy every byte they keep), so the unshaped
// send and receive paths run at zero allocations per datagram.
package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/sim"
	"swishmem/internal/wire"
)

// frameHdr is the on-wire frame overhead: a 2-byte sender address plus a
// 4-byte CRC32-C over the payload. The UDP checksum is 16 bits, optional on
// IPv4, and bypassed entirely by loopback offload — far too weak a guard
// for protocol state. The frame CRC is what turns bit corruption (injected
// by CorruptRate or real) into a clean decode error at the receiver instead
// of a silently wrong message: without it a single flipped bit in a counter
// delta merges garbage into every replica.
const frameHdr = 6

// crcTab selects CRC32-C (Castagnoli), hardware-accelerated on amd64/arm64.
var crcTab = crc32.MakeTable(crc32.Castagnoli)

// ErrRejected is returned by Send when the egress profile for the peer is in
// DenyReject mode: the datagram is refused and the sender is told — the
// ICMP-unreachable analog — where a blackhole swallows it silently.
var ErrRejected = errors.New("live: send rejected by link deny policy")

// RawHandler receives undecoded message payloads (the datagram minus the
// sender-address + CRC frame header) with the kernel-reported source endpoint.
// The payload slice is only valid for the duration of the call: the
// transport reuses the buffer for the next datagram. Consumers that need
// the bytes longer must copy (the wire decoders do, field by field).
type RawHandler func(from netem.Addr, src netip.AddrPort, payload []byte)

// Options configures a node's deterministic fault injection.
type Options struct {
	// LossRate drops this fraction of received messages (applied before
	// delivery so the network itself stays real).
	LossRate float64
	// Seed drives all fault sampling on this node.
	Seed int64
	// Profile shapes the send path with the full netem fault model (see
	// netem.Shaper.Decide): a dropped datagram never reaches the socket, a
	// duplicated one is transmitted twice, a corrupted one is transmitted
	// with flipped payload bits, and the verdict's delay holds the transmit
	// back on a timer. The zero profile transmits synchronously (the
	// zero-alloc hot path).
	Profile netem.LinkProfile
	// Listen is the UDP bind address ("ip:port"). Default "127.0.0.1:0".
	Listen string
}

// Node is one live transport endpoint bound to a UDP socket.
type Node struct {
	addr netem.Addr
	conn *net.UDPConn

	mu sync.RWMutex
	// peers holds each registered peer's endpoint (the zero AddrPort when
	// unknown): every send resolves its destination here, so it is a table
	// indexed by address rather than a map.
	peers    netem.AddrTable[netip.AddrPort]
	groups   map[netem.Addr]int // partition group per peer (0 = unpartitioned)
	group    int                // this node's partition group
	raw      RawHandler
	lossRate float64 // receive-side loss
	profile  netem.LinkProfile
	// peerProfiles overrides the egress profile per destination. A node owns
	// only its own egress, so an override here shapes exactly one direction
	// of one link — the live counterpart of netem's directed links, and how
	// asymmetric faults (A→B dead, B→A healthy) are built on real sockets.
	peerProfiles map[netem.Addr]netem.LinkProfile
	// shapers holds the fault model's state per destination, created on the
	// first send and seeded as the simulator seeds the n.addr→to link.
	shapers netem.AddrTable[*netem.Shaper]
	seed    int64
	born    time.Time  // origin of the monotonic clock the shapers run on
	rng     *rand.Rand // receive-side loss sampling

	// sendBufs pools marshal buffers (*[]byte); warm sends allocate nothing.
	sendBufs sync.Pool

	closeOnce sync.Once
	closeErr  error
	closed    chan struct{}
	wg        sync.WaitGroup

	// cnt holds the transport counters as atomics: the read loop, every
	// sender, and delayed-write timers bump them lock-free, and Stats
	// snapshots without stalling anyone.
	cnt nodeCounters
}

// Stats counts transport events.
type Stats struct {
	Sent      uint64 // datagrams handed to the socket
	Received  uint64 // datagrams delivered to the handler
	Dropped   uint64 // injected receive-side loss
	DecodeErr uint64

	BytesSent     uint64
	BytesReceived uint64
	TxDropped     uint64 // injected send-side loss (random + every-Nth)
	TxDup         uint64 // injected duplicates
	TxDelayed     uint64 // datagrams sent through the delay path
	PartDropped   uint64 // partition drops, both directions
	TxCorrupted   uint64 // datagrams transmitted with flipped payload bits
	TxBlackholed  uint64 // datagrams swallowed by DenyBlackhole
	TxRejected    uint64 // sends refused by DenyReject (ErrRejected returned)
}

// nodeCounters is the live, concurrency-safe form of Stats.
type nodeCounters struct {
	sent, received, dropped, decodeErr    atomic.Uint64
	bytesSent, bytesReceived              atomic.Uint64
	txDropped, txDup, txDelayed           atomic.Uint64
	partDropped                           atomic.Uint64
	txCorrupted, txBlackholed, txRejected atomic.Uint64
}

// Listen binds a node to opts.Listen (default 127.0.0.1, ephemeral port).
func Listen(addr netem.Addr, opts Options) (*Node, error) {
	bind := opts.Listen
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	laddr, err := net.ResolveUDPAddr("udp4", bind)
	if err != nil {
		return nil, fmt.Errorf("live: listen address: %w", err)
	}
	conn, err := net.ListenUDP("udp4", laddr)
	if err != nil {
		return nil, fmt.Errorf("live: listen: %w", err)
	}
	n := &Node{
		addr:         addr,
		conn:         conn,
		groups:       make(map[netem.Addr]int),
		peerProfiles: make(map[netem.Addr]netem.LinkProfile),
		lossRate:     opts.LossRate,
		profile:      opts.Profile,
		seed:         opts.Seed,
		born:         time.Now(),
		rng:          rand.New(rand.NewSource(opts.Seed)),
		closed:       make(chan struct{}),
	}
	n.sendBufs.New = func() any {
		b := make([]byte, 0, 2048)
		return &b
	}
	n.wg.Add(1)
	go n.readLoop()
	return n, nil
}

// Addr returns the node's SwiShmem address.
func (n *Node) Addr() netem.Addr { return n.addr }

// UDPAddr returns the bound socket address (for peer registration).
func (n *Node) UDPAddr() *net.UDPAddr { return n.conn.LocalAddr().(*net.UDPAddr) }

// AddrPort returns the bound socket address as a netip.AddrPort.
func (n *Node) AddrPort() netip.AddrPort {
	return n.UDPAddr().AddrPort()
}

// SetRawHandler installs the receive handler; set it before traffic flows.
// The transport never decodes — the receive path runs allocation-free and
// the fabric pump decodes on the engine goroutine.
func (n *Node) SetRawHandler(h RawHandler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.raw = h
}

// SetProfile replaces the send-side shaping profile (e.g. calming the fault
// injection before a convergence check). Per-peer overrides installed with
// SetPeerProfile survive; clear them explicitly.
func (n *Node) SetProfile(p netem.LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.profile = p
}

// SetPeerProfile overrides the egress profile for one destination. Because
// each node shapes only its own egress, this configures exactly the
// n.addr→addr direction: installing a blackhole here while the peer keeps a
// clean profile back yields a one-way outage on a real network. As on the
// simulated link, the direction's shaping state (every-Nth phase, random
// stream) survives the change.
func (n *Node) SetPeerProfile(addr netem.Addr, p netem.LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peerProfiles[addr] = p
}

// ClearPeerProfile removes a per-destination override; traffic to addr
// returns to the node-wide profile.
func (n *Node) ClearPeerProfile(addr netem.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.peerProfiles, addr)
}

// SetRecvLoss replaces the receive-side loss rate.
func (n *Node) SetRecvLoss(rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lossRate = rate
}

// SetPartition assigns this node to a partition group. As on the emulated
// fabric, nodes in different nonzero groups cannot exchange messages; group
// 0 talks to everyone. The peer's group is whatever SetPeerGroup recorded —
// each process keeps its own view, mirroring how a real injected partition
// is configured on every box it affects.
func (n *Node) SetPartition(group int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = group
}

// SetPeerGroup records the partition group of a peer address.
func (n *Node) SetPeerGroup(addr netem.Addr, group int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups[addr] = group
}

// HealPartition returns this node and all peers to group 0.
func (n *Node) HealPartition() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.group = 0
	for a := range n.groups {
		delete(n.groups, a)
	}
}

// partitionedLocked reports whether traffic with peer is partitioned away.
// Caller holds n.mu.
func (n *Node) partitionedLocked(peer netem.Addr) bool {
	if n.group == 0 {
		return false
	}
	g := n.groups[peer]
	return g != 0 && g != n.group
}

// AddPeerAddrPort registers where another SwiShmem address lives.
func (n *Node) AddPeerAddrPort(addr netem.Addr, ap netip.AddrPort) {
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers.Set(addr, ap)
}

// AddPeerIfAbsent registers a peer endpoint unless the address is already
// known; it reports whether the entry was added. The fabric's auto-learning
// path uses it so a datagram's kernel-reported source teaches the node
// where its sender lives.
func (n *Node) AddPeerIfAbsent(addr netem.Addr, ap netip.AddrPort) bool {
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.peers.Get(addr).IsValid() {
		return false
	}
	n.peers.Set(addr, ap)
	return true
}

// Peer returns the registered endpoint for addr.
func (n *Node) Peer(addr netem.Addr) (netip.AddrPort, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ap := n.peers.Get(addr)
	return ap, ap.IsValid()
}

// Peers returns a snapshot of the peer table.
func (n *Node) Peers() map[netem.Addr]netip.AddrPort {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make(map[netem.Addr]netip.AddrPort)
	n.peers.Each(func(a netem.Addr, ap netip.AddrPort) { out[a] = ap })
	return out
}

// sendPlan is one outbound datagram's destination and verdict, computed
// under the node lock and executed after it is released.
type sendPlan struct {
	dst netip.AddrPort
	netem.Verdict
	// shaper owns the random stream a corrupted frame's bit flips draw from.
	shaper *netem.Shaper
}

// plan resolves the destination endpoint and asks the fault model what
// happens to a datagram of the given on-wire size (frame header included).
// send reports whether the caller has a frame to build: a datagram dropped
// here is already counted, and only a reject surfaces as an error.
func (n *Node) plan(to netem.Addr, size int) (pl sendPlan, send bool, err error) {
	n.mu.Lock()
	pl.dst = n.peers.Get(to)
	if !pl.dst.IsValid() {
		n.mu.Unlock()
		return pl, false, fmt.Errorf("live: no peer registered for address %d", to)
	}
	pl.Fate = netem.DropPartition
	if !n.partitionedLocked(to) {
		p := n.profile
		if pp, ok := n.peerProfiles[to]; ok {
			p = pp
		}
		pl.shaper = n.shapers.Get(to)
		if pl.shaper == nil {
			sh := netem.NewShaper(n.seed, n.addr, to)
			pl.shaper = &sh
			n.shapers.Set(to, pl.shaper)
		}
		pl.Verdict = pl.shaper.Decide(&p, sim.Time(time.Since(n.born)), size)
	}
	n.mu.Unlock()
	switch pl.Fate {
	case netem.Deliver, netem.DropCorrupt:
		return pl, true, nil
	case netem.DropPartition:
		n.cnt.partDropped.Add(1)
	case netem.DropBlackhole:
		n.cnt.txBlackholed.Add(1)
	case netem.DropReject:
		n.cnt.txRejected.Add(1)
		err = ErrRejected
	default:
		n.cnt.txDropped.Add(1)
	}
	return pl, false, err
}

// newFrame takes a pooled buffer holding the frame header: the sender
// address and room for the CRC that transmit fills in.
func (n *Node) newFrame() *[]byte {
	bp := n.sendBufs.Get().(*[]byte)
	*bp = append((*bp)[:0], byte(n.addr>>8), byte(n.addr), 0, 0, 0, 0)
	return bp
}

// transmit seals a framed datagram with its CRC and executes its plan.
// Ownership of bp passes in; it returns to the pool after the last write.
func (n *Node) transmit(pl sendPlan, bp *[]byte) error {
	b := *bp
	binary.BigEndian.PutUint32(b[2:frameHdr], crc32.Checksum(b[frameHdr:], crcTab))
	if pl.Fate == netem.DropCorrupt && len(b) > frameHdr {
		// Flip 1-3 payload bits after the CRC was computed. The frame header
		// stays intact so the receiver attributes the frame, then fails the
		// integrity check and counts a decode error — real corruption, clean
		// rejection, never a wrong delivery.
		n.mu.Lock()
		rng := pl.shaper.Rand()
		netem.FlipBits(rng, b[frameHdr:], 1+rng.Intn(3))
		n.mu.Unlock()
		n.cnt.txCorrupted.Add(1)
	}
	if pl.Delay <= 0 {
		err := n.write(pl.dst, b)
		if pl.DupLag > 0 {
			n.cnt.txDup.Add(1)
			_ = n.write(pl.dst, b)
		}
		n.sendBufs.Put(bp)
		return err
	}
	if pl.DupLag > 0 {
		// The duplicate needs its own buffer: the delayed writes release
		// their buffers independently.
		bp2 := n.sendBufs.Get().(*[]byte)
		*bp2 = append((*bp2)[:0], b...)
		n.cnt.txDup.Add(1)
		n.scheduleWrite(pl.Delay+pl.DupLag, pl.dst, bp2)
	}
	n.scheduleWrite(pl.Delay, pl.dst, bp)
	return nil
}

// Send marshals msg into a pooled buffer and transmits it to the peer
// registered for to, applying the node's send-side fault profile. Unknown
// peers and socket errors are reported; datagram delivery is, as on the
// emulated fabric, never guaranteed. With the zero profile the path is
// synchronous and allocation-free warm.
func (n *Node) Send(to netem.Addr, msg wire.Msg) error {
	pl, send, err := n.plan(to, frameHdr+msg.Size())
	if !send {
		return err
	}
	bp := n.newFrame()
	*bp = msg.Marshal(*bp)
	return n.transmit(pl, bp)
}

// SendEncoded transmits an already wire-encoded payload (a complete Marshal
// encoding, type tag first — typically a coalesced wire.Batch frame built by
// a BatchBuilder) with the same shaping, framing, and pooling as Send. The
// payload is copied into a pooled buffer, so the caller may reuse it
// immediately.
func (n *Node) SendEncoded(to netem.Addr, payload []byte) error {
	pl, send, err := n.plan(to, frameHdr+len(payload))
	if !send {
		return err
	}
	bp := n.newFrame()
	*bp = append(*bp, payload...)
	return n.transmit(pl, bp)
}

// write transmits one framed datagram. Zero-alloc: WriteToUDPAddrPort takes
// the endpoint by value.
func (n *Node) write(dst netip.AddrPort, b []byte) error {
	if _, err := n.conn.WriteToUDPAddrPort(b, dst); err != nil {
		return fmt.Errorf("live: send: %w", err)
	}
	n.cnt.sent.Add(1)
	n.cnt.bytesSent.Add(uint64(len(b)))
	return nil
}

// scheduleWrite transmits the pooled buffer after d on a timer goroutine
// (the wall-clock analogue of netem's delayed delivery events). Ownership
// of bp passes to the timer, which returns it to the pool after the write.
func (n *Node) scheduleWrite(d time.Duration, dst netip.AddrPort, bp *[]byte) {
	n.cnt.txDelayed.Add(1)
	time.AfterFunc(d, func() {
		select {
		case <-n.closed:
		default:
			_ = n.write(dst, *bp)
		}
		n.sendBufs.Put(bp)
	})
}

// Stats returns a snapshot of the transport counters (thread-safe). Each
// field is read atomically; the set is not one instant, so under traffic
// BytesSent may already include a datagram Sent does not yet.
func (n *Node) Stats() Stats {
	c := &n.cnt
	return Stats{
		Sent:          c.sent.Load(),
		Received:      c.received.Load(),
		Dropped:       c.dropped.Load(),
		DecodeErr:     c.decodeErr.Load(),
		BytesSent:     c.bytesSent.Load(),
		BytesReceived: c.bytesReceived.Load(),
		TxDropped:     c.txDropped.Load(),
		TxDup:         c.txDup.Load(),
		TxDelayed:     c.txDelayed.Load(),
		PartDropped:   c.partDropped.Load(),
		TxCorrupted:   c.txCorrupted.Load(),
		TxBlackholed:  c.txBlackholed.Load(),
		TxRejected:    c.txRejected.Load(),
	}
}

// Close shuts the socket down and waits for the read loop. Safe to call
// concurrently and repeatedly: a sync.Once runs the teardown exactly once
// and every caller observes its result.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.closeErr = n.conn.Close()
		n.wg.Wait()
	})
	return n.closeErr
}

func (n *Node) readLoop() {
	defer n.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		sz, src, err := n.conn.ReadFromUDPAddrPort(buf)
		select {
		case <-n.closed:
			return
		default:
		}
		if err != nil {
			return // Close closes the socket, which unblocks the read
		}
		n.processDatagram(src, buf[:sz])
	}
}

// processDatagram delivers one framed datagram: sender-address header, CRC
// integrity check, receive-side fault injection, then the raw handler. The
// buffer belongs to the read loop; nothing here may retain it (raw handlers
// are documented not to). The path is allocation-free warm.
func (n *Node) processDatagram(src netip.AddrPort, b []byte) {
	if len(b) < frameHdr+1 {
		n.cnt.decodeErr.Add(1)
		return
	}
	from := netem.Addr(uint16(b[0])<<8 | uint16(b[1]))
	if crc32.Checksum(b[frameHdr:], crcTab) != binary.BigEndian.Uint32(b[2:frameHdr]) {
		n.cnt.decodeErr.Add(1)
		return
	}
	n.mu.Lock()
	drop := n.lossRate > 0 && n.rng.Float64() < n.lossRate
	part := n.partitionedLocked(from)
	raw := n.raw
	n.mu.Unlock()
	if part {
		n.cnt.partDropped.Add(1)
		return
	}
	if drop {
		n.cnt.dropped.Add(1)
		return
	}
	n.cnt.received.Add(1)
	n.cnt.bytesReceived.Add(uint64(len(b)))
	if raw != nil {
		raw(from, src, b[frameHdr:])
	}
}
