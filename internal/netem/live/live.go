// Package live is the wall-clock counterpart of the simulated fabric: a
// real datagram transport over net.UDPConn carrying the same wire-encoded
// SwiShmem protocol messages between in-process (or cross-process) nodes.
// Where netem delivers typed payloads on virtual time, live marshals every
// message through internal/wire and moves real bytes through the kernel —
// the path a hardware deployment's switch CPUs would use for the protocol's
// control traffic, and a proof that the wire formats are complete.
//
// The transport exposes the same shape as netem (addresses, handlers,
// send), so protocol state machines run unchanged over either, and it
// applies the same fault model: a netem.LinkProfile shapes the send path
// (loss, duplication, latency, jitter, reordering, serialization delay) and
// receive-side loss plus partition groups complete the parity. All fault
// sampling is deterministic given the node's seed; the network underneath
// stays real.
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

// Handler receives decoded protocol messages.
type Handler func(from netem.Addr, msg wire.Msg)

// RawHandler receives undecoded message payloads (the datagram minus the
// sender-address + CRC frame header) with the kernel-reported source endpoint.
// The payload slice is only valid for the duration of the call: the
// transport reuses the buffer for the next datagram. Consumers that need
// the bytes longer must copy (wire.Unmarshal does, field by field).
type RawHandler func(from netem.Addr, src netip.AddrPort, payload []byte)

// Options configures a node's deterministic fault injection.
type Options struct {
	// LossRate drops this fraction of received messages (applied before
	// delivery so the network itself stays real).
	LossRate float64
	// Seed drives all fault sampling on this node.
	Seed int64
	// Profile shapes the send path with the full netem fault model: LossRate
	// drops datagrams before they reach the socket, DupRate transmits twice,
	// Latency+Jitter delay the transmit, ReorderRate adds an extra delay of
	// up to 4x Latency, and BandwidthBps imposes FIFO serialization delay.
	// The zero profile transmits synchronously (the zero-alloc hot path).
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
	handler  Handler
	raw      RawHandler
	lossRate float64 // receive-side loss
	profile  netem.LinkProfile
	// peerProfiles overrides the egress profile per destination. A node owns
	// only its own egress, so an override here shapes exactly one direction
	// of one link — the live counterpart of netem's directed links, and how
	// asymmetric faults (A→B dead, B→A healthy) are built on real sockets.
	peerProfiles map[netem.Addr]netem.LinkProfile
	nth          map[netem.Addr]uint64 // per-destination every-Nth loss counters
	rng          *rand.Rand            // receive-side loss sampling
	sendRng      *rand.Rand            // send-side shaping
	busyUntil    time.Time             // FIFO serialization (BandwidthBps)

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
		nth:          make(map[netem.Addr]uint64),
		lossRate:     opts.LossRate,
		profile:      opts.Profile,
		rng:          rand.New(rand.NewSource(opts.Seed)),
		sendRng:      rand.New(rand.NewSource(opts.Seed ^ 0x5deece66d)),
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

// SetHandler installs the message handler. Must be set before traffic flows.
func (n *Node) SetHandler(h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handler = h
}

// SetRawHandler installs a raw payload handler. When set it preempts the
// decoded handler: the transport skips wire.Unmarshal and the receive path
// runs allocation-free. The fabric pump uses this to move decoding onto the
// engine goroutine.
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
// clean profile back yields a one-way outage on a real network.
func (n *Node) SetPeerProfile(addr netem.Addr, p netem.LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peerProfiles[addr] = p
	delete(n.nth, addr) // restart the deterministic every-Nth cadence
}

// ClearPeerProfile removes a per-destination override; traffic to addr
// returns to the node-wide profile.
func (n *Node) ClearPeerProfile(addr netem.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.peerProfiles, addr)
	delete(n.nth, addr)
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

// AddPeer registers where another SwiShmem address lives.
func (n *Node) AddPeer(addr netem.Addr, udp *net.UDPAddr) {
	n.AddPeerAddrPort(addr, udp.AddrPort())
}

// AddPeerAddrPort registers a peer endpoint by netip.AddrPort.
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

// sendPlan is one outbound datagram's shaping decision, computed under the
// node lock and executed after it is released.
type sendPlan struct {
	dst     netip.AddrPort
	delay   time.Duration
	dupLag  time.Duration
	drop    bool
	dup     bool
	part    bool
	corrupt bool
	deny    netem.DenyMode
}

// plan resolves the destination endpoint and samples the send-side fault
// profile for a datagram of the given on-wire size (sender header included).
func (n *Node) plan(to netem.Addr, size int) (sendPlan, error) {
	var pl sendPlan
	n.mu.Lock()
	dst := n.peers.Get(to)
	if !dst.IsValid() {
		n.mu.Unlock()
		return pl, fmt.Errorf("live: no peer registered for address %d", to)
	}
	pl.dst = dst
	if n.partitionedLocked(to) {
		n.mu.Unlock()
		pl.part = true
		return pl, nil
	}
	p := n.profile
	if pp, ok := n.peerProfiles[to]; ok {
		p = pp
	}
	// Fault order mirrors the simulated fabric: deny, every-Nth, random
	// loss, corruption draw. Every branch is gated on its knob so a profile
	// without extended faults draws exactly the sequence it always did.
	if p.Deny != netem.DenyNone {
		pl.deny = p.Deny
		n.mu.Unlock()
		return pl, nil
	}
	if p.LossEveryN >= 1 {
		n.nth[to]++
		if n.nth[to]%uint64(p.LossEveryN) == 0 {
			pl.drop = true
		}
	}
	if !pl.drop && p.LossRate > 0 && n.sendRng.Float64() < p.LossRate {
		pl.drop = true
	}
	if !pl.drop && p.CorruptRate > 0 && n.sendRng.Float64() < p.CorruptRate {
		pl.corrupt = true
	}
	if !pl.drop {
		if p.BandwidthBps > 0 {
			ser := time.Duration(float64(size*8) / p.BandwidthBps * 1e9)
			now := time.Now()
			depart := now
			if n.busyUntil.After(now) {
				depart = n.busyUntil
			}
			depart = depart.Add(ser)
			n.busyUntil = depart
			pl.delay += depart.Sub(now)
		}
		pl.delay += time.Duration(p.Latency)
		if p.Jitter > 0 {
			pl.delay += time.Duration(n.sendRng.Int63n(int64(p.Jitter) + 1))
		}
		if p.ReorderRate > 0 && p.Latency > 0 && n.sendRng.Float64() < p.ReorderRate {
			pl.delay += time.Duration(n.sendRng.Int63n(int64(4*p.Latency) + 1))
		}
		if p.DupRate > 0 && n.sendRng.Float64() < p.DupRate {
			pl.dup = true
			pl.dupLag = time.Duration(p.Latency)/2 + 1
		}
	}
	n.mu.Unlock()
	return pl, nil
}

// transmit executes a plan over a framed datagram held in a pooled buffer.
// Ownership of bp passes in; it returns to the pool after the last write.
func (n *Node) transmit(pl sendPlan, bp *[]byte) error {
	b := *bp
	if pl.delay <= 0 {
		err := n.write(pl.dst, b)
		if pl.dup {
			n.cnt.txDup.Add(1)
			_ = n.write(pl.dst, b)
		}
		n.sendBufs.Put(bp)
		return err
	}
	if pl.dup {
		// The duplicate needs its own buffer: the delayed writes release
		// their buffers independently.
		bp2 := n.sendBufs.Get().(*[]byte)
		*bp2 = append((*bp2)[:0], b...)
		n.cnt.txDup.Add(1)
		n.scheduleWrite(pl.delay+pl.dupLag, pl.dst, bp2)
	}
	n.scheduleWrite(pl.delay, pl.dst, bp)
	return nil
}

// Send marshals msg into a pooled buffer and transmits it to the peer
// registered for to, applying the node's send-side fault profile. Unknown
// peers and socket errors are reported; datagram delivery is, as on the
// emulated fabric, never guaranteed. With the zero profile the path is
// synchronous and allocation-free warm.
func (n *Node) Send(to netem.Addr, msg wire.Msg) error {
	pl, err := n.plan(to, frameHdr+msg.Size())
	if err != nil {
		return err
	}
	if done, err := n.applyVerdict(pl); done {
		return err
	}
	bp := n.sendBufs.Get().(*[]byte)
	b := append((*bp)[:0], byte(n.addr>>8), byte(n.addr), 0, 0, 0, 0)
	b = msg.Marshal(b)
	*bp = b
	binary.BigEndian.PutUint32(b[2:frameHdr], crc32.Checksum(b[frameHdr:], crcTab))
	if pl.corrupt {
		n.corruptPayload(b)
	}
	return n.transmit(pl, bp)
}

// applyVerdict consumes a plan's terminal outcomes (partition, deny, drop).
// done means the datagram goes no further; err surfaces a reject.
func (n *Node) applyVerdict(pl sendPlan) (done bool, err error) {
	if pl.part {
		n.cnt.partDropped.Add(1)
		return true, nil
	}
	switch pl.deny {
	case netem.DenyBlackhole:
		n.cnt.txBlackholed.Add(1)
		return true, nil
	case netem.DenyReject:
		n.cnt.txRejected.Add(1)
		return true, ErrRejected
	}
	if pl.drop {
		n.cnt.txDropped.Add(1)
		return true, nil
	}
	return false, nil
}

// corruptPayload flips 1-3 bits of a framed datagram's payload after the
// CRC was computed (the frame header is left intact so the receiver
// attributes the frame, then fails the integrity check and counts a decode
// error — real corruption, clean rejection, never a wrong delivery).
func (n *Node) corruptPayload(b []byte) {
	if len(b) <= frameHdr {
		return
	}
	n.mu.Lock()
	netem.FlipBits(n.sendRng, b[frameHdr:], 1+n.sendRng.Intn(3))
	n.mu.Unlock()
	n.cnt.txCorrupted.Add(1)
}

// SendEncoded transmits an already wire-encoded payload (a complete Marshal
// encoding, type tag first — typically a coalesced wire.Batch frame built by
// a BatchBuilder) with the same shaping, framing, and pooling as Send. The
// payload is copied into a pooled buffer, so the caller may reuse it
// immediately.
func (n *Node) SendEncoded(to netem.Addr, payload []byte) error {
	pl, err := n.plan(to, frameHdr+len(payload))
	if err != nil {
		return err
	}
	if done, err := n.applyVerdict(pl); done {
		return err
	}
	bp := n.sendBufs.Get().(*[]byte)
	b := append((*bp)[:0], byte(n.addr>>8), byte(n.addr), 0, 0, 0, 0)
	b = append(b, payload...)
	*bp = b
	binary.BigEndian.PutUint32(b[2:frameHdr], crc32.Checksum(b[frameHdr:], crcTab))
	if pl.corrupt {
		n.corruptPayload(b)
	}
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

// Multicast sends msg to every group member except this node.
func (n *Node) Multicast(group []netem.Addr, msg wire.Msg) {
	for _, to := range group {
		if to == n.addr {
			continue
		}
		_ = n.Send(to, msg) // datagram semantics: errors equal loss
	}
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
// integrity check, receive-side fault injection, then the raw handler (no
// decode) or the decoded handler. The buffer belongs to the read loop;
// nothing here may retain it (wire unmarshalers copy, raw handlers are
// documented not to). The raw delivery path is allocation-free warm.
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
	h, raw := n.handler, n.raw
	n.mu.Unlock()
	if part {
		n.cnt.partDropped.Add(1)
		return
	}
	if drop {
		n.cnt.dropped.Add(1)
		return
	}
	if raw != nil {
		n.countRecv(len(b))
		raw(from, src, b[frameHdr:])
		return
	}
	msg, err := wire.Unmarshal(b[frameHdr:])
	if err != nil {
		n.cnt.decodeErr.Add(1)
		return
	}
	n.countRecv(len(b))
	if h != nil {
		h(from, msg)
	}
}

func (n *Node) countRecv(bytes int) {
	n.cnt.received.Add(1)
	n.cnt.bytesReceived.Add(uint64(bytes))
}

// Mesh wires a set of live nodes into a full mesh (every node knows every
// other node's socket address).
func Mesh(nodes []*Node) {
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.AddPeer(b.Addr(), b.UDPAddr())
			}
		}
	}
}
