// Package wire defines the binary formats of every SwiShmem protocol
// message: chain-replication write requests and acknowledgements, read
// forwards and replies (SRO/ERO, §6.1), EWO update and synchronization
// records (§6.2), and the controller's configuration and heartbeat messages
// (§6.3).
//
// The formats are compact fixed layouts with big-endian integers, in the
// spirit of data-plane headers: a P4 parser could extract every field. The
// simulated fabric exchanges typed Msg values and charges their Size()
// against link bandwidth; the live UDP transport (netem/live) marshals the
// same messages through these encodings.
package wire

import (
	"encoding/binary"
	"fmt"

	"swishmem/internal/sim"
	"swishmem/internal/timesync"
)

// Type tags a message on the wire.
type Type uint8

// Message types.
const (
	TWrite Type = iota + 1
	TWriteAck
	TReadFwd
	TReadReply
	TEWOUpdate
	THeartbeat
	TChainConfig
	TGroupConfig
	THello
	TPeerList
	TBatch
	TChainNack
	TChainCursor
)

func (t Type) String() string {
	switch t {
	case TWrite:
		return "Write"
	case TWriteAck:
		return "WriteAck"
	case TReadFwd:
		return "ReadFwd"
	case TReadReply:
		return "ReadReply"
	case TEWOUpdate:
		return "EWOUpdate"
	case THeartbeat:
		return "Heartbeat"
	case TChainConfig:
		return "ChainConfig"
	case TGroupConfig:
		return "GroupConfig"
	case THello:
		return "Hello"
	case TPeerList:
		return "PeerList"
	case TBatch:
		return "Batch"
	case TChainNack:
		return "ChainNack"
	case TChainCursor:
		return "ChainCursor"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Msg is implemented by every wire message.
type Msg interface {
	// WireType returns the type tag.
	WireType() Type
	// Size returns the encoded length in bytes (including the type tag),
	// without allocating.
	Size() int
	// Marshal appends the encoding (including the type tag) to dst.
	Marshal(dst []byte) []byte
}

// ChainFrame is a strong-register protocol frame (Write, WriteAck, ReadFwd,
// ReadReply, ChainNack, ChainCursor): it names the register it belongs to,
// which is all a router needs to find its chain node.
type ChainFrame interface {
	Msg
	ChainReg() uint16
}

// ChainReg implements ChainFrame.
func (w *Write) ChainReg() uint16       { return w.Reg }
func (a *WriteAck) ChainReg() uint16    { return a.Reg }
func (r *ReadFwd) ChainReg() uint16     { return r.Reg }
func (r *ReadReply) ChainReg() uint16   { return r.Reg }
func (m *ChainNack) ChainReg() uint16   { return m.Reg }
func (m *ChainCursor) ChainReg() uint16 { return m.Reg }

// Marshal encodes m into a fresh buffer.
func Marshal(m Msg) []byte { return m.Marshal(make([]byte, 0, m.Size())) }

// viewMsg is a message type with a view decoder: decode reads the type's
// fixed layout from body (the frame minus its type tag) into the receiver,
// overwriting every field, and reports whether body was well formed. Value
// fields come out as capacity-clamped views aliasing body — the one parser
// per layout, shared by Unmarshal (which copies the values out) and ViewSet
// (which keeps the aliases and owns the bytes).
type viewMsg interface {
	Msg
	decode(body []byte) bool
}

// Unmarshal decodes a message previously produced by Marshal. The result
// owns all its memory: nothing in it aliases data.
func Unmarshal(data []byte) (Msg, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: empty message")
	}
	body := data[1:]
	var m viewMsg
	switch Type(data[0]) {
	case TWrite:
		m = &Write{}
	case TWriteAck:
		m = &WriteAck{}
	case TReadFwd:
		m = &ReadFwd{}
	case TReadReply:
		m = &ReadReply{}
	case TEWOUpdate:
		m = &EWOUpdate{}
	case THeartbeat:
		m = &Heartbeat{}
	case TChainNack:
		m = &ChainNack{}
	case TChainCursor:
		m = &ChainCursor{}
	case TChainConfig:
		return unmarshalChainConfig(body)
	case TGroupConfig:
		return unmarshalGroupConfig(body)
	case THello:
		return unmarshalHello(body)
	case TPeerList:
		return unmarshalPeerList(body)
	case TBatch:
		return unmarshalBatch(body)
	default:
		return nil, fmt.Errorf("wire: unknown type %d", data[0])
	}
	if !m.decode(body) {
		return nil, fmt.Errorf("wire: malformed %v (%d bytes)", m.WireType(), len(body))
	}
	switch v := m.(type) {
	case *Write:
		v.Value = append([]byte(nil), v.Value...)
	case *ReadReply:
		v.Value = append([]byte(nil), v.Value...)
	case *EWOUpdate:
		for i := range v.Entries {
			v.Entries[i].Value = append([]byte(nil), v.Entries[i].Value...)
		}
	}
	return m, nil
}

const maxValueLen = 1 << 12 // generous; paper-scale register objects are ~100B

func putValue(dst []byte, v []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(v)))
	return append(dst, v...)
}

// valueView reads a length-prefixed value without copying: the returned
// slice aliases b (capacity-clamped so appends cannot scribble past it) and
// is nil when empty, so a decoded message re-marshals byte for byte.
func valueView(b []byte) (v, rest []byte, ok bool) {
	if len(b) < 2 {
		return nil, nil, false
	}
	n := int(binary.BigEndian.Uint16(b))
	if n > maxValueLen || len(b)-2 < n {
		return nil, nil, false
	}
	if n == 0 {
		return nil, b[2:], true
	}
	return b[2 : 2+n : 2+n], b[2+n:], true
}

// Write is a chain-replication write request (§6.1). The writer's control
// plane sends it to the head; each chain member applies it in per-key
// sequence order and forwards it to its successor.
type Write struct {
	Reg     uint16 // register (object) identifier
	Key     uint64 // key within the register array
	Seq     uint64 // per-key sequence number, assigned by the head (0 = unassigned)
	WriteID uint64 // writer-unique ID for retry deduplication
	Writer  uint16 // network address of the originating switch
	Epoch   uint32 // chain configuration epoch
	// Snapshot marks a recovery snapshot write (§6.3): the joining switch
	// applies it only if no live write for the key has been seen since the
	// join began, and acknowledges it to the donor rather than the writer.
	Snapshot bool
	Value    []byte

	pooled[Write]
}

// WireType implements Msg.
func (*Write) WireType() Type { return TWrite }

// Size implements Msg.
func (w *Write) Size() int { return 1 + 2 + 8 + 8 + 8 + 2 + 4 + 1 + 2 + len(w.Value) }

// Marshal implements Msg.
func (w *Write) Marshal(dst []byte) []byte {
	dst = append(dst, byte(TWrite))
	dst = binary.BigEndian.AppendUint16(dst, w.Reg)
	dst = binary.BigEndian.AppendUint64(dst, w.Key)
	dst = binary.BigEndian.AppendUint64(dst, w.Seq)
	dst = binary.BigEndian.AppendUint64(dst, w.WriteID)
	dst = binary.BigEndian.AppendUint16(dst, w.Writer)
	dst = binary.BigEndian.AppendUint32(dst, w.Epoch)
	if w.Snapshot {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return putValue(dst, w.Value)
}

func (w *Write) decode(b []byte) bool {
	if len(b) < 33 {
		return false
	}
	v, _, ok := valueView(b[33:])
	if !ok {
		return false
	}
	w.Reg = binary.BigEndian.Uint16(b[0:])
	w.Key = binary.BigEndian.Uint64(b[2:])
	w.Seq = binary.BigEndian.Uint64(b[10:])
	w.WriteID = binary.BigEndian.Uint64(b[18:])
	w.Writer = binary.BigEndian.Uint16(b[26:])
	w.Epoch = binary.BigEndian.Uint32(b[28:])
	w.Snapshot = b[32] == 1
	w.Value = v
	return true
}

// WriteAck is sent by the tail when a write commits: to the writer (which
// may then release its buffered output packet) and to every chain member
// (which clears the key's pending bit).
type WriteAck struct {
	Reg     uint16
	Key     uint64
	Seq     uint64
	WriteID uint64
	Writer  uint16
	Epoch   uint32

	pooled[WriteAck]
}

// WireType implements Msg.
func (*WriteAck) WireType() Type { return TWriteAck }

// Size implements Msg.
func (a *WriteAck) Size() int { return 1 + 2 + 8 + 8 + 8 + 2 + 4 }

// Marshal implements Msg.
func (a *WriteAck) Marshal(dst []byte) []byte {
	dst = append(dst, byte(TWriteAck))
	dst = binary.BigEndian.AppendUint16(dst, a.Reg)
	dst = binary.BigEndian.AppendUint64(dst, a.Key)
	dst = binary.BigEndian.AppendUint64(dst, a.Seq)
	dst = binary.BigEndian.AppendUint64(dst, a.WriteID)
	dst = binary.BigEndian.AppendUint16(dst, a.Writer)
	return binary.BigEndian.AppendUint32(dst, a.Epoch)
}

func (a *WriteAck) decode(b []byte) bool {
	if len(b) < 32 {
		return false
	}
	a.Reg = binary.BigEndian.Uint16(b[0:])
	a.Key = binary.BigEndian.Uint64(b[2:])
	a.Seq = binary.BigEndian.Uint64(b[10:])
	a.WriteID = binary.BigEndian.Uint64(b[18:])
	a.Writer = binary.BigEndian.Uint16(b[26:])
	a.Epoch = binary.BigEndian.Uint32(b[28:])
	return true
}

// ReadFwd forwards a read of a pending key to the tail (§6.1: "the input
// packet P is forwarded to the tail of the chain, and processed there").
type ReadFwd struct {
	Reg    uint16
	Key    uint64
	ReqID  uint64
	Origin uint16

	pooled[ReadFwd]
}

// WireType implements Msg.
func (*ReadFwd) WireType() Type { return TReadFwd }

// Size implements Msg.
func (r *ReadFwd) Size() int { return 1 + 2 + 8 + 8 + 2 }

// Marshal implements Msg.
func (r *ReadFwd) Marshal(dst []byte) []byte {
	dst = append(dst, byte(TReadFwd))
	dst = binary.BigEndian.AppendUint16(dst, r.Reg)
	dst = binary.BigEndian.AppendUint64(dst, r.Key)
	dst = binary.BigEndian.AppendUint64(dst, r.ReqID)
	return binary.BigEndian.AppendUint16(dst, r.Origin)
}

func (r *ReadFwd) decode(b []byte) bool {
	if len(b) < 20 {
		return false
	}
	r.Reg = binary.BigEndian.Uint16(b[0:])
	r.Key = binary.BigEndian.Uint64(b[2:])
	r.ReqID = binary.BigEndian.Uint64(b[10:])
	r.Origin = binary.BigEndian.Uint16(b[18:])
	return true
}

// ReadReply answers a ReadFwd with the committed value at the tail.
type ReadReply struct {
	Reg   uint16
	Key   uint64
	ReqID uint64
	Value []byte

	pooled[ReadReply]
}

// WireType implements Msg.
func (*ReadReply) WireType() Type { return TReadReply }

// Size implements Msg.
func (r *ReadReply) Size() int { return 1 + 2 + 8 + 8 + 2 + len(r.Value) }

// Marshal implements Msg.
func (r *ReadReply) Marshal(dst []byte) []byte {
	dst = append(dst, byte(TReadReply))
	dst = binary.BigEndian.AppendUint16(dst, r.Reg)
	dst = binary.BigEndian.AppendUint64(dst, r.Key)
	dst = binary.BigEndian.AppendUint64(dst, r.ReqID)
	return putValue(dst, r.Value)
}

func (r *ReadReply) decode(b []byte) bool {
	if len(b) < 20 {
		return false
	}
	v, _, ok := valueView(b[18:])
	if !ok {
		return false
	}
	r.Reg = binary.BigEndian.Uint16(b[0:])
	r.Key = binary.BigEndian.Uint64(b[2:])
	r.ReqID = binary.BigEndian.Uint64(b[10:])
	r.Value = v
	return true
}

// ChainNack is a retransmission request from a chain member to its
// predecessor (the retransmit replication backend): the sender detected a
// sequence gap in group Group and asks for the writes with sequence numbers
// From..To (inclusive) from the predecessor's hold-back buffer.
type ChainNack struct {
	Reg   uint16
	Epoch uint32
	Group uint32
	From  uint64
	To    uint64

	pooled[ChainNack]
}

// WireType implements Msg.
func (*ChainNack) WireType() Type { return TChainNack }

// Size implements Msg.
func (*ChainNack) Size() int { return 1 + 2 + 4 + 4 + 8 + 8 }

// Marshal implements Msg.
func (m *ChainNack) Marshal(dst []byte) []byte {
	dst = append(dst, byte(TChainNack))
	dst = binary.BigEndian.AppendUint16(dst, m.Reg)
	dst = binary.BigEndian.AppendUint32(dst, m.Epoch)
	dst = binary.BigEndian.AppendUint32(dst, m.Group)
	dst = binary.BigEndian.AppendUint64(dst, m.From)
	return binary.BigEndian.AppendUint64(dst, m.To)
}

func (m *ChainNack) decode(b []byte) bool {
	if len(b) < 26 {
		return false
	}
	m.Reg = binary.BigEndian.Uint16(b[0:])
	m.Epoch = binary.BigEndian.Uint32(b[2:])
	m.Group = binary.BigEndian.Uint32(b[6:])
	m.From = binary.BigEndian.Uint64(b[10:])
	m.To = binary.BigEndian.Uint64(b[18:])
	return true
}

// ChainCursor carries cumulative sequence-cursor state between adjacent chain
// members (retransmit backend). With Skip unset it flows downstream→upstream:
// "I have applied every write through Seq in Group — retransmit-buffer
// entries at or below it can be freed." With Skip set it flows
// upstream→downstream as the reply to an unserviceable ChainNack: "I cannot
// supply writes at or below Seq — abandon the gap and resume from there"
// (the counted degradation back to monotone apply).
type ChainCursor struct {
	Reg   uint16
	Epoch uint32
	Group uint32
	Seq   uint64
	Skip  bool

	pooled[ChainCursor]
}

// WireType implements Msg.
func (*ChainCursor) WireType() Type { return TChainCursor }

// Size implements Msg.
func (*ChainCursor) Size() int { return 1 + 2 + 4 + 4 + 8 + 1 }

// Marshal implements Msg.
func (m *ChainCursor) Marshal(dst []byte) []byte {
	dst = append(dst, byte(TChainCursor))
	dst = binary.BigEndian.AppendUint16(dst, m.Reg)
	dst = binary.BigEndian.AppendUint32(dst, m.Epoch)
	dst = binary.BigEndian.AppendUint32(dst, m.Group)
	dst = binary.BigEndian.AppendUint64(dst, m.Seq)
	skip := byte(0)
	if m.Skip {
		skip = 1
	}
	return append(dst, skip)
}

func (m *ChainCursor) decode(b []byte) bool {
	if len(b) < 19 || b[18] > 1 {
		return false
	}
	m.Reg = binary.BigEndian.Uint16(b[0:])
	m.Epoch = binary.BigEndian.Uint32(b[2:])
	m.Group = binary.BigEndian.Uint32(b[6:])
	m.Seq = binary.BigEndian.Uint64(b[10:])
	m.Skip = b[18] == 1
	return true
}

// EWOEntry is one (key, stamp, value) record of an EWO update (§6.2/§7:
// "write update packets containing only this switch's new version numbers
// and values").
type EWOEntry struct {
	Key   uint64
	Stamp timesync.Stamp
	Value []byte
}

// Size returns the entry's encoded size: Key + Stamp.Time + Stamp.Node +
// value length prefix + value.
func (e *EWOEntry) Size() int { return 8 + 8 + 2 + 2 + len(e.Value) }

// EWOUpdateOverhead is an EWOUpdate's encoded size before its entries: type
// byte + Reg + From + Slot + Sync + entry count.
const EWOUpdateOverhead = 1 + 2 + 2 + 2 + 1 + 2

// EWOUpdate carries EWO entries. With Sync clear it is the egress-mirrored
// packet of §6.2/§7: the write set of one instant on the sender (every
// register write its packets made at that virtual time, one entry per slot
// written, the last value of a slot written twice) — or of several instants
// when the register batches (§7 batching). With Sync set it is one packet of
// the periodic packet-generator synchronization sweep.
type EWOUpdate struct {
	Reg     uint16
	From    uint16
	Slot    uint16 // CRDT vector slot the entries belong to (== sender index)
	Sync    bool   // true if part of a periodic full synchronization
	Entries []EWOEntry

	// A recycled update comes back with its Entries as the last holder left
	// them; whoever takes it from a free list truncates before refilling.
	pooled[EWOUpdate]
}

// WireType implements Msg.
func (*EWOUpdate) WireType() Type { return TEWOUpdate }

// Size implements Msg.
func (u *EWOUpdate) Size() int {
	n := EWOUpdateOverhead
	for i := range u.Entries {
		n += u.Entries[i].Size()
	}
	return n
}

// Marshal implements Msg.
func (u *EWOUpdate) Marshal(dst []byte) []byte {
	dst = append(dst, byte(TEWOUpdate))
	dst = binary.BigEndian.AppendUint16(dst, u.Reg)
	dst = binary.BigEndian.AppendUint16(dst, u.From)
	dst = binary.BigEndian.AppendUint16(dst, u.Slot)
	if u.Sync {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(u.Entries)))
	for i := range u.Entries {
		e := &u.Entries[i]
		dst = binary.BigEndian.AppendUint64(dst, e.Key)
		dst = binary.BigEndian.AppendUint64(dst, uint64(e.Stamp.Time))
		dst = binary.BigEndian.AppendUint16(dst, uint16(e.Stamp.Node))
		dst = putValue(dst, e.Value)
	}
	return dst
}

func (u *EWOUpdate) decode(b []byte) bool {
	if len(b) < 9 {
		return false
	}
	n := int(binary.BigEndian.Uint16(b[7:]))
	if 18*n > len(b)-9 {
		// Every entry costs at least its fixed 18 bytes; a count that cannot
		// fit is a count bomb and must not size an allocation.
		return false
	}
	u.Reg = binary.BigEndian.Uint16(b[0:])
	u.From = binary.BigEndian.Uint16(b[2:])
	u.Slot = binary.BigEndian.Uint16(b[4:])
	u.Sync = b[6] == 1
	b = b[9:]
	es := u.Entries[:0]
	if cap(es) < n {
		es = make([]EWOEntry, 0, n)
	}
	for i := 0; i < n; i++ {
		if len(b) < 18 {
			return false
		}
		e := EWOEntry{
			Key: binary.BigEndian.Uint64(b[0:]),
			Stamp: timesync.Stamp{
				Time: sim.Time(binary.BigEndian.Uint64(b[8:])),
				Node: timesync.NodeID(binary.BigEndian.Uint16(b[16:])),
			},
		}
		var ok bool
		if e.Value, b, ok = valueView(b[18:]); !ok {
			return false
		}
		es = append(es, e)
	}
	u.Entries = es
	return true
}

// Heartbeat is the liveness probe switches send to the controller.
type Heartbeat struct {
	From uint16
	Seq  uint64

	// Heartbeats fire every HeartbeatPeriod on every monitored switch, so
	// recycling them keeps long idle simulations allocation-free.
	pooled[Heartbeat]
}

// WireType implements Msg.
func (*Heartbeat) WireType() Type { return THeartbeat }

// Size implements Msg.
func (*Heartbeat) Size() int { return 1 + 2 + 8 }

// Marshal implements Msg.
func (h *Heartbeat) Marshal(dst []byte) []byte {
	dst = append(dst, byte(THeartbeat))
	dst = binary.BigEndian.AppendUint16(dst, h.From)
	return binary.BigEndian.AppendUint64(dst, h.Seq)
}

func (h *Heartbeat) decode(b []byte) bool {
	if len(b) < 10 {
		return false
	}
	h.From = binary.BigEndian.Uint16(b[0:])
	h.Seq = binary.BigEndian.Uint64(b[2:])
	return true
}

// ChainConfig announces a new chain membership (§6.3 failover/recovery).
// Members are ordered head..tail. Joining is the address of a switch that is
// receiving writes but not yet serving as tail (recovery phase b), or 0.
type ChainConfig struct {
	Epoch   uint32
	Members []uint16
	Joining uint16
}

// WireType implements Msg.
func (*ChainConfig) WireType() Type { return TChainConfig }

// Size implements Msg.
func (c *ChainConfig) Size() int { return 1 + 4 + 2 + 2 + 2*len(c.Members) }

// Marshal implements Msg.
func (c *ChainConfig) Marshal(dst []byte) []byte {
	dst = append(dst, byte(TChainConfig))
	dst = binary.BigEndian.AppendUint32(dst, c.Epoch)
	dst = binary.BigEndian.AppendUint16(dst, c.Joining)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(c.Members)))
	for _, m := range c.Members {
		dst = binary.BigEndian.AppendUint16(dst, m)
	}
	return dst
}

func unmarshalChainConfig(b []byte) (*ChainConfig, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("wire: truncated ChainConfig (%d bytes)", len(b))
	}
	c := &ChainConfig{
		Epoch:   binary.BigEndian.Uint32(b[0:]),
		Joining: binary.BigEndian.Uint16(b[4:]),
	}
	n := int(binary.BigEndian.Uint16(b[6:]))
	b = b[8:]
	if len(b) < 2*n {
		return nil, fmt.Errorf("wire: truncated ChainConfig members")
	}
	c.Members = make([]uint16, n)
	for i := 0; i < n; i++ {
		c.Members[i] = binary.BigEndian.Uint16(b[2*i:])
	}
	return c, nil
}

// GroupConfig announces EWO multicast group membership (§6.3: failover is
// "removing the failed switch from the multicast group"; recovery is adding
// the new switch and waiting one sync period).
type GroupConfig struct {
	Epoch   uint32
	Members []uint16
}

// WireType implements Msg.
func (*GroupConfig) WireType() Type { return TGroupConfig }

// Size implements Msg.
func (g *GroupConfig) Size() int { return 1 + 4 + 2 + 2*len(g.Members) }

// Marshal implements Msg.
func (g *GroupConfig) Marshal(dst []byte) []byte {
	dst = append(dst, byte(TGroupConfig))
	dst = binary.BigEndian.AppendUint32(dst, g.Epoch)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(g.Members)))
	for _, m := range g.Members {
		dst = binary.BigEndian.AppendUint16(dst, m)
	}
	return dst
}

// Hello announces a node to the controller over the live UDP transport
// (netem/live): "address From is reachable at the datagram's source
// endpoint". Nodes repeat it until the controller's PeerList arrives, so the
// bootstrap survives loss. The simulated fabric never carries it.
type Hello struct {
	From uint16
	// Gen distinguishes restarts of the same address (a fresh socket gets a
	// fresh generation, so the controller can update its endpoint map).
	Gen uint32
}

// WireType implements Msg.
func (*Hello) WireType() Type { return THello }

// Size implements Msg.
func (*Hello) Size() int { return 1 + 2 + 4 }

// Marshal implements Msg.
func (h *Hello) Marshal(dst []byte) []byte {
	dst = append(dst, byte(THello))
	dst = binary.BigEndian.AppendUint16(dst, h.From)
	return binary.BigEndian.AppendUint32(dst, h.Gen)
}

func unmarshalHello(b []byte) (*Hello, error) {
	if len(b) < 6 {
		return nil, fmt.Errorf("wire: truncated Hello (%d bytes)", len(b))
	}
	return &Hello{From: binary.BigEndian.Uint16(b[0:]), Gen: binary.BigEndian.Uint32(b[2:])}, nil
}

// PeerEntry maps a SwiShmem address to a UDP endpoint (IPv4 only — the live
// transport binds udp4).
type PeerEntry struct {
	Addr uint16
	IP   [4]byte
	Port uint16
}

// PeerList is the controller's directory broadcast for the live transport:
// every known (address, endpoint) pair, re-sent periodically so nodes that
// missed an epoch converge. Epochs are monotone; receivers ignore stale
// lists.
type PeerList struct {
	Epoch uint32
	Peers []PeerEntry
}

// WireType implements Msg.
func (*PeerList) WireType() Type { return TPeerList }

// Size implements Msg.
func (p *PeerList) Size() int { return 1 + 4 + 2 + 8*len(p.Peers) }

// Marshal implements Msg.
func (p *PeerList) Marshal(dst []byte) []byte {
	dst = append(dst, byte(TPeerList))
	dst = binary.BigEndian.AppendUint32(dst, p.Epoch)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Peers)))
	for i := range p.Peers {
		e := &p.Peers[i]
		dst = binary.BigEndian.AppendUint16(dst, e.Addr)
		dst = append(dst, e.IP[0], e.IP[1], e.IP[2], e.IP[3])
		dst = binary.BigEndian.AppendUint16(dst, e.Port)
	}
	return dst
}

func unmarshalPeerList(b []byte) (*PeerList, error) {
	if len(b) < 6 {
		return nil, fmt.Errorf("wire: truncated PeerList (%d bytes)", len(b))
	}
	p := &PeerList{Epoch: binary.BigEndian.Uint32(b[0:])}
	n := int(binary.BigEndian.Uint16(b[4:]))
	b = b[6:]
	if len(b) < 8*n {
		return nil, fmt.Errorf("wire: truncated PeerList entries")
	}
	p.Peers = make([]PeerEntry, n)
	for i := 0; i < n; i++ {
		e := &p.Peers[i]
		e.Addr = binary.BigEndian.Uint16(b[8*i:])
		copy(e.IP[:], b[8*i+2:8*i+6])
		e.Port = binary.BigEndian.Uint16(b[8*i+6:])
	}
	return p, nil
}

func unmarshalGroupConfig(b []byte) (*GroupConfig, error) {
	if len(b) < 6 {
		return nil, fmt.Errorf("wire: truncated GroupConfig (%d bytes)", len(b))
	}
	g := &GroupConfig{Epoch: binary.BigEndian.Uint32(b[0:])}
	n := int(binary.BigEndian.Uint16(b[4:]))
	b = b[6:]
	if len(b) < 2*n {
		return nil, fmt.Errorf("wire: truncated GroupConfig members")
	}
	g.Members = make([]uint16, n)
	for i := 0; i < n; i++ {
		g.Members[i] = binary.BigEndian.Uint16(b[2*i:])
	}
	return g, nil
}

// Batch is a multi-update datagram: a run of sub-messages coalesced into one
// wire frame so a sync round's worth of EWO updates (or any same-destination
// burst) costs one datagram instead of N. Layout after the type tag:
//
//	[u16 count] then count x ([u16 len][sub-message bytes])
//
// A sub-message is a complete Marshal encoding, tag included. Batches never
// nest: a TBatch frame inside a batch is a decode error. Receivers on the
// hot path should not decode through this struct at all — WalkBatch visits
// the raw frames in place so pooled sub-message decoding stays zero-copy.
type Batch struct {
	Msgs []Msg
}

// WireType implements Msg.
func (*Batch) WireType() Type { return TBatch }

// Size implements Msg.
func (b *Batch) Size() int {
	n := 1 + 2
	for _, m := range b.Msgs {
		n += 2 + m.Size()
	}
	return n
}

// Marshal implements Msg.
func (b *Batch) Marshal(dst []byte) []byte {
	dst = append(dst, byte(TBatch))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(b.Msgs)))
	for _, m := range b.Msgs {
		dst = binary.BigEndian.AppendUint16(dst, uint16(m.Size()))
		dst = m.Marshal(dst)
	}
	return dst
}

func unmarshalBatch(b []byte) (*Batch, error) {
	out := &Batch{}
	err := WalkBatch(b, func(frame []byte) error {
		if len(frame) > 0 && Type(frame[0]) == TBatch {
			return fmt.Errorf("wire: nested Batch")
		}
		m, err := Unmarshal(frame)
		if err != nil {
			return err
		}
		out.Msgs = append(out.Msgs, m)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WalkBatch validates a batch body (everything after the TBatch tag) and
// then invokes fn once per sub-message frame, in order. Validation is
// all-or-nothing and happens before the first callback: a truncated length
// prefix, a frame running past the buffer, a count that cannot fit, or
// trailing garbage after the last frame rejects the whole datagram — fn
// never sees a partial batch, so a pooled decoder cannot leak half-taken
// buffers. An fn error aborts the walk and is returned as-is.
func WalkBatch(body []byte, fn func(frame []byte) error) error {
	if len(body) < 2 {
		return fmt.Errorf("wire: truncated Batch header (%d bytes)", len(body))
	}
	count := int(binary.BigEndian.Uint16(body))
	if count == 0 {
		// The egress never sends an empty batch; one on the wire is noise.
		return fmt.Errorf("wire: empty Batch")
	}
	rest := body[2:]
	if len(rest) < 2*count {
		// Each frame costs at least its own length prefix; a count that
		// cannot fit is a framing bomb, not a message.
		return fmt.Errorf("wire: Batch count %d exceeds body (%d bytes)", count, len(rest))
	}
	scan := rest
	for i := 0; i < count; i++ {
		if len(scan) < 2 {
			return fmt.Errorf("wire: truncated Batch frame %d length", i)
		}
		n := int(binary.BigEndian.Uint16(scan))
		scan = scan[2:]
		if len(scan) < n {
			return fmt.Errorf("wire: truncated Batch frame %d (%d < %d)", i, len(scan), n)
		}
		scan = scan[n:]
	}
	if len(scan) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after Batch frames", len(scan))
	}
	for i := 0; i < count; i++ {
		n := int(binary.BigEndian.Uint16(rest))
		if err := fn(rest[2 : 2+n]); err != nil {
			return err
		}
		rest = rest[2+n:]
	}
	return nil
}

// DatagramBytes caps a datagram's payload: a 1500-byte MTU with headroom for
// IP/UDP and the frame header. The live fabric's coalescing egress closes a
// batch datagram at it, and MaxUpdateBytes is derived from it.
const DatagramBytes = 1200

// MaxUpdateBytes is the largest message that fills a batch datagram alone:
// DatagramBytes less the batch's 3-byte header and the message's 2-byte frame
// length. EWO packs every update it sends, write or sync, under it.
const MaxUpdateBytes = DatagramBytes - 3 - 2

// BatchBuilder accumulates sub-messages into a reusable batch encoding for
// the coalescing egress path: one builder per destination, Reset between
// datagrams, and the backing buffer is retained across uses so steady-state
// batching allocates nothing.
type BatchBuilder struct {
	buf   []byte // [TBatch][u16 count placeholder][frames...]
	count int
}

// Reset empties the builder, keeping its buffer.
func (b *BatchBuilder) Reset() {
	if b.buf == nil {
		b.buf = make([]byte, 3, 1<<10)
	}
	b.buf = b.buf[:3]
	b.buf[0] = byte(TBatch)
	b.count = 0
}

// Count returns the number of sub-messages added since the last Reset.
func (b *BatchBuilder) Count() int { return b.count }

// Len returns the encoded datagram length so far (header included).
func (b *BatchBuilder) Len() int {
	if b.buf == nil {
		return 3
	}
	return len(b.buf)
}

// Add appends one sub-message frame.
func (b *BatchBuilder) Add(m Msg) {
	if b.buf == nil {
		b.Reset()
	}
	b.buf = binary.BigEndian.AppendUint16(b.buf, uint16(m.Size()))
	b.buf = m.Marshal(b.buf)
	b.count++
}

// Bytes finalizes the count header and returns the encoded datagram. The
// slice aliases the builder's buffer and is valid until the next Add/Reset.
func (b *BatchBuilder) Bytes() []byte {
	if b.buf == nil {
		b.Reset()
	}
	binary.BigEndian.PutUint16(b.buf[1:], uint16(b.count))
	return b.buf
}
