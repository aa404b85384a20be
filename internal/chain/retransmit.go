package chain

import (
	"fmt"
	"sort"

	"swishmem/internal/netem"
	"swishmem/internal/pisa"
	"swishmem/internal/wire"
)

// RetransmitNode is the RetransmitReplication backend: the writer, read, and
// recovery machinery is the chain Node's, but the hop discipline is in-order
// apply with data-plane hold-back/retransmit buffers instead of monotone
// apply (the §9 buffering/retransmission mode the paper leaves open).
//
// Protocol, per sequence group:
//
//   - A member applies a write only when its sequence number is exactly
//     appliedSeq+1. Later arrivals wait in a bounded hold-back buffer; the
//     member NACKs its predecessor for the missing range and re-NACKs on a
//     retry timer while the gap persists.
//   - A member that forwards a write keeps a copy in a bounded per-group
//     retransmit ring and answers NACKs from it. The tail's WriteAck
//     broadcast doubles as the cumulative ack: a commit of sequence S means
//     every member applied everything through S (in-order apply), so ring
//     entries at or below S are freed. A member that repairs a gap also
//     sends an explicit cumulative ChainCursor upstream.
//   - If a NACKed write is no longer buffered (ring overflow), the
//     predecessor answers with a skip ChainCursor and the successor abandons
//     the gap — a counted (Stats.RtxAbandoned) degradation back to monotone
//     apply, which reopens the anomaly window for that gap. With a depth
//     matched to the per-group in-flight window it never fires.
//
// Correctness: the tail committing sequence S in order implies every member
// applied every write through S, so the ack-driven pending-bit clear can
// never expose an uncommitted value — the E15 anomaly cannot occur while no
// gap has been abandoned.
//
// On an epoch change the hold-back buffers are discarded (a new head may
// reassign their sequence numbers) but the retransmit rings are kept: chain
// reconfiguration preserves member order, so the surviving prefix of every
// group's sequence history is consistent across members and old entries
// remain valid answers to new-epoch NACKs.
type RetransmitNode struct {
	*Node
}

// bufWrite is one buffered write copy (hold-back or retransmit ring). Values
// are copied: a frame in flight may alias a writer's reusable buffer.
type bufWrite struct {
	seq     uint64
	key     uint64
	writeID uint64
	writer  uint16
	val     []byte
}

// rtxRing is one group's bounded buffer of forwarded writes, indexed
// seq%depth. Sequences are forwarded in order, so retained entries are the
// contiguous window (freed, hi].
type rtxRing struct {
	hi      uint64
	freed   uint64
	entries []bufWrite
}

// rtxState carries the retransmit backend's hop state, referenced from the
// embedded Node via its hop field so the shared write path reaches it.
type rtxState struct {
	n     *Node
	depth int

	rings map[int]*rtxRing   // by group; never ranged (determinism)
	holds map[int][]bufWrite // by group, sorted by seq; never ranged

	// gapped lists groups with held frames, sorted, for the repair scan.
	gapped    []int
	heldTotal int

	// disabled is the InjectDisableRetransmit verification bug: buffer
	// nothing, so every NACK is unserviceable.
	disabled bool

	// SRAM charges for the two buffers (E10-style accounting).
	rtxArr  *pisa.RegisterArray
	holdArr *pisa.RegisterArray

	repairArmed bool
	repairCtrl  func() // schedules repair on the control plane, bound once
}

// NewRetransmitNode creates the retransmit-backend instance and allocates
// its SRAM: the chain Node's store and sequence/pending array plus the two
// per-group buffers (Groups x RetransmitDepth entries of
// seq+key+writeID+writer+value bytes each).
func NewRetransmitNode(sw *pisa.Switch, cfg Config) (*RetransmitNode, error) {
	cfg.Replication = RetransmitReplication
	n, err := NewNode(sw, cfg)
	if err != nil {
		return nil, err
	}
	rn := &RetransmitNode{Node: n}
	if n.cfg.Proxy {
		return rn, nil // proxies never participate in propagation
	}
	c := n.cfg
	width := 26 + c.ValueWidth // 8 seq + 8 key + 8 writeID + 2 writer + value
	rtxArr, err := sw.NewRegisterArray(fmt.Sprintf("chain-rtx%d", c.Reg), c.Groups*c.RetransmitDepth, width)
	if err != nil {
		n.store.Free()
		n.seqPend.Free()
		return nil, err
	}
	holdArr, err := sw.NewRegisterArray(fmt.Sprintf("chain-hold%d", c.Reg), c.Groups*c.RetransmitDepth, width)
	if err != nil {
		rtxArr.Free()
		n.store.Free()
		n.seqPend.Free()
		return nil, err
	}
	st := &rtxState{
		n:       n,
		depth:   c.RetransmitDepth,
		rings:   make(map[int]*rtxRing),
		holds:   make(map[int][]bufWrite),
		rtxArr:  rtxArr,
		holdArr: holdArr,
	}
	st.repairCtrl = func() { sw.CtrlDo(st.repair) }
	n.hop = st
	return rn, nil
}

// MemoryBytes adds the hold-back and retransmit buffers to the chain node's
// SRAM footprint.
func (rn *RetransmitNode) MemoryBytes() int {
	if rn.hop == nil {
		return 0 // proxy
	}
	return rn.Node.MemoryBytes() + rn.hop.rtxArr.Bytes() + rn.hop.holdArr.Bytes()
}

// HeldFrames implements Replicator.
func (rn *RetransmitNode) HeldFrames() int {
	if rn.hop == nil {
		return 0
	}
	return rn.hop.heldTotal
}

// InjectDisableRetransmit implements Replicator: see rtxState.disabled.
func (rn *RetransmitNode) InjectDisableRetransmit() {
	if rn.hop != nil {
		rn.hop.disabled = true
	}
}

// Handle routes the retransmit-backend control frames, deferring everything
// else to the chain node.
func (rn *RetransmitNode) Handle(from netem.Addr, msg wire.Msg) bool {
	switch m := msg.(type) {
	case *wire.ChainNack:
		if m.Reg != rn.cfg.Reg {
			return false
		}
		if rn.hop == nil {
			return true // proxy
		}
		if rn.cfg.Backing == ControlPlane {
			rn.dispatch(m, func() { rn.hop.processNack(from, m) })
		} else {
			rn.hop.processNack(from, m)
		}
		return true
	case *wire.ChainCursor:
		if m.Reg != rn.cfg.Reg {
			return false
		}
		if rn.hop == nil {
			return true // proxy
		}
		if rn.cfg.Backing == ControlPlane {
			rn.dispatch(m, func() { rn.hop.processCursor(m) })
		} else {
			rn.hop.processCursor(m)
		}
		return true
	}
	return rn.Node.Handle(from, msg)
}

// predecessor returns the previous hop before this switch, or 0 if none.
func (n *Node) predecessor() netem.Addr {
	for i, m := range n.chain.Members {
		if netem.Addr(m) == n.sw.Addr() {
			if i > 0 {
				return netem.Addr(n.chain.Members[i-1])
			}
			return 0
		}
	}
	return 0
}

// deliver is the in-order hop discipline (called from Node.process after the
// head assigned fresh sequence numbers and the epoch was checked).
func (s *rtxState) deliver(from netem.Addr, w *wire.Write) {
	n := s.n
	g := n.group(w.Key)
	next := n.appliedSeq(g) + 1
	switch {
	case w.Seq < next:
		// Duplicate or already-recovered retransmission.
		n.Stats.StaleDropped.Inc()
		if n.IsTail() {
			n.commitAtTail(w, false)
		}
	case w.Seq == next:
		s.applyForward(w)
		if s.drainHold(g) > 0 {
			// A gap was just repaired: cumulative cursor upstream so the
			// predecessor can free its ring before the tail ack arrives.
			s.sendCursor(g)
		}
	default:
		s.holdBack(g, w)
		s.sendNack(g, next, w.Seq-1)
	}
}

// applyForward applies an in-sequence write and passes it on: commit at the
// tail, else record a copy for retransmission and forward.
func (s *rtxState) applyForward(w *wire.Write) {
	n := s.n
	g := n.group(w.Key)
	applied := n.apply(w)
	if !applied && w.Seq > n.appliedSeq(g) {
		// Store capacity exhausted: advance the sequence floor anyway so the
		// group is not wedged; the writer's retries surface the failure
		// (parity with the chain backend, where later sequences also
		// proceed past the failed write).
		n.setApplied(g, w.Seq, false)
	}
	if n.IsTail() {
		n.commitAtTail(w, applied)
		return
	}
	succ := n.successor()
	if succ == 0 {
		return
	}
	s.store(g, w)
	n.sw.Send(succ, w)
}

// store records a forwarded write in the group's retransmit ring.
func (s *rtxState) store(g int, w *wire.Write) {
	if s.disabled {
		return
	}
	r := s.rings[g]
	if r == nil {
		r = &rtxRing{entries: make([]bufWrite, s.depth)}
		s.rings[g] = r
	}
	e := &r.entries[w.Seq%uint64(s.depth)]
	e.seq, e.key, e.writeID, e.writer = w.Seq, w.Key, w.WriteID, w.Writer
	e.val = append(e.val[:0], w.Value...)
	if w.Seq > r.hi {
		r.hi = w.Seq
	}
	s.n.Stats.RtxStored.Inc()
}

// lookup returns the buffered write for (group, seq) if still retained.
func (s *rtxState) lookup(g int, seq uint64) (*bufWrite, bool) {
	r := s.rings[g]
	if r == nil {
		return nil, false
	}
	e := &r.entries[seq%uint64(s.depth)]
	if e.seq != seq {
		return nil, false
	}
	return e, true
}

// freeThrough releases ring entries at or below seq (cumulative ack).
func (s *rtxState) freeThrough(g int, seq uint64) {
	r := s.rings[g]
	if r == nil || seq <= r.freed {
		return
	}
	lo := r.freed + 1
	if seq >= uint64(s.depth) && lo < seq-uint64(s.depth)+1 {
		lo = seq - uint64(s.depth) + 1
	}
	for q := lo; q <= seq; q++ {
		e := &r.entries[q%uint64(s.depth)]
		if e.seq == q {
			e.seq = 0
			e.val = e.val[:0]
		}
	}
	r.freed = seq
}

// holdBack parks an out-of-order write (copied — the frame may alias a
// writer's reusable buffer) in the group's bounded hold buffer. When full,
// the highest sequence is dropped: the lowest are the next to apply, and a
// dropped one is recoverable from the predecessor's ring via a later NACK.
func (s *rtxState) holdBack(g int, w *wire.Write) {
	h := s.holds[g]
	i := sort.Search(len(h), func(i int) bool { return h[i].seq >= w.Seq })
	if i < len(h) && h[i].seq == w.Seq {
		return // duplicate arrival of a held sequence
	}
	if len(h) >= s.depth {
		if w.Seq >= h[len(h)-1].seq {
			return
		}
		h = h[:len(h)-1]
		s.heldTotal--
	}
	h = append(h, bufWrite{})
	copy(h[i+1:], h[i:])
	h[i] = bufWrite{seq: w.Seq, key: w.Key, writeID: w.WriteID, writer: w.Writer,
		val: append([]byte(nil), w.Value...)}
	s.holds[g] = h
	s.heldTotal++
	s.addGapped(g)
	s.n.Stats.HeldBack.Inc()
}

// drainHold applies consecutively held writes after the floor advanced,
// returning how many were applied. Held sequences the floor has passed
// (skip cursor, retransmission overtake) are discarded.
func (s *rtxState) drainHold(g int) int {
	h := s.holds[g]
	if len(h) == 0 {
		return 0
	}
	n := s.n
	applied := 0
	for len(h) > 0 {
		next := n.appliedSeq(g) + 1
		if h[0].seq < next {
			h = h[1:]
			s.heldTotal--
			continue
		}
		if h[0].seq > next {
			break
		}
		bw := h[0]
		h = h[1:]
		s.heldTotal--
		w := &wire.Write{Reg: n.cfg.Reg, Key: bw.key, Seq: bw.seq, WriteID: bw.writeID,
			Writer: bw.writer, Epoch: n.chain.Epoch, Value: bw.val}
		s.applyForward(w)
		applied++
	}
	s.holds[g] = h
	if len(h) == 0 {
		s.removeGapped(g)
	}
	return applied
}

// sendNack asks the predecessor for the missing range and arms the repair
// timer for re-request if the gap persists.
func (s *rtxState) sendNack(g int, from, to uint64) {
	n := s.n
	if to < from {
		return
	}
	if pred := n.predecessor(); pred != 0 {
		n.Stats.NacksSent.Inc()
		n.sw.Send(pred, &wire.ChainNack{Reg: n.cfg.Reg, Epoch: n.chain.Epoch,
			Group: uint32(g), From: from, To: to})
	}
	s.armRepair()
}

// sendCursor reports the cumulative applied floor upstream.
func (s *rtxState) sendCursor(g int) {
	n := s.n
	if pred := n.predecessor(); pred != 0 {
		n.sw.Send(pred, &wire.ChainCursor{Reg: n.cfg.Reg, Epoch: n.chain.Epoch,
			Group: uint32(g), Seq: n.appliedSeq(g)})
	}
}

// processNack serves a successor's retransmission request from the ring.
// Sequences no longer retained are answered with a skip cursor carrying the
// highest unavailable sequence: retained entries are a contiguous recent
// window, so everything below it is equally gone.
func (s *rtxState) processNack(from netem.Addr, nk *wire.ChainNack) {
	n := s.n
	if nk.Epoch != n.chain.Epoch || nk.From == 0 || nk.To < nk.From {
		return
	}
	n.Stats.NacksReceived.Inc()
	g := int(nk.Group)
	lo := nk.From
	missing := uint64(0)
	if span := uint64(s.depth); nk.To-nk.From+1 > span {
		lo = nk.To - span + 1 // older sequences cannot be retained
		missing = lo - 1
	}
	for q := lo; q <= nk.To; q++ {
		e, ok := s.lookup(g, q)
		if !ok {
			missing = q
			continue
		}
		n.Stats.Retransmits.Inc()
		// Re-stamp with the current epoch: ring entries survive epoch
		// changes (member order is preserved, so the retained sequence
		// prefix stays consistent across members).
		n.sw.Send(from, &wire.Write{Reg: n.cfg.Reg, Key: e.key, Seq: q,
			WriteID: e.writeID, Writer: e.writer, Epoch: n.chain.Epoch,
			Value: append([]byte(nil), e.val...)})
	}
	if missing > 0 {
		n.sw.Send(from, &wire.ChainCursor{Reg: n.cfg.Reg, Epoch: n.chain.Epoch,
			Group: nk.Group, Seq: missing, Skip: true})
	}
}

// processCursor handles both cursor directions: a skip cursor abandons an
// unfillable gap (the counted degradation back to monotone apply); a plain
// cursor frees ring entries the successor has applied.
func (s *rtxState) processCursor(c *wire.ChainCursor) {
	n := s.n
	if c.Epoch != n.chain.Epoch {
		return
	}
	g := int(c.Group)
	if !c.Skip {
		s.freeThrough(g, c.Seq)
		return
	}
	if c.Seq <= n.appliedSeq(g) {
		return // the gap closed while the skip was in flight
	}
	n.Stats.RtxAbandoned.Inc()
	// Unknown commit state for the skipped range: set the pending bit so
	// SRO reads forward to the tail until the next commit clears it.
	n.setApplied(g, c.Seq, true)
	s.drainHold(g)
}

// armRepair schedules a control-plane re-NACK pass while gaps persist.
func (s *rtxState) armRepair() {
	if s.repairArmed || s.heldTotal == 0 {
		return
	}
	s.repairArmed = true
	s.n.sw.Engine().AfterVal(s.n.cfg.RetryTimeout, s.repairCtrl)
}

// repair re-NACKs every gapped group (the original NACK or its
// retransmissions may have been lost) and re-arms while gaps remain.
func (s *rtxState) repair() {
	s.repairArmed = false
	n := s.n
	// drainHold/sendNack mutate gapped; walk a copy.
	groups := append([]int(nil), s.gapped...)
	for _, g := range groups {
		s.drainHold(g)
		h := s.holds[g]
		if len(h) == 0 {
			continue
		}
		next := n.appliedSeq(g) + 1
		if h[0].seq > next {
			s.sendNack(g, next, h[0].seq-1)
		}
	}
	s.armRepair()
}

// epochChanged discards held frames: they carry the old epoch, and a new
// head may reassign their sequence numbers. Their writes are recoverable —
// the applied floor is unchanged, so the next arrival re-detects the gap and
// the NACK path refetches from the predecessor's retained ring.
func (s *rtxState) epochChanged() {
	for _, g := range s.gapped {
		s.holds[g] = s.holds[g][:0]
	}
	s.gapped = s.gapped[:0]
	s.heldTotal = 0
}

// addGapped/removeGapped maintain the sorted gapped-group list.
func (s *rtxState) addGapped(g int) {
	i := sort.SearchInts(s.gapped, g)
	if i < len(s.gapped) && s.gapped[i] == g {
		return
	}
	s.gapped = append(s.gapped, 0)
	copy(s.gapped[i+1:], s.gapped[i:])
	s.gapped[i] = g
}

func (s *rtxState) removeGapped(g int) {
	i := sort.SearchInts(s.gapped, g)
	if i < len(s.gapped) && s.gapped[i] == g {
		s.gapped = append(s.gapped[:i], s.gapped[i+1:]...)
	}
}
