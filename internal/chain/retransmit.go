package chain

import (
	"fmt"
	"slices"
	"sort"

	"swishmem/internal/netem"
	"swishmem/internal/pisa"
	"swishmem/internal/wire"
)

// This file is the RetransmitReplication hop discipline: a gate in front of
// Node.step that admits writes in exact sequence order, with data-plane
// hold-back/retransmit buffers (the §9 buffering/retransmission mode the
// paper leaves open). The writer, read, and recovery machinery is shared.
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

// rtxState is the in-order discipline's hop state (Node.hop).
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

// newRtxState allocates the two per-group buffers in n's switch SRAM.
func newRtxState(n *Node) (*rtxState, error) {
	c := n.cfg
	width := 26 + c.ValueWidth // 8 seq + 8 key + 8 writeID + 2 writer + value
	rtxArr, err := n.sw.NewRegisterArray(fmt.Sprintf("chain-rtx%d", c.Reg), c.Groups*c.RetransmitDepth, width)
	if err != nil {
		return nil, err
	}
	holdArr, err := n.sw.NewRegisterArray(fmt.Sprintf("chain-hold%d", c.Reg), c.Groups*c.RetransmitDepth, width)
	if err != nil {
		rtxArr.Free()
		return nil, err
	}
	s := &rtxState{
		n:       n,
		depth:   c.RetransmitDepth,
		rings:   make(map[int]*rtxRing),
		holds:   make(map[int][]bufWrite),
		rtxArr:  rtxArr,
		holdArr: holdArr,
	}
	s.repairCtrl = func() { n.sw.CtrlDo(s.repair) }
	return s, nil
}

// deliver is the in-order gate (called from Node.process after the head
// assigned fresh sequence numbers and the epoch was checked).
func (s *rtxState) deliver(w *wire.Write) {
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
		n.step(w)
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

// store records a forwarded write in its group's retransmit ring.
func (s *rtxState) store(w *wire.Write) {
	if s.disabled {
		return
	}
	g := s.n.group(w.Key)
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
	s.holds[g] = slices.Insert(h, i, bufWrite{seq: w.Seq, key: w.Key, writeID: w.WriteID,
		writer: w.Writer, val: append([]byte(nil), w.Value...)})
	s.heldTotal++
	if i, found := slices.BinarySearch(s.gapped, g); !found {
		s.gapped = slices.Insert(s.gapped, i, g)
	}
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
		n.step(w)
		applied++
	}
	s.holds[g] = h
	if len(h) == 0 {
		if i, found := slices.BinarySearch(s.gapped, g); found {
			s.gapped = slices.Delete(s.gapped, i, i+1)
		}
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
	if pred := n.neighbor(-1); pred != 0 {
		n.Stats.NacksSent.Inc()
		n.sw.Send(pred, &wire.ChainNack{Reg: n.cfg.Reg, Epoch: n.chain.Epoch,
			Group: uint32(g), From: from, To: to})
	}
	s.armRepair()
}

// sendCursor reports the cumulative applied floor upstream.
func (s *rtxState) sendCursor(g int) {
	n := s.n
	if pred := n.neighbor(-1); pred != 0 {
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
	r := s.rings[g]
	for q := lo; q <= nk.To; q++ {
		if r == nil || r.entries[q%uint64(s.depth)].seq != q {
			missing = q // no longer (or never) retained
			continue
		}
		e := &r.entries[q%uint64(s.depth)]
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
