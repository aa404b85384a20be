package wire

// ViewSet is the zero-copy receive-side decoder: one set owns one datagram's
// bytes plus the pooled view messages decoded in place over them. Value
// fields of view messages alias the set's buffer, so the buffer (and the
// set) must stay alive until every message has been released — the set
// reference-counts exactly that: Decode takes one reference for the walk
// (dropped by Release) plus one per decoded message (dropped by the
// message's own final Release). When the count drains the recycle hook
// fires and the set — buffer, message structs, entry arrays and all — is
// ready for the next datagram.
//
// Decode copies the caller's payload into the set-owned buffer before
// slicing views out of it, so the caller keeps full ownership of payload;
// the copy is one memcpy per datagram versus Unmarshal's per-sub-frame
// struct, slice, and value allocations. A warmed set decodes a full batch
// datagram with zero allocations.
//
// Sets are single-goroutine objects: Decode and all Ref/Release calls on
// the set and its messages must be serialized by the caller (the live
// fabric does all of it on the pump goroutine).
type ViewSet struct {
	buf     []byte
	msgs    []Msg
	refs    int32
	recycle func(*ViewSet)

	// Typed spares: each view struct parks itself here on its final Release,
	// ready for the next datagram.
	writes  []*Write
	acks    []*WriteAck
	fwds    []*ReadFwd
	replies []*ReadReply
	updates []*EWOUpdate
	beats   []*Heartbeat
	nacks   []*ChainNack
	cursors []*ChainCursor
}

// NewViewSet creates an empty set. recycle (optional) receives the set when
// its reference count drains to zero after a Decode — the hand-back that
// lets the fabric pool sets instead of allocating per datagram.
func NewViewSet(recycle func(*ViewSet)) *ViewSet {
	return &ViewSet{recycle: recycle}
}

// unref drops one set reference; the walk reference and every view
// message's final Release funnel here.
func (s *ViewSet) unref() {
	s.refs--
	switch {
	case s.refs == 0:
		if s.recycle != nil {
			s.recycle(s)
		}
	case s.refs < 0:
		panic("wire: ViewSet over-released")
	}
}

// Release drops the walk reference taken by Decode. The decoded messages
// keep the set (and therefore their aliased values) alive until their own
// final Releases.
func (s *ViewSet) Release() { s.unref() }

// Decode consumes one datagram: either a single frame or a TBatch of
// frames. It returns the view messages in frame order plus the number of
// undecodable frames; a batch-level framing error or an undecodable single
// frame yields (nil, errs) with errs > 0. The returned slice is owned by the
// set and valid until the next Decode. The caller must Release the set once
// (regardless of errors) and arrange for every returned message to be
// released exactly once more than it was Ref'd.
func (s *ViewSet) Decode(payload []byte) (msgs []Msg, errs uint32) {
	if s.refs != 0 {
		panic("wire: ViewSet reused while messages are still referenced")
	}
	clear(s.msgs)
	s.msgs = s.msgs[:0]
	s.buf = append(s.buf[:0], payload...)
	s.refs = 1 // the walk reference, dropped by Release

	buf := s.buf
	if len(buf) > 0 && Type(buf[0]) == TBatch {
		err := WalkBatch(buf[1:], func(frame []byte) error {
			if len(frame) == 0 || Type(frame[0]) == TBatch {
				errs++ // batches never nest
				return nil
			}
			if !s.decodeFrame(frame) {
				errs++
			}
			return nil
		})
		if err != nil {
			// WalkBatch validates the whole framing before the first
			// callback, so a framing error means no frame was decoded.
			return nil, errs + 1
		}
		return s.msgs, errs
	}
	if !s.decodeFrame(buf) {
		return nil, 1
	}
	return s.msgs, 0
}

// decodeFrame slices one view message out of the set buffer. Types without
// a view decoder (configuration and bootstrap messages) go through the
// allocating Unmarshal — they are rare, and their decoded form holds no set
// reference.
func (s *ViewSet) decodeFrame(frame []byte) bool {
	if len(frame) == 0 {
		return false
	}
	body := frame[1:]
	switch Type(frame[0]) {
	case TWrite:
		return view(s, &s.writes, body)
	case TWriteAck:
		return view(s, &s.acks, body)
	case TReadFwd:
		return view(s, &s.fwds, body)
	case TReadReply:
		return view(s, &s.replies, body)
	case TEWOUpdate:
		return view(s, &s.updates, body)
	case THeartbeat:
		return view(s, &s.beats, body)
	case TChainNack:
		return view(s, &s.nacks, body)
	case TChainCursor:
		return view(s, &s.cursors, body)
	default:
		m, err := Unmarshal(frame)
		if err != nil {
			return false
		}
		s.msgs = append(s.msgs, m)
		return true
	}
}

// view decodes body into a spare *T (or a fresh one wired to park itself
// back on spares and drop its set reference when fully released) and
// registers it: one set reference plus the message's own creator reference,
// dropped by the receive path after the handler chain is done with it.
func view[T any, P interface {
	*T
	viewMsg
	EnablePool(func(*T))
	Ref()
}](s *ViewSet, spares *[]*T, body []byte) bool {
	var m *T
	if n := len(*spares); n > 0 {
		m = (*spares)[n-1]
		(*spares)[n-1] = nil
		*spares = (*spares)[:n-1]
	} else {
		m = new(T)
		P(m).EnablePool(func(released *T) {
			*spares = append(*spares, released)
			s.unref()
		})
	}
	if !P(m).decode(body) {
		*spares = append(*spares, m)
		return false
	}
	P(m).Ref()
	s.refs++
	s.msgs = append(s.msgs, P(m))
	return true
}
