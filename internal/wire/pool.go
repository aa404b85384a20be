package wire

// pooled is the reference-count plumbing every poolable message type embeds.
// EnablePool arms it; Ref/Release then count outstanding holders (the sender
// plus one per scheduled network delivery, or the decode path plus one per
// handler that keeps the message) and the last Release hands the message to
// free for reuse. Messages without a pool (decoded by Unmarshal or built
// as literals) ignore Ref/Release entirely, so the simulator's unpooled
// traffic is unaffected. The zero-copy receive path (ViewSet) is the main
// user: every view message's free hook drops one reference on its set.
//
// Each message type adds only `Release() { m.release(m) }`: the hook wants
// the message, and an embedded struct cannot name its holder.
type pooled[T any] struct {
	refs int32
	free func(*T)
}

// EnablePool marks the message as pooled: when its reference count drains to
// zero, free receives it for reuse (slices keep their backing arrays across
// recycling, so a warmed pool marshals and batches without allocating).
func (p *pooled[T]) EnablePool(free func(*T)) { p.free = free }

// Pooled reports whether pool plumbing is armed (netem.PoolAware): an
// unpooled message is a plain immutable payload and may cross simulator
// shard boundaries by pointer.
func (p *pooled[T]) Pooled() bool { return p.free != nil }

// Ref takes a reference on a pooled message (no-op otherwise).
func (p *pooled[T]) Ref() {
	if p.free != nil {
		p.refs++
	}
}

// release drops a reference; the last holder returns self to its pool.
// Holders must not touch the message after releasing it.
func (p *pooled[T]) release(self *T) {
	if p.free == nil {
		return
	}
	p.refs--
	switch {
	case p.refs == 0:
		p.free(self)
	case p.refs < 0:
		panic("wire: pooled message over-released")
	}
}

// Release drops a reference (no-op on an unpooled message).
func (w *Write) Release()       { w.release(w) }
func (a *WriteAck) Release()    { a.release(a) }
func (r *ReadFwd) Release()     { r.release(r) }
func (r *ReadReply) Release()   { r.release(r) }
func (m *ChainNack) Release()   { m.release(m) }
func (m *ChainCursor) Release() { m.release(m) }
func (u *EWOUpdate) Release()   { u.release(u) }
func (h *Heartbeat) Release()   { h.release(h) }
