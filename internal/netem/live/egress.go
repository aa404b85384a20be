package live

import (
	"sync"

	"swishmem/internal/netem"
	"swishmem/internal/wire"
)

// egressWorker owns the serialization, batch packing, and socket writes for
// every destination that hashes to it: sendOne and flushBatches are the
// fabric's only serialise-coalesce-write code. With EgressShards <= 1 the
// pump calls the single worker directly. With K workers each runs loop on
// its own goroutine: the pump queues eRec hand-offs under the worker mutex
// (destination affinity keeps per-peer frame order); the worker drains,
// marshals, and writes — the transport Node is internally locked, so
// concurrent workers interleave safely at datagram granularity — then parks
// the pooled messages it is done with on its done list for the pump to
// release (message free lists are pump-owned, so workers never Release
// themselves).
type egressWorker struct {
	f    *Fabric
	wake chan struct{}

	mu    sync.Mutex
	queue []eRec     // pump → worker hand-offs
	done  []wire.Msg // worker → pump finished pooled messages

	// Worker-local state (no locking): per-destination batch builders and
	// the destinations opened since the last flush, plus reusable scratch.
	batches netem.AddrTable[*wire.BatchBuilder]
	dirty   []netem.Addr
	local   []eRec
	rel     []wire.Msg
}

// coalesceLimit caps a coalesced datagram's payload bytes: under a 1500-byte
// MTU with headroom for IP/UDP and the frame header. A constant because
// every deployment shares the MTU argument and ewo.Config.SyncPacketBytes
// is sized against it.
const coalesceLimit = 1200

// egressDoneWake is the done-list size past which a worker wakes the pump
// for collection; below it, collection piggybacks on the next natural pump
// round (so an idle-ish fabric is not forced into extra rounds, which the
// soak's pump-efficiency oracle would flag).
const egressDoneWake = 256

func newEgressWorker(f *Fabric) *egressWorker {
	return &egressWorker{f: f, wake: make(chan struct{}, 1)}
}

// loop drains hand-offs until the fabric stops; the final pump's
// flushEgress runs before egStop closes, so everything queued is written
// before exit.
func (w *egressWorker) loop() {
	defer w.f.egWG.Done()
	for {
		stopping := false
		select {
		case <-w.f.egStop:
			stopping = true
		case <-w.wake:
		}
		w.drain()
		if stopping {
			return
		}
	}
}

// drain processes every queued record, closing out open batches whenever
// the queue runs dry, so coalescing never delays a frame past the hand-off
// burst that produced it.
func (w *egressWorker) drain() {
	for {
		w.mu.Lock()
		w.local, w.queue = w.queue, w.local[:0]
		w.mu.Unlock()
		if len(w.local) == 0 {
			return
		}
		for i := range w.local {
			w.sendOne(w.local[i].to, w.local[i].msg)
			if _, ok := w.local[i].msg.(netem.Releasable); ok {
				w.rel = append(w.rel, w.local[i].msg)
			}
			w.local[i] = eRec{}
		}
		w.flushBatches()
		if len(w.rel) == 0 {
			continue
		}
		w.mu.Lock()
		w.done = append(w.done, w.rel...)
		n := len(w.done)
		w.mu.Unlock()
		for i := range w.rel {
			w.rel[i] = nil
		}
		w.rel = w.rel[:0]
		if n >= egressDoneWake {
			w.f.signal()
		}
	}
}

// sendOne writes one message, or in Coalesce mode frames it into the
// destination's open batch, flushing first if it would outgrow the limit.
func (w *egressWorker) sendOne(to netem.Addr, msg wire.Msg) {
	if w.f.cfg.Coalesce {
		bb := w.batches.Get(to)
		if bb == nil {
			bb = &wire.BatchBuilder{}
			bb.Reset()
			w.batches.Set(to, bb)
		}
		if bb.Count() > 0 && bb.Len()+2+msg.Size() > coalesceLimit {
			w.flushBatch(to, bb)
		}
		if bb.Count() == 0 {
			w.dirty = append(w.dirty, to)
		}
		bb.Add(msg)
		w.f.cnt.egressMsgs.Add(1)
	} else if err := w.f.node.Send(to, msg); err != nil {
		w.f.cnt.egressErrs.Add(1)
	} else {
		w.f.cnt.egressMsgs.Add(1)
	}
}

// flushBatch sends one destination's open batch and resets the builder.
func (w *egressWorker) flushBatch(to netem.Addr, bb *wire.BatchBuilder) {
	if err := w.f.node.SendEncoded(to, bb.Bytes()); err != nil {
		w.f.cnt.egressErrs.Add(1)
	} else {
		w.f.cnt.egressBatches.Add(1)
	}
	bb.Reset()
}

// flushBatches closes out every batch opened since the last flush.
func (w *egressWorker) flushBatches() {
	for _, to := range w.dirty {
		if bb := w.batches.Get(to); bb.Count() > 0 {
			w.flushBatch(to, bb)
		}
	}
	w.dirty = w.dirty[:0]
}
