package chain

import (
	"sort"

	"swishmem/internal/netem"
	"swishmem/internal/wire"
)

// This file implements the §6.3 recovery phase for SRO/ERO chains.
//
// Failover (restoring write availability after a member fails) is purely a
// reconfiguration: the controller installs a new ChainConfig that routes
// around the failed switch; in-flight writes that were lost time out at the
// writer's control plane and are retried against the new configuration.
// Nothing in this file is needed for failover.
//
// Recovery (re-arming full replication) adds a fresh switch at the end of
// the chain: the controller installs a config whose Joining field names the
// new switch, the tail forwards newly committed writes to it, and a donor
// switch's control plane snapshots its replica and replays it as snapshot
// writes "through the normal data plane protocol ... contain[ing] the
// sequence number at the time of the snapshot, to prevent overwriting new
// values with old ones" (§6.3). Because sequence numbers may be shared by a
// group of keys (§7), the seq alone cannot arbitrate per-key freshness at
// the joining switch; the joining switch's control plane therefore also
// tracks, in DRAM, the set of keys that have received live writes since the
// join began, and snapshot writes for those keys are discarded. Once the
// joining switch has acknowledged every snapshot write, the donor reports
// completion and the controller promotes the new switch to tail.

// snapIDBit marks donor snapshot write IDs so they never collide with the
// donor's own NF write IDs.
const snapIDBit = uint64(1) << 63

// snapshotXfer tracks one in-progress snapshot transfer at the donor.
type snapshotXfer struct {
	to          netem.Addr
	outstanding map[uint64]*wire.Write // by WriteID
	onComplete  func()
}

// BeginJoin puts this node in joining mode: it starts recording live writes
// so stale snapshot writes cannot clobber them. The controller calls this on
// the fresh switch before starting the snapshot transfer.
func (n *Node) BeginJoin() {
	n.joinSeen = make(map[uint64]struct{})
}

// StartSnapshotTransfer runs on the donor: its control plane snapshots the
// local replica and replays every entry to the joining switch as snapshot
// writes, retrying unacknowledged entries every RetryTimeout. onComplete
// fires once the joining switch has acknowledged every snapshot write.
//
// The snapshot itself is taken atomically with respect to packet processing
// (a control-plane read between packets); its writes are then delivered
// asynchronously.
func (n *Node) StartSnapshotTransfer(to netem.Addr, onComplete func()) {
	if n.cfg.Proxy {
		// Proxies hold no state to transfer.
		if onComplete != nil {
			n.sw.CtrlDo(onComplete)
		}
		return
	}
	n.sw.CtrlDo(func() {
		xfer := &snapshotXfer{to: to, outstanding: make(map[uint64]*wire.Write), onComplete: onComplete}
		n.snap = xfer
		id := snapIDBit
		for _, r := range n.store.Sorted() {
			key := n.store.Key(int(r))
			val, _ := n.Get(key)
			xfer.outstanding[id] = &wire.Write{
				Reg:      n.cfg.Reg,
				Key:      key,
				Seq:      n.appliedSeq(n.group(key)),
				WriteID:  id,
				Writer:   uint16(n.sw.Addr()),
				Epoch:    n.chain.Epoch,
				Snapshot: true,
				Value:    append([]byte(nil), val...),
			}
			id++
		}
		if !n.finishSnapshot() {
			n.sendSnapshotBatch()
		}
	})
}

// finishSnapshot ends the donor's transfer once every snapshot write has
// been acknowledged, reporting whether it did.
func (n *Node) finishSnapshot() bool {
	xfer := n.snap
	if len(xfer.outstanding) != 0 {
		return false
	}
	n.snap = nil
	if xfer.onComplete != nil {
		xfer.onComplete()
	}
	return true
}

// snapshotChunk is how many snapshot entries the donor's control plane
// reads and emits per co-processor operation. Reading data-plane state from
// the control plane is the §6.3 "control plane support ... for the initial
// data transfer", and it is what makes recovery time scale with state size.
const snapshotChunk = 64

// sendSnapshotBatch (re)sends all unacknowledged snapshot writes, chunked
// at control-plane cost, then arms the retry timer.
func (n *Node) sendSnapshotBatch() {
	xfer := n.snap
	if xfer == nil {
		return
	}
	// Deterministic order: snapshot IDs are sequential.
	ids := make([]uint64, 0, len(xfer.outstanding))
	for id := range xfer.outstanding {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var sendChunk func(start int)
	sendChunk = func(start int) {
		if n.snap != xfer {
			return
		}
		end := start + snapshotChunk
		if end > len(ids) {
			end = len(ids)
		}
		for _, id := range ids[start:end] {
			if w, ok := xfer.outstanding[id]; ok {
				n.sw.Send(xfer.to, w)
			}
		}
		if end < len(ids) {
			n.sw.CtrlDo(func() { sendChunk(end) })
			return
		}
		// Whole pass emitted: arm the retry for whatever stays unacked.
		n.sw.CtrlAfter(n.cfg.RetryTimeout, func() {
			if n.snap == xfer && !n.finishSnapshot() {
				n.sendSnapshotBatch()
			}
		})
	}
	sendChunk(0)
}

// processSnapshotWrite handles a snapshot write at the joining switch.
func (n *Node) processSnapshotWrite(w *wire.Write) {
	if w.Epoch != n.chain.Epoch {
		return
	}
	// Ack unconditionally: even if discarded, the donor must stop resending.
	ack := &wire.WriteAck{Reg: n.cfg.Reg, Key: w.Key, Seq: w.Seq,
		WriteID: w.WriteID, Writer: w.Writer, Epoch: w.Epoch}
	n.sw.Send(netem.Addr(w.Writer), ack)

	if n.joinSeen != nil {
		if _, live := n.joinSeen[w.Key]; live {
			n.Stats.StaleDropped.Inc()
			return // a live write since join start is fresher than the snapshot
		}
	}
	g := n.group(w.Key)
	if !n.setValue(w.Key, w.Value) {
		n.Stats.StaleDropped.Inc()
		return
	}
	if w.Seq > n.appliedSeq(g) {
		n.setApplied(g, w.Seq, false)
	}
	n.Stats.Applied.Inc()
}

// processSnapshotAck handles a joining switch's acknowledgement at the donor.
func (n *Node) processSnapshotAck(a *wire.WriteAck) {
	if n.snap == nil {
		return
	}
	delete(n.snap.outstanding, a.WriteID)
	n.finishSnapshot()
}
