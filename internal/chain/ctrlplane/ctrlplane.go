// Package ctrlplane implements the baseline SwiShmem argues against (§3.3):
// replicating data-plane state through the switch control plane. Writes are
// applied locally at line rate, but their replication to peers is pumped
// through the control-plane co-processor, whose service rate is orders of
// magnitude below the data plane. Under write-intensive load the replication
// queue grows and replicas lag far behind — the "significant gaps between
// replicas" the paper predicts, which experiment E12 measures against EWO's
// data-plane replication.
//
// The state model matches EWO's G-counter (per-switch slots, max-merge) so
// the two mechanisms are directly comparable on the same workload.
package ctrlplane

import (
	"fmt"

	"swishmem/internal/netem"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/stats"
	"swishmem/internal/timesync"
	"swishmem/internal/wire"
)

// Config describes one control-plane-replicated counter register.
type Config struct {
	// Reg is the register identifier.
	Reg uint16
	// Capacity is the number of keys (SRAM accounting).
	Capacity int
}

// maxGroup bounds replica group size (slot vector reservation).
const maxGroup = 8

// Stats counts baseline protocol events.
type Stats struct {
	Writes       stats.Counter
	Reads        stats.Counter
	UpdatesSent  stats.Counter // control-plane replication messages emitted
	UpdatesRecv  stats.Counter
	QueueHighWat stats.Gauge // max observed replication backlog
}

// Node is the per-switch baseline instance.
type Node struct {
	sw  *pisa.Switch
	cfg Config

	epoch uint32
	group []netem.Addr

	inc map[uint64]map[uint16]uint64
	mem *pisa.RegisterArray

	queue   []wire.EWOEntry // replication backlog (control-plane DRAM)
	pumping bool

	Stats Stats
}

// NewNode allocates the baseline register on sw.
func NewNode(sw *pisa.Switch, cfg Config) (*Node, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("ctrlplane: register %d needs positive capacity", cfg.Reg)
	}
	mem, err := sw.NewRegisterArray(fmt.Sprintf("cp-ctr%d", cfg.Reg), cfg.Capacity*maxGroup, 16)
	if err != nil {
		return nil, err
	}
	return &Node{sw: sw, cfg: cfg, mem: mem, inc: make(map[uint64]map[uint16]uint64)}, nil
}

// Switch returns the owning switch.
func (n *Node) Switch() *pisa.Switch { return n.sw }

// SetGroup installs the replica group.
func (n *Node) SetGroup(gc wire.GroupConfig) error {
	if gc.Epoch < n.epoch {
		return nil
	}
	if len(gc.Members) > maxGroup {
		return fmt.Errorf("ctrlplane: group of %d exceeds the maximum %d", len(gc.Members), maxGroup)
	}
	n.epoch = gc.Epoch
	n.group = n.group[:0]
	for _, m := range gc.Members {
		n.group = append(n.group, netem.Addr(m))
	}
	return nil
}

func slot(m map[uint64]map[uint16]uint64, key uint64) map[uint16]uint64 {
	s, ok := m[key]
	if !ok {
		s = make(map[uint16]uint64)
		m[key] = s
	}
	return s
}

// Add increments the counter locally (data plane) and queues the update for
// control-plane replication.
func (n *Node) Add(key uint64, delta uint64) {
	n.Stats.Writes.Inc()
	self := uint16(n.sw.Addr())
	s := slot(n.inc, key)
	s[self] += delta
	n.queue = append(n.queue, wire.EWOEntry{
		Key:   key,
		Stamp: timesync.Stamp{Time: sim.Time(s[self]), Node: timesync.NodeID(self)},
	})
	if float64(len(n.queue)) > n.Stats.QueueHighWat.Value() {
		n.Stats.QueueHighWat.Set(float64(len(n.queue)))
	}
	n.pump()
}

// pump drains the replication queue at control-plane speed: one update per
// co-processor slot.
func (n *Node) pump() {
	if n.pumping {
		return
	}
	n.pumping = true
	n.sw.CtrlDo(n.pumpOne)
}

func (n *Node) pumpOne() {
	if len(n.queue) == 0 {
		n.pumping = false
		return
	}
	e := n.queue[0]
	n.queue = n.queue[1:]
	u := &wire.EWOUpdate{Reg: n.cfg.Reg, From: uint16(n.sw.Addr()), Entries: []wire.EWOEntry{e}}
	n.sw.Multicast(n.group, u)
	n.Stats.UpdatesSent.Inc()
	n.sw.CtrlDo(n.pumpOne)
}

// Backlog returns the current replication queue length.
func (n *Node) Backlog() int { return len(n.queue) }

// Sum reads the counter from the local replica.
func (n *Node) Sum(key uint64) uint64 {
	n.Stats.Reads.Inc()
	var total uint64
	for _, v := range n.inc[key] {
		total += v
	}
	return total
}

// HandleCtrl processes a replication message on the receiving switch's
// control plane. Wire it via pisa.Switch.SetCtrlMsgHandler (or a router that
// punts to the control plane); the data plane never touches these updates in
// the baseline.
func (n *Node) HandleCtrl(from netem.Addr, msg wire.Msg) bool {
	u, ok := msg.(*wire.EWOUpdate)
	if !ok || u.Reg != n.cfg.Reg {
		return false
	}
	n.Stats.UpdatesRecv.Inc()
	for i := range u.Entries {
		e := &u.Entries[i]
		owner := uint16(e.Stamp.Node)
		v := uint64(e.Stamp.Time)
		s := slot(n.inc, e.Key)
		if v > s[owner] {
			s[owner] = v
		}
	}
	return true
}
