// Package ewo implements SwiShmem's Eventual Write Optimized registers
// (§6.2): low-cost reads and writes with eventual consistency, for the
// write-intensive NFs of §4.2 (DDoS sketches, rate-limiter meters).
//
// Protocol: a write is applied to the local replica and the output packet
// released immediately; the writes of one instant — one packet's pass
// through the pipeline — are then broadcast asynchronously to the replica
// group as one update, using egress mirroring + the multicast engine (§7),
// optionally batched across instants (§7 "Bandwidth overhead"). Lost updates
// (challenge C1) are repaired by a periodic data-plane synchronization
// implemented with the switch packet generator: every sync period the switch
// walks a window of its register array and sends it to a randomly selected
// group member, trading the switch's abundant bandwidth for buffer memory —
// the §6.2 design principle (10 MB/1 ms over 5 Tbps ≈ 1% of switch
// bandwidth). A round sends only what this switch wrote lately; every
// syncFloorWalks-th walk, and the first after a member joins, sends
// everything (see syncRound).
//
// Merging (challenge C2) supports the two schemes of §6.2:
//
//   - LWW: each register carries a version stamp (synchronized clock with a
//     switch-ID tie breaker); the merge keeps the larger stamp. Eventually
//     consistent; concurrent increments to the same register can be lost —
//     which experiment E8 measures.
//   - Counter (CRDT): a G-counter vector with one slot per group member;
//     increments touch only the local slot, merges take the element-wise
//     max, reads sum the vector. Strong eventual consistency and
//     monotonicity.
package ewo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/obs"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/stats"
	"swishmem/internal/timesync"
	"swishmem/internal/wire"
)

// The sync walk's two periods (see syncRound). A round's delta sends what
// this switch wrote within the last syncDeltaRounds rounds, and every
// syncFloorWalks-th walk is a floor walk.
const (
	syncDeltaRounds = 32
	syncFloorWalks  = 8
)

// Kind selects the merge discipline.
type Kind int

// Register kinds.
const (
	// LWW is a generic last-writer-wins register.
	LWW Kind = iota
	// Counter is an increment-only G-counter CRDT.
	Counter
)

func (k Kind) String() string {
	if k == Counter {
		return "Counter"
	}
	return "LWW"
}

// Config describes one EWO register array.
type Config struct {
	// Reg is the register identifier in protocol messages.
	Reg uint16
	// Capacity is the number of keys. A write or a received entry that would
	// add a key past it is refused and counted in Stats.KeysRefused.
	Capacity int
	// ValueWidth is the LWW value size in bytes, 1..65535 (ignored for counters).
	ValueWidth int
	// Kind selects LWW or counter semantics.
	Kind Kind
	// MaxGroup is the largest replica group supported; counter vectors
	// reserve SRAM for this many slots per key (§7: "one register array for
	// each switch in the replica group"). Default 8.
	MaxGroup int
	// SyncPeriod is the periodic synchronization interval. 0 means the
	// default, 1ms, the paper's example; a negative period turns sync off
	// (for experiments isolating the per-write multicast path).
	SyncPeriod sim.Duration
	// Batch is the number of register writes held, across instants, for one
	// multicast (§7 batching). It counts writes, not entries: a write to a
	// slot the open update already carries overwrites that entry but still
	// counts, so a hot key cannot hold a batch open. Default 1: nothing is
	// held — the writes of one instant leave together at that instant, as
	// one update (see enqueue). A partial batch waits for the batch to fill
	// or for Flush/periodic sync.
	Batch int
	// SyncWindow is the rows one periodic-sync round walks. What they carry
	// is packed into updates of at most wire.MaxUpdateBytes. Default 64.
	SyncWindow int
}

// clockSkew bounds the synchronized clock offset used for LWW stamps (the
// paper cites tens-of-nanoseconds data-plane sync).
const clockSkew = 50 * time.Nanosecond

func (c Config) withDefaults() Config {
	if c.MaxGroup == 0 {
		c.MaxGroup = 8
	}
	if c.SyncPeriod == 0 {
		c.SyncPeriod = time.Millisecond
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.SyncWindow <= 0 {
		c.SyncWindow = 64
	}
	return c
}

// Stats counts protocol events.
type Stats struct {
	Writes        stats.Counter
	Reads         stats.Counter
	UpdatesSent   stats.Counter // multicast delta packets
	UpdatesRecv   stats.Counter
	EntriesMerged stats.Counter // entries that changed local state
	EntriesStale  stats.Counter // entries discarded by merge
	SyncPackets   stats.Counter // periodic sync packets sent
	UpdateBytes   stats.Counter // wire bytes of multicast deltas (all copies)
	SyncBytes     stats.Counter // wire bytes of periodic sync packets
	// GroupsRejected counts group configurations SetGroup refused (more
	// members than MaxGroup): the node is still multicasting to its old group.
	GroupsRejected stats.Counter
	// KeysRefused counts writes and received entries dropped because their
	// key would take the register past Capacity.
	KeysRefused stats.Counter
}

// Node is the per-switch protocol instance for one EWO register array.
type Node struct {
	sw    *pisa.Switch
	cfg   Config
	clock *timesync.Synced

	epoch uint32
	group []netem.Addr

	// tab is the register's state, one row per key (see table). Its key
	// table is the SRAM reservation charged against the switch's budget: the
	// §7 layout's size on the ASIC (Capacity keys, MaxGroup slots each for a
	// counter), though the host holds only the rows touched.
	tab table

	// cur is the open update: deltas join its entry slice directly, so
	// filling and flushing it is allocation-free once the pool is warm. held
	// counts the deltas that joined it and curBytes the encoded size of its
	// entries. ufree recycles updates whose deliveries have all completed (see
	// wire.EWOUpdate.EnablePool).
	cur      *wire.EWOUpdate
	held     int
	curBytes int
	ufree    []*wire.EWOUpdate
	ufreeFn  func(*wire.EWOUpdate)

	// curRows holds the table row of each of cur's entries, and curAt maps
	// a row to 1 + the index of its entry in cur (0: none), so a delta finds
	// its key's entry without scanning; Flush clears both.
	curRows []int32
	curAt   []int32

	// flushFn, bound once, closes the open update at the end of the instant
	// (armed says the event is queued).
	flushFn func()
	armed   bool
	// syncRows is the sync walk's key-ordered row snapshot (see syncWalk);
	// syncCursor walks it across periodic sync rounds. round counts the
	// rounds, walks the walks begun. floor says the current walk sends every
	// row whole; joinNext that the next round is a join walk to joiner (see
	// SetGroup). syncEnts is the round's entries before they are packed.
	syncRows   []int32
	syncCursor int
	round      uint32
	walks      uint32
	floor      bool
	joinNext   bool
	joiner     netem.Addr
	syncEnts   []wire.EWOEntry

	// rng drives this node's sync-target sampling. It is a private stream
	// seeded from (engine seed, addr, reg) rather than the engine's shared
	// source, so the node draws the same sequence no matter what other
	// nodes do.
	rng *rand.Rand

	Stats Stats
}

// nodeSeed mixes the engine seed with a node's stable identity (splitmix64
// finalizer) to seed its private random stream.
func nodeSeed(seed int64, addr, reg uint64) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15 ^ addr<<40 ^ reg<<24
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// NewNode allocates the register array on sw.
func NewNode(sw *pisa.Switch, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("ewo: register %d needs positive capacity", cfg.Reg)
	}
	if cfg.Kind == LWW && (cfg.ValueWidth <= 0 || cfg.ValueWidth > math.MaxUint16) {
		return nil, fmt.Errorf("ewo: LWW register %d needs a value width in 1..%d", cfg.Reg, math.MaxUint16)
	}
	n := &Node{
		sw:    sw,
		cfg:   cfg,
		clock: timesync.NewSynced(sw.Engine(), timesync.NodeID(sw.Addr()), clockSkew),
		rng:   rand.New(rand.NewSource(nodeSeed(sw.Engine().Seed(), uint64(sw.Addr()), uint64(cfg.Reg)))),
	}
	n.ufreeFn = func(u *wire.EWOUpdate) { n.ufree = append(n.ufree, u) }
	n.flushFn = func() {
		n.armed = false
		n.Flush()
	}
	var err error
	if n.tab, err = newTable(sw, cfg); err != nil {
		return nil, err
	}
	if cfg.SyncPeriod > 0 {
		sw.PacketGen(cfg.SyncPeriod, n.syncRound)
	}
	return n, nil
}

// Switch returns the owning switch.
func (n *Node) Switch() *pisa.Switch { return n.sw }

// Config returns the defaulted configuration.
func (n *Node) Config() Config { return n.cfg }

// MemoryBytes returns the SRAM footprint of this register on this switch.
func (n *Node) MemoryBytes() int { return n.tab.keys.Bytes() }

// SetGroup installs the replica group (from the controller). Stale epochs
// are ignored. Group size beyond MaxGroup is rejected loudly — an error to
// the caller and a count in Stats.GroupsRejected for the message paths that
// have no caller to tell: the SRAM reservation cannot hold more slots.
//
// A group that adds a member to a non-empty one ends the sync walk under
// way: the next round walks every row, whole, to the first new member (see
// syncWalk), so a joiner holds every row one round later.
func (n *Node) SetGroup(gc wire.GroupConfig) error {
	if gc.Epoch < n.epoch {
		return nil
	}
	if len(gc.Members) > n.cfg.MaxGroup {
		n.Stats.GroupsRejected.Inc()
		return fmt.Errorf("ewo: group of %d exceeds MaxGroup %d", len(gc.Members), n.cfg.MaxGroup)
	}
	n.epoch = gc.Epoch
	for _, m := range gc.Members {
		if a := netem.Addr(m); len(n.group) > 0 && a != n.sw.Addr() && !slices.Contains(n.group, a) {
			n.joiner, n.joinNext = a, true
			break
		}
	}
	n.group = n.group[:0]
	for _, m := range gc.Members {
		n.group = append(n.group, netem.Addr(m))
	}
	return nil
}

// Group returns the current replica group.
func (n *Node) Group() []netem.Addr { return n.group }

// RegisterMetrics registers the node's protocol counters under labels. The
// registry reads the live struct: snapshot it only from the goroutine that
// runs the node's engine.
func (n *Node) RegisterMetrics(r *obs.Registry, labels string) {
	es := &n.Stats
	r.AddCounter("ewo.writes", labels, &es.Writes)
	r.AddCounter("ewo.reads", labels, &es.Reads)
	r.AddCounter("ewo.updates_sent", labels, &es.UpdatesSent)
	r.AddCounter("ewo.updates_recv", labels, &es.UpdatesRecv)
	r.AddCounter("ewo.entries_merged", labels, &es.EntriesMerged)
	r.AddCounter("ewo.entries_stale", labels, &es.EntriesStale)
	r.AddCounter("ewo.sync_packets", labels, &es.SyncPackets)
	r.AddCounter("ewo.update_bytes", labels, &es.UpdateBytes)
	r.AddCounter("ewo.sync_bytes", labels, &es.SyncBytes)
	r.AddCounter("ewo.groups_rejected", labels, &es.GroupsRejected)
	r.AddCounter("ewo.keys_refused", labels, &es.KeysRefused)
}

// --- LWW operations ---

// Write stores val under key with a fresh stamp and schedules its broadcast.
// It returns immediately ("emits any output packet P' immediately" — §6.2).
func (n *Node) Write(key uint64, val []byte) {
	if n.cfg.Kind != LWW {
		panic("ewo: Write on counter register; use Add")
	}
	n.Stats.Writes.Inc()
	r := n.tab.rowFor(key)
	if r < 0 {
		n.Stats.KeysRefused.Inc()
		return
	}
	val = val[:min(len(val), n.cfg.ValueWidth)]
	st := n.clock.Now()
	n.tab.store(r, st, val)
	n.tab.wrote(r, n.round)
	// The entry gets a copy of its own: the cell may be overwritten while
	// the update is still in flight.
	n.enqueue(r, wire.EWOEntry{Key: key, Stamp: st, Value: append([]byte(nil), val...)})
}

// Read returns a copy of the local LWW value.
func (n *Node) Read(key uint64) ([]byte, bool) {
	if n.cfg.Kind != LWW {
		panic("ewo: Read on counter register; use Sum")
	}
	n.Stats.Reads.Inc()
	if r := n.tab.keys.Row(key); r >= 0 {
		_, val := n.tab.cell(r)
		return slices.Clone(val), true
	}
	return nil, false
}

// --- Counter operations ---

// Add increments key's counter by delta (data-plane cost, non-blocking).
func (n *Node) Add(key uint64, delta uint64) {
	if n.cfg.Kind == LWW {
		panic("ewo: Add on LWW register; use Write")
	}
	n.Stats.Writes.Inc()
	t := &n.tab
	r := t.rowFor(key)
	if r < 0 {
		n.Stats.KeysRefused.Inc()
		return
	}
	self := uint16(n.sw.Addr())
	c := t.colFor(self) // may widen: index the cell after it
	s := &t.cells[r*t.stride+c]
	*s += delta
	t.wrote(r, n.round)
	n.enqueue(r, counterEntry(key, self, *s))
}

// incMark is the shared, read-only Value payload of counter entries — never
// allocated per write, never mutated (merge and marshal only read it). Its
// 0 byte marks an increment; an entry marked 1 (a decrement) is refused.
var incMark = []byte{0}

// counterEntry encodes a slot announcement: Stamp.Node carries the slot
// owner, Stamp.Time the slot value (slot values are monotone, so the value
// doubles as the version — the §7 "version number and value" pair collapses
// for counters).
func counterEntry(key uint64, owner uint16, slotVal uint64) wire.EWOEntry {
	return wire.EWOEntry{
		Key:   key,
		Stamp: timesync.Stamp{Time: sim.Time(slotVal), Node: timesync.NodeID(owner)},
		Value: incMark,
	}
}

// setCounterEntry writes counterEntry's announcement into e field by field,
// for the sync walk, which fills its entries in place: storing a whole
// EWOEntry, which holds a pointer, into the heap goes through the runtime's
// bulk write barrier and cost three times as much per entry. It is not
// counterEntry's implementation because the returned copy then costs Add
// more than the literal does.
func setCounterEntry(e *wire.EWOEntry, key uint64, owner uint16, slotVal uint64) {
	e.Key, e.Stamp, e.Value = key, timesync.Stamp{Time: sim.Time(slotVal), Node: timesync.NodeID(owner)}, incMark
}

// Sum reads the counter: the sum of its slots.
func (n *Node) Sum(key uint64) uint64 {
	if n.cfg.Kind == LWW {
		panic("ewo: Sum on LWW register; use Read")
	}
	n.Stats.Reads.Inc()
	if r := n.tab.keys.Row(key); r >= 0 {
		return n.tab.sum(r)
	}
	return 0
}

// --- replication ---

// getUpdate pops a recycled update (or builds one), marks it a sync packet
// or not, and takes the caller's reference. The caller must Release after
// handing it to the network.
func (n *Node) getUpdate(sync bool) *wire.EWOUpdate {
	var u *wire.EWOUpdate
	if ln := len(n.ufree); ln > 0 {
		u = n.ufree[ln-1]
		n.ufree[ln-1] = nil
		n.ufree = n.ufree[:ln-1]
	} else {
		u = &wire.EWOUpdate{}
		u.EnablePool(n.ufreeFn)
	}
	u.Reg = n.cfg.Reg
	u.From = uint16(n.sw.Addr())
	u.Sync = sync
	u.Entries = u.Entries[:0]
	u.Ref()
	return u
}

// enqueue joins a delta to the open update (DESIGN.md §10 "Update
// coalescing"). The unit of emission is the instant, not the register write:
// §6.2/§7 mirror the packet, so every delta enqueued at one virtual time
// leaves in one update, at that time. The first delta of an instant
// schedules the flush as a local event at Engine().Now(); local events run
// in scheduling order, ahead of same-time deliveries, so it runs after the
// pass that scheduled it and any pass already due, and never later than the
// instant itself. A switch failed or paused within the instant of its write
// therefore loses that instant's update, whole — the crash between a write
// and its mirrored packet that §6.3 leaves to periodic sync.
//
// A delta for a key the open update already carries — found by its row r;
// the slot's owner is always this switch — overwrites that entry in place:
// slot values are monotone and LWW keeps the newer stamp, so the earlier
// entry would be stale on arrival. The update is closed early only when the
// delta would take it past wire.MaxUpdateBytes.
//
// Batch > 1 holds the open update across instants instead, until Batch
// deltas have joined it. Deltas accumulate in a pooled update and the clock
// runs one bound-once closure, so the steady-state write path (delta in,
// update out) allocates nothing.
func (n *Node) enqueue(r int, e wire.EWOEntry) {
	u := n.open()
	if r >= len(n.curAt) {
		n.curAt = append(n.curAt, make([]int32, r+1-len(n.curAt))...)
	}
	at, grow := int(n.curAt[r])-1, e.Size()
	if at >= 0 {
		grow -= u.Entries[at].Size()
	}
	if wire.EWOUpdateOverhead+n.curBytes+grow > wire.MaxUpdateBytes && len(u.Entries) > 0 {
		n.Flush()
		u, at, grow = n.open(), -1, e.Size()
	}
	if at >= 0 {
		u.Entries[at] = e
	} else {
		u.Entries = append(u.Entries, e)
		n.curRows = append(n.curRows, int32(r))
		n.curAt[r] = int32(len(u.Entries))
	}
	n.held++
	n.curBytes += grow
	eng := n.sw.Engine()
	switch {
	case n.cfg.Batch <= 1:
		if !n.armed {
			n.armed = true
			eng.Schedule(eng.Now(), n.flushFn)
		}
	case n.held >= n.cfg.Batch:
		n.Flush()
	}
}

// open returns the open update, taking one from the pool if none is.
func (n *Node) open() *wire.EWOUpdate {
	if n.cur == nil {
		n.cur = n.getUpdate(false)
	}
	return n.cur
}

// Flush multicasts pending deltas to the group via egress mirroring (§7).
func (n *Node) Flush() {
	u := n.cur
	if u == nil {
		return
	}
	n.held, n.curBytes = 0, 0
	for _, r := range n.curRows {
		n.curAt[r] = 0
	}
	n.curRows = n.curRows[:0]
	if len(u.Entries) == 0 || len(n.group) == 0 {
		// Nothing to send (or nowhere to send it): drop the deltas but keep
		// the update as the next batch buffer.
		u.Entries = u.Entries[:0]
		return
	}
	n.cur = nil
	if tr := n.sw.Engine().Tracer(); tr.Enabled() {
		rec := tr.Emit(obs.PhaseInstant, int64(n.sw.Engine().Now()), 0, int32(n.sw.Addr()), "ewo", "ewo.flush")
		rec.K1, rec.V1 = "entries", int64(len(u.Entries))
		rec.K2, rec.V2 = "group", int64(len(n.group))
		rec.K3, rec.V3 = "reg", int64(n.cfg.Reg)
	}
	fan := 0
	for _, a := range n.group {
		if a != n.sw.Addr() {
			fan++
		}
	}
	n.Stats.UpdateBytes.Add(uint64(u.Size() * fan))
	n.sw.Multicast(n.group, u)
	n.Stats.UpdatesSent.Inc()
	u.Release()
}

// Handle routes a protocol message to this node; it reports whether the
// message was consumed.
func (n *Node) Handle(from netem.Addr, msg wire.Msg) bool {
	switch m := msg.(type) {
	case *wire.EWOUpdate:
		if m.Reg != n.cfg.Reg {
			return false
		}
		n.Stats.UpdatesRecv.Inc()
		if tr := n.sw.Engine().Tracer(); tr.Enabled() {
			// One instant per received batch, not per merged entry: the merge
			// loop is the receive hot path.
			rec := tr.Emit(obs.PhaseInstant, int64(n.sw.Engine().Now()), 0, int32(n.sw.Addr()), "ewo", "ewo.merge")
			rec.K1, rec.V1 = "entries", int64(len(m.Entries))
			rec.K2, rec.V2 = "from", int64(from)
			rec.K3 = "sync"
			if m.Sync {
				rec.V3 = 1
			}
		}
		if n.cfg.Kind == LWW {
			n.mergeLWW(m.Entries)
		} else {
			n.mergeCounters(m.Entries)
		}
		return true
	case *wire.GroupConfig:
		_ = n.SetGroup(*m) // a rejection is counted in Stats.GroupsRejected
		return true
	}
	return false
}

// mergeLWW copies an LWW update's entries into their cells: the larger stamp
// wins, a key's first entry whatever its stamp. A value wider than ValueWidth
// (a configuration mismatch or a forged datagram) is stale and creates nothing.
func (n *Node) mergeLWW(ents []wire.EWOEntry) {
	t := &n.tab
	for i := range ents {
		e, rows := &ents[i], t.keys.Len()
		if len(e.Value) > n.cfg.ValueWidth {
			n.Stats.EntriesStale.Inc()
		} else if r := t.rowFor(e.Key); r < 0 {
			n.Stats.KeysRefused.Inc()
		} else if st, _ := t.cell(r); t.keys.Len() > rows || st.Less(e.Stamp) {
			t.store(r, e.Stamp, e.Value)
			n.Stats.EntriesMerged.Inc()
		} else {
			n.Stats.EntriesStale.Inc()
		}
	}
}

// mergeCounters applies a counter update's entries: each slot keeps the
// larger of its value and the announced one. It works a row at a time: a
// sync packet carries each key's slots back to back, so the key's row is
// looked up once per run of equal keys, not once per slot. A decrement-marked
// entry (Value[0] == 1: a configuration mismatch or corruption) is discarded
// as stale and creates nothing; an entry whose key is refused is counted in
// KeysRefused.
func (n *Node) mergeCounters(ents []wire.EWOEntry) {
	t := &n.tab
	r, key := -1, uint64(0)
	for i := range ents {
		e := &ents[i]
		if len(e.Value) > 0 && e.Value[0] == 1 {
			n.Stats.EntriesStale.Inc()
			continue
		}
		if r < 0 || e.Key != key {
			if r, key = t.rowFor(e.Key), e.Key; r < 0 {
				n.Stats.KeysRefused.Inc()
				continue
			}
		}
		c := t.colFor(uint16(e.Stamp.Node)) // may widen: index the cell after it
		s := &t.cells[r*t.stride+c]
		if v := uint64(e.Stamp.Time); v > *s {
			*s = v
			n.Stats.EntriesMerged.Inc()
		} else {
			n.Stats.EntriesStale.Inc()
		}
	}
}

// syncRound is the packet-generator task: walk a window of the register
// array and send what it holds to a randomly selected group member (§7). A
// floor walk sends every row of the window whole, so a dead owner's slots
// and a joiner's state are repaired. Any other round is a delta: only what
// this switch wrote within the last syncDeltaRounds rounds, since that is
// all a lost write update can have left behind.
func (n *Node) syncRound() {
	n.round++
	if len(n.group) < 2 {
		return
	}
	join := n.joinNext
	n.joinNext = false
	rows := n.syncWalk(join)
	self := n.sw.Addr()
	n.syncEnts = n.tab.appendRows(n.syncEnts[:0], rows, !n.floor, uint16(self), n.round)
	if len(n.syncEnts) == 0 {
		return
	}
	target := n.joiner
	if !join {
		// Random member other than self.
		for tries := 0; tries < 8; tries++ {
			if target = n.group[n.rng.Intn(len(n.group))]; target != self {
				break
			}
		}
	}
	if target != self {
		n.sendWindow(n.syncEnts, target)
	}
}

// syncWalk returns the next window of the sync walk, SyncWindow rows, taking
// a new snapshot (KeyTable.Sorted) when the current one is used up; keys
// added mid-walk wait for the next walk. The walk goes in key order, like a
// register array's, so which keys share a sync packet is a function of the
// seed. Every syncFloorWalks-th walk, the first included, is a floor walk.
// So is a join walk, which starts a new walk and returns all of it in one
// round.
func (n *Node) syncWalk(join bool) []int32 {
	if n.syncCursor >= len(n.syncRows) || join {
		n.syncCursor = 0
		n.syncRows = n.tab.keys.Sorted()
		n.floor = join || n.walks%syncFloorWalks == 0
		n.walks++
	}
	start := n.syncCursor
	n.syncCursor = min(start+n.cfg.SyncWindow, len(n.syncRows))
	if join {
		n.syncCursor = len(n.syncRows)
	}
	return n.syncRows[start:n.syncCursor]
}

// sendWindow packs one round's entries into updates of at most
// wire.MaxUpdateBytes (a key's entries stay together, so one update passes
// the bound only when one key alone does) and sends them back to back to
// target; the live fabric's coalescing egress frames each into one datagram.
func (n *Node) sendWindow(ents []wire.EWOEntry, target netem.Addr) {
	u, sz := n.getUpdate(true), wire.EWOUpdateOverhead
	for i := 0; i < len(ents); {
		j, run := i, 0
		for ; j < len(ents) && ents[j].Key == ents[i].Key; j++ {
			run += ents[j].Size()
		}
		if len(u.Entries) > 0 && sz+run > wire.MaxUpdateBytes {
			n.sendSync(u, target)
			u, sz = n.getUpdate(true), wire.EWOUpdateOverhead
		}
		u.Entries = append(u.Entries, ents[i:j]...)
		sz += run
		i = j
	}
	n.sendSync(u, target) // ents is not empty, so neither is u
}

// sendSync emits one periodic-sync packet to target and releases the
// caller's reference.
func (n *Node) sendSync(u *wire.EWOUpdate, target netem.Addr) {
	if tr := n.sw.Engine().Tracer(); tr.Enabled() {
		rec := tr.Emit(obs.PhaseInstant, int64(n.sw.Engine().Now()), 0, int32(n.sw.Addr()), "ewo", "ewo.sync")
		rec.K1, rec.V1 = "entries", int64(len(u.Entries))
		rec.K2, rec.V2 = "target", int64(target)
		rec.K3, rec.V3 = "reg", int64(n.cfg.Reg)
	}
	n.Stats.SyncBytes.Add(uint64(u.Size()))
	n.sw.Send(target, u)
	n.Stats.SyncPackets.Inc()
	u.Release()
}

// StateDigest summarizes local state for convergence checks: for LWW a map
// of key to stamp and value; for counters a map of key to summed value.
func (n *Node) StateDigest() map[uint64]string {
	out := make(map[uint64]string)
	for r := range n.tab.keys.Len() {
		k := n.tab.keys.Key(r)
		if n.cfg.Kind == LWW {
			st, val := n.tab.cell(r)
			out[k] = fmt.Sprintf("%v:%x", st, val)
		} else {
			out[k] = fmt.Sprintf("%d", n.tab.sum(r))
		}
	}
	return out
}
