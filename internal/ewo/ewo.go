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
// walks its register array and sends its contents to a randomly selected
// group member, trading the switch's abundant bandwidth for buffer memory —
// the §6.2 design principle (10 MB/1 ms over 5 Tbps ≈ 1% of switch
// bandwidth).
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
//     monotonicity; PN-counters add a decrement vector.
package ewo

import (
	"fmt"
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

// Kind selects the merge discipline.
type Kind int

// Register kinds.
const (
	// LWW is a generic last-writer-wins register.
	LWW Kind = iota
	// Counter is an increment-only G-counter CRDT.
	Counter
	// PNCounter supports increments and decrements (two G-counters).
	PNCounter
)

func (k Kind) String() string {
	switch k {
	case Counter:
		return "Counter"
	case PNCounter:
		return "PNCounter"
	default:
		return "LWW"
	}
}

// Config describes one EWO register array.
type Config struct {
	// Reg is the register identifier in protocol messages.
	Reg uint16
	// Capacity is the number of keys.
	Capacity int
	// ValueWidth is the LWW value size in bytes (ignored for counters).
	ValueWidth int
	// Kind selects LWW or counter semantics.
	Kind Kind
	// MaxGroup is the largest replica group supported; counter vectors
	// reserve SRAM for this many slots per key (§7: "one register array for
	// each switch in the replica group"). Default 8.
	MaxGroup int
	// SyncPeriod is the periodic synchronization interval (0 disables).
	// Default 1ms, the paper's example.
	SyncPeriod sim.Duration
	// SyncDisabled turns off periodic sync (for experiments isolating the
	// per-write multicast path).
	SyncDisabled bool
	// Batch is the number of register writes held, across instants, for one
	// multicast (§7 batching). It counts writes, not entries: a write to a
	// slot the open update already carries overwrites that entry but still
	// counts, so a hot key cannot hold a batch open. Default 1: nothing is
	// held — the writes of one instant leave together at that instant, as
	// one update (see enqueue).
	Batch int
	// BatchTimeout bounds how long a partial batch may wait before being
	// flushed anyway, capping the staleness/availability cost §7 attributes
	// to batching. 0 disables the timer (a partial batch waits for the
	// batch to fill or for Flush/periodic sync).
	BatchTimeout sim.Duration
	// SyncEntriesPerPacket bounds the keys one periodic-sync window walks (an
	// MTU stand-in), not the entries it sends: a counter key emits one entry
	// per known slot, up to MaxGroup of them (twice that for a PN-counter),
	// so a default round carries up to 64 × 8 = 512 entries in one packet
	// unless SyncPacketBytes repacks it. It is also the entry count at which
	// enqueue closes an instant's open update early. Default 64.
	SyncEntriesPerPacket int
	// SyncPacketBytes, when > 0, makes the periodic sync batch-aware: the
	// round's key window is packed into as many updates as needed so that
	// each stays at or under this many wire bytes (one key's entries never
	// split), and all of them go to the same randomly drawn target in the
	// same round. Over the live fabric's coalescing egress the run of
	// updates packs into wire.Batch datagrams subject to the fabric's
	// 1200-byte coalesce limit, so setting this just below it (live members
	// use 1024) yields MTU-shaped sync datagrams end to end. 0 (the default) keeps the
	// classic single-update round byte for byte.
	SyncPacketBytes int
	// ClockSkew bounds the synchronized clock offset used for LWW stamps.
	// Default 50ns (the paper cites tens-of-nanoseconds data-plane sync).
	ClockSkew sim.Duration
}

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
	if c.SyncEntriesPerPacket <= 0 {
		c.SyncEntriesPerPacket = 64
	}
	if c.ClockSkew == 0 {
		c.ClockSkew = 50 * time.Nanosecond
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
}

type lwwCell struct {
	val   []byte
	stamp timesync.Stamp
}

// Node is the per-switch protocol instance for one EWO register array.
type Node struct {
	sw    *pisa.Switch
	cfg   Config
	clock *timesync.Synced

	epoch uint32
	group []netem.Addr

	// LWW state.
	lww map[uint64]lwwCell
	// Counter and PNCounter state: the §7 slot matrix (see counterTable).
	ctr counterTable

	// mem holds the SRAM reservations charged against the switch's budget:
	// the size the §7 layout occupies on the ASIC (Capacity keys, MaxGroup
	// slots each), whatever the host-side tables above currently hold.
	mem []*pisa.RegisterArray

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
	// flushFn, bound once, is what closes the open update on the clock: the
	// event at the end of the instant (armed says one is queued) and, when
	// batching, the BatchTimeout timer.
	flushFn    func()
	armed      bool
	batchTimer sim.Timer
	ticker     *sim.Ticker
	// syncCursor walks keys across periodic sync rounds.
	syncKeys   []uint64
	syncCursor int

	// rng drives this node's sync-target sampling. It is a private stream
	// seeded from (engine seed, addr, reg) rather than the engine's shared
	// source, so the node draws the same sequence no matter what other
	// nodes do — required for sharded runs to match sequential ones.
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
	if cfg.Kind == LWW && cfg.ValueWidth <= 0 {
		return nil, fmt.Errorf("ewo: LWW register %d needs positive value width", cfg.Reg)
	}
	n := &Node{
		sw:    sw,
		cfg:   cfg,
		clock: timesync.NewSynced(sw.Engine(), timesync.NodeID(sw.Addr()), cfg.ClockSkew),
		rng:   rand.New(rand.NewSource(nodeSeed(sw.Engine().Seed(), uint64(sw.Addr()), uint64(cfg.Reg)))),
	}
	n.ufreeFn = func(u *wire.EWOUpdate) { n.ufree = append(n.ufree, u) }
	n.flushFn = func() {
		n.armed = false
		n.Flush()
	}
	// Charge SRAM per the §7 layout.
	switch cfg.Kind {
	case LWW:
		// One (version, value) pair per key: 10-byte stamp + value.
		ra, err := sw.NewRegisterArray(fmt.Sprintf("ewo-lww%d", cfg.Reg), cfg.Capacity, 10+cfg.ValueWidth)
		if err != nil {
			return nil, err
		}
		n.mem = append(n.mem, ra)
		n.lww = make(map[uint64]lwwCell)
	case Counter, PNCounter:
		// One register array per group member, each (version, value) =
		// 16 bytes per key; PN doubles it.
		mult := 1
		if cfg.Kind == PNCounter {
			mult = 2
		}
		ra, err := sw.NewRegisterArray(fmt.Sprintf("ewo-ctr%d", cfg.Reg), cfg.Capacity*cfg.MaxGroup*mult, 16)
		if err != nil {
			return nil, err
		}
		n.mem = append(n.mem, ra)
		n.ctr = newCounterTable(cfg.MaxGroup, cfg.Kind == PNCounter)
	}
	if !cfg.SyncDisabled {
		n.ticker = sw.PacketGen(cfg.SyncPeriod, n.syncRound)
	}
	return n, nil
}

// Switch returns the owning switch.
func (n *Node) Switch() *pisa.Switch { return n.sw }

// Config returns the defaulted configuration.
func (n *Node) Config() Config { return n.cfg }

// MemoryBytes returns the SRAM footprint of this register on this switch.
func (n *Node) MemoryBytes() int {
	total := 0
	for _, ra := range n.mem {
		total += ra.Bytes()
	}
	return total
}

// SetGroup installs the replica group (from the controller). Stale epochs
// are ignored. Group size beyond MaxGroup is rejected loudly — an error to
// the caller and a count in Stats.GroupsRejected for the message paths that
// have no caller to tell: the SRAM reservation cannot hold more slots.
func (n *Node) SetGroup(gc wire.GroupConfig) error {
	if gc.Epoch < n.epoch {
		return nil
	}
	if len(gc.Members) > n.cfg.MaxGroup {
		n.Stats.GroupsRejected.Inc()
		return fmt.Errorf("ewo: group of %d exceeds MaxGroup %d", len(gc.Members), n.cfg.MaxGroup)
	}
	n.epoch = gc.Epoch
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
}

// Stop cancels the periodic synchronization ticker.
func (n *Node) Stop() {
	if n.ticker != nil {
		n.ticker.Stop()
	}
}

// --- LWW operations ---

// Write stores val under key with a fresh stamp and schedules its broadcast.
// It returns immediately ("emits any output packet P' immediately" — §6.2).
func (n *Node) Write(key uint64, val []byte) {
	if n.cfg.Kind != LWW {
		panic("ewo: Write on counter register; use Add")
	}
	n.Stats.Writes.Inc()
	if len(val) > n.cfg.ValueWidth {
		val = val[:n.cfg.ValueWidth]
	}
	st := n.clock.Now()
	// One copy, shared by the cell and the entry: neither is ever written
	// through (merge replaces a cell's slice, marshal and clone only read).
	val = append([]byte(nil), val...)
	n.lww[key] = lwwCell{val: val, stamp: st}
	n.enqueue(wire.EWOEntry{Key: key, Stamp: st, Value: val})
}

// Read returns the local LWW value.
func (n *Node) Read(key uint64) ([]byte, bool) {
	if n.cfg.Kind != LWW {
		panic("ewo: Read on counter register; use Sum")
	}
	n.Stats.Reads.Inc()
	c, ok := n.lww[key]
	return c.val, ok
}

// --- Counter operations ---

// Add increments key's counter by delta (data-plane cost, non-blocking).
func (n *Node) Add(key uint64, delta uint64) {
	if n.cfg.Kind == LWW {
		panic("ewo: Add on LWW register; use Write")
	}
	n.Stats.Writes.Inc()
	self := uint16(n.sw.Addr())
	s := n.ctr.slot(key, self, incVec)
	*s += delta
	n.enqueue(counterEntry(key, self, *s, false))
}

// Sub decrements key's counter (PNCounter only).
func (n *Node) Sub(key uint64, delta uint64) {
	if n.cfg.Kind != PNCounter {
		panic("ewo: Sub requires a PNCounter register")
	}
	n.Stats.Writes.Inc()
	self := uint16(n.sw.Addr())
	s := n.ctr.slot(key, self, decVec)
	*s += delta
	n.enqueue(counterEntry(key, self, *s, true))
}

// incMark and decMark are the shared, read-only Value payloads of counter
// entries — never allocated per write, never mutated (merge and marshal only
// read them).
var (
	incMark = []byte{0}
	decMark = []byte{1}
)

// counterEntry encodes a slot announcement: Stamp.Node carries the slot
// owner, Stamp.Time the slot value (slot values are monotone, so the value
// doubles as the version — the §7 "version number and value" pair collapses
// for counters). Value[0] distinguishes the decrement vector.
func counterEntry(key uint64, owner uint16, slotVal uint64, isDec bool) wire.EWOEntry {
	v := incMark
	if isDec {
		v = decMark
	}
	return wire.EWOEntry{
		Key:   key,
		Stamp: timesync.Stamp{Time: sim.Time(slotVal), Node: timesync.NodeID(owner)},
		Value: v,
	}
}

// Sum reads the counter: sum of increment slots minus decrement slots.
func (n *Node) Sum(key uint64) uint64 {
	if n.cfg.Kind == LWW {
		panic("ewo: Sum on LWW register; use Read")
	}
	n.Stats.Reads.Inc()
	return n.ctr.sum(key)
}

// --- replication ---

// getUpdate pops a recycled update (or builds one) and takes the caller's
// reference. The caller must Release after handing it to the network.
func (n *Node) getUpdate() *wire.EWOUpdate {
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
	u.Sync = false
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
// A delta for a slot the open update already carries — same key and vector;
// the owner is always this switch — overwrites that entry where it stands:
// slot values are monotone and LWW keeps the newer stamp, so the earlier
// entry would be stale on arrival. The update is closed early only when the
// delta would take it past the per-packet bound periodic sync packs to
// (SyncPacketBytes when set, else SyncEntriesPerPacket), which also bounds
// the scan for the slot.
//
// Batch > 1 holds the open update across instants instead, until Batch
// deltas have joined it or BatchTimeout expires. Deltas accumulate in a
// pooled update and both clocks run one bound-once closure, so the
// steady-state write path (delta in, update out) allocates nothing.
func (n *Node) enqueue(e wire.EWOEntry) {
	u := n.open()
	at, grow := -1, e.Size()
	for i := range u.Entries {
		if o := &u.Entries[i]; o.Key == e.Key && (n.cfg.Kind == LWW || o.Value[0] == e.Value[0]) {
			at, grow = i, grow-o.Size()
			break
		}
	}
	past := at < 0 && len(u.Entries) >= n.cfg.SyncEntriesPerPacket
	if limit := n.cfg.SyncPacketBytes; limit > 0 {
		past = wire.EWOUpdateOverhead+n.curBytes+grow > limit
	}
	if past && len(u.Entries) > 0 {
		n.Flush()
		u, at, grow = n.open(), -1, e.Size()
	}
	if at >= 0 {
		u.Entries[at] = e
	} else {
		u.Entries = append(u.Entries, e)
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
	case n.cfg.BatchTimeout > 0 && !n.batchTimer.Pending():
		n.batchTimer = eng.AfterVal(n.cfg.BatchTimeout, n.flushFn)
	}
}

// open returns the open update, taking one from the pool if none is.
func (n *Node) open() *wire.EWOUpdate {
	if n.cur == nil {
		n.cur = n.getUpdate()
	}
	return n.cur
}

// Flush multicasts pending deltas to the group via egress mirroring (§7).
func (n *Node) Flush() {
	n.batchTimer.Stop()
	u := n.cur
	if u == nil {
		return
	}
	n.held, n.curBytes = 0, 0
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

// PendingDeltas returns the number of deltas waiting in the open update.
func (n *Node) PendingDeltas() int { return n.held }

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
		for i := range m.Entries {
			n.merge(&m.Entries[i])
		}
		return true
	case *wire.GroupConfig:
		_ = n.SetGroup(*m) // a rejection is counted in Stats.GroupsRejected
		return true
	}
	return false
}

// merge applies one received entry under the register's merge discipline.
func (n *Node) merge(e *wire.EWOEntry) {
	switch n.cfg.Kind {
	case LWW:
		cur, ok := n.lww[e.Key]
		if ok && !cur.stamp.Less(e.Stamp) {
			n.Stats.EntriesStale.Inc()
			return
		}
		n.lww[e.Key] = lwwCell{val: append([]byte(nil), e.Value...), stamp: e.Stamp}
		n.Stats.EntriesMerged.Inc()
	case Counter, PNCounter:
		vec := incVec
		if len(e.Value) > 0 && e.Value[0] == 1 {
			if n.cfg.Kind != PNCounter {
				n.Stats.EntriesStale.Inc()
				return
			}
			vec = decVec
		}
		s := n.ctr.slot(e.Key, uint16(e.Stamp.Node), vec)
		if v := uint64(e.Stamp.Time); v > *s {
			*s = v
			n.Stats.EntriesMerged.Inc()
		} else {
			n.Stats.EntriesStale.Inc()
		}
	}
}

// syncRound is the packet-generator task: walk a window of the register
// array and send its contents to a randomly selected group member (§7).
func (n *Node) syncRound() {
	if len(n.group) < 2 {
		return
	}
	// Refresh the key walk when exhausted.
	if n.syncCursor >= len(n.syncKeys) {
		n.syncKeys = n.syncKeys[:0]
		if n.cfg.Kind == LWW {
			for k := range n.lww {
				n.syncKeys = append(n.syncKeys, k)
			}
		} else {
			n.syncKeys = append(n.syncKeys, n.ctr.keys...)
		}
		// The walk goes in key order, like a register array's. Map iteration
		// order in particular is runtime-randomized and must not leak onto
		// the wire (which keys share a sync packet decides how fast a
		// recovering member converges), or runs stop being a pure function
		// of the seed.
		slices.Sort(n.syncKeys)
		n.syncCursor = 0
	}
	if len(n.syncKeys) == 0 {
		return
	}
	end := n.syncCursor + n.cfg.SyncEntriesPerPacket
	if end > len(n.syncKeys) {
		end = len(n.syncKeys)
	}
	u := n.getUpdate()
	u.Sync = true
	for _, k := range n.syncKeys[n.syncCursor:end] {
		u.Entries = n.appendEntriesFor(u.Entries, k)
	}
	n.syncCursor = end
	if len(u.Entries) == 0 {
		u.Release()
		return
	}
	// Random member other than self.
	var target netem.Addr
	for tries := 0; tries < 8; tries++ {
		target = n.group[n.rng.Intn(len(n.group))]
		if target != n.sw.Addr() {
			break
		}
	}
	if target == n.sw.Addr() {
		u.Release()
		return
	}
	limit := n.cfg.SyncPacketBytes
	if limit <= 0 || u.Size() <= limit {
		n.sendSync(u, target)
		return
	}
	// Batch-aware sync: repack the window into updates of at most limit
	// wire bytes each (a single key's entries stay together, so one packet
	// can exceed the limit only when one key alone does) and send the run
	// back to back to the same target — the live fabric's coalescing
	// egress then packs the run into MTU-shaped wire.Batch datagrams.
	ents := u.Entries
	p := n.getUpdate()
	p.Sync = true
	sz := wire.EWOUpdateOverhead
	for i := 0; i < len(ents); {
		j := i
		run := 0
		for j < len(ents) && ents[j].Key == ents[i].Key {
			run += ents[j].Size()
			j++
		}
		if len(p.Entries) > 0 && sz+run > limit {
			n.sendSync(p, target)
			p = n.getUpdate()
			p.Sync = true
			sz = wire.EWOUpdateOverhead
		}
		p.Entries = append(p.Entries, ents[i:j]...)
		sz += run
		i = j
	}
	if len(p.Entries) > 0 {
		n.sendSync(p, target)
	} else {
		p.Release()
	}
	u.Release()
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

// appendEntriesFor appends the sync entries describing key's full local
// state — for counters this gossips every known slot, so updates survive
// the failure of their original writer (§6.3: "any switch that did receive
// the update can then synchronize the other switches"). Slots go out in
// column-directory order, increments before decrements, so a sync packet's
// bytes are a function of the seed. A slot holding 0 is not gossiped: it is
// what every replica assumes of a slot it has not heard about (only
// Add(k, 0) and Sub(k, 0) can leave a touched slot at 0).
func (n *Node) appendEntriesFor(dst []wire.EWOEntry, key uint64) []wire.EWOEntry {
	if n.cfg.Kind == LWW {
		c, ok := n.lww[key]
		if !ok {
			return dst
		}
		return append(dst, wire.EWOEntry{Key: key, Stamp: c.stamp, Value: c.val})
	}
	t := &n.ctr
	r := t.row(key)
	if r < 0 {
		return dst
	}
	for vec := 0; vec < t.vecs; vec++ {
		for c, v := range t.vector(r, vec) {
			if v != 0 {
				dst = append(dst, counterEntry(key, t.owners[c], v, vec == decVec))
			}
		}
	}
	return dst
}

// Keys returns the number of locally known keys.
func (n *Node) Keys() int {
	if n.cfg.Kind == LWW {
		return len(n.lww)
	}
	return len(n.ctr.keys)
}

// StateDigest summarizes local state for convergence checks: for LWW a map
// of key to stamp; for counters a map of key to summed value.
func (n *Node) StateDigest() map[uint64]string {
	out := make(map[uint64]string)
	switch n.cfg.Kind {
	case LWW:
		for k, c := range n.lww {
			out[k] = fmt.Sprintf("%v:%x", c.stamp, c.val)
		}
	default:
		for _, k := range n.ctr.keys {
			out[k] = fmt.Sprintf("%d", n.ctr.sum(k))
		}
	}
	return out
}
