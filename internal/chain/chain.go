// Package chain implements SwiShmem's read-optimized replication protocols
// (§6.1): SRO (Strong Read Optimized, linearizable) and ERO (Eventual Read
// Optimized), both based on chain replication adapted to the programmable
// switch environment.
//
// Protocol summary (SRO):
//
//   - A write at switch W is handled by W's control plane, which buffers the
//     output packet, sends the write request to the chain head, and retries
//     on timeout (switches are the "clients" of the chain; they have DRAM to
//     buffer and retry, which the data plane does not — §6.1 footnote 2).
//   - The head assigns a per-key-group sequence number, applies the write,
//     sets the group's pending bit, and forwards down the chain.
//   - Each member applies writes with increasing sequence numbers, sets the
//     pending bit, and forwards to its successor.
//   - The tail applies the write and sends an acknowledgement to the writer
//     (which releases its buffered output packet) and to the other chain
//     members (which clear their pending bits).
//   - Reads are local unless the key's pending bit is set, in which case the
//     read is forwarded to the tail — the CRAQ-derived optimization that
//     gives linearizability without buffering reads.
//
// ERO is identical except reads are always local and no pending bits are
// maintained, trading bounded read latency (and less SRAM) for windows of
// staleness during writes.
//
// Departure from textbook chain replication, forced by the environment: the
// inter-switch fabric is unreliable datagram delivery, so hop-by-hop
// reliable in-order channels do not exist. One Node type runs the protocol
// under either of two hop disciplines, selected by Config.Replication:
//
//   - ChainReplication: members apply any write whose sequence number
//     exceeds the last applied for its group ("monotone apply") rather than
//     requiring exact succession; end-to-end recovery is the writer's
//     control-plane retry, which re-enters at the head and receives a fresh
//     sequence number. Under loss on chain hops this admits a bounded anomaly
//     window in which a not-yet-committed write is readable at upstream
//     switches after a later write to the same group commits (E15 measures
//     it: 2/40 seeds at 20% loss with a shared sequence group). With lossless
//     chain hops SRO is linearizable, which the tests verify with a history
//     checker.
//
//   - RetransmitReplication (retransmit.go): the data-plane buffering /
//     retransmission mode the paper leaves open in §9. A gate in front of the
//     same apply/commit/forward step admits writes in exact sequence order,
//     parking out-of-order arrivals in a bounded hold-back buffer while a
//     NACK asks the predecessor to retransmit from its bounded ring of
//     forwarded writes. A tail commit of sequence S then implies every member
//     applied every write through S, so the ack-driven pending-bit clear can
//     never expose an uncommitted value: the anomaly window is closed
//     (E15/E18: 0/40 seeds at 20% loss), at the SRAM and retransmission
//     bandwidth cost E19 quantifies.
package chain

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/obs"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/stats"
	"swishmem/internal/wire"
)

// Mode selects the consistency variant.
type Mode int

// Protocol modes.
const (
	// SRO is linearizable: pending keys read at the tail.
	SRO Mode = iota
	// ERO always reads locally: eventual consistency, bounded read latency,
	// no pending-bit SRAM.
	ERO
)

func (m Mode) String() string {
	if m == ERO {
		return "ERO"
	}
	return "SRO"
}

// Backing selects where write propagation is processed on each switch (§6.1:
// register writes run entirely in the data plane; table state requires each
// hop's control plane).
type Backing int

// Backing options.
const (
	// DataPlane processes chain messages at line rate.
	DataPlane Backing = iota
	// ControlPlane punts every chain message through the switch's
	// co-processor (table-backed state), at control-plane cost.
	ControlPlane
)

// Replication selects a strong register's hop discipline.
type Replication int

// Hop disciplines.
const (
	// ChainReplication is the paper's §6.1 protocol: monotone apply at each
	// hop, end-to-end recovery by the writer's control-plane retry.
	ChainReplication Replication = iota
	// RetransmitReplication applies in exact sequence order at every hop,
	// recovering lost hop-to-hop frames from SRAM-charged hold-back and
	// retransmit buffers (see the package comment for what each admits).
	RetransmitReplication
)

func (r Replication) String() string {
	if r == RetransmitReplication {
		return "retransmit"
	}
	return "chain"
}

// Config describes one replicated register (array) managed by the protocol.
type Config struct {
	// Reg is the register identifier carried in protocol messages.
	Reg uint16
	// Capacity is the number of keys the register can hold.
	Capacity int
	// ValueWidth is the value size in bytes, 1..65535. A longer value is
	// truncated at submit, and a received write carrying one is refused.
	ValueWidth int
	// Groups is the number of sequence/pending groups keys hash into (§7:
	// "multiple keys can share the same sequence number and in-progress
	// bit"). 0 means one group per key slot (no sharing).
	Groups int
	// Mode is SRO or ERO.
	Mode Mode
	// Backing selects data-plane or control-plane processing.
	Backing Backing
	// RetryTimeout is the writer's control-plane retransmission timeout.
	// Default 1ms.
	RetryTimeout sim.Duration
	// MaxRetries bounds writer retransmissions before reporting failure.
	// Default 100.
	MaxRetries int
	// AlwaysTailReads disables the CRAQ-derived local-read optimization:
	// every read is forwarded to the tail, as in classic chain replication
	// and NetChain. Exists for the ablation experiment that quantifies what
	// the pending-bit optimization buys; no NF should enable it.
	AlwaysTailReads bool
	// Proxy declares a non-replica access point (the §9 locality
	// extension): the node allocates no replica SRAM, never joins the
	// chain, forwards every read to the tail, and submits writes to the
	// head like any other writer. Use it on switches that only rarely touch
	// a register whose replicas live elsewhere.
	Proxy bool
	// Replication selects the hop discipline: ChainReplication (default,
	// writer-retry + monotone apply) or RetransmitReplication (hop-level
	// hold-back/retransmit buffers).
	Replication Replication
	// RetransmitDepth bounds the per-sequence-group hold-back and
	// retransmit buffers of the retransmit backend, in writes. Both buffers
	// are charged to data-plane SRAM. Default 16. Ignored by the chain
	// backend.
	RetransmitDepth int
}

func (c Config) withDefaults() Config {
	if c.Groups <= 0 {
		c.Groups = c.Capacity
	}
	if c.RetryTimeout == 0 {
		c.RetryTimeout = time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 100
	}
	if c.RetransmitDepth <= 0 {
		c.RetransmitDepth = 16
	}
	return c
}

// Stats counts protocol events on one node.
type Stats struct {
	WritesSubmitted stats.Counter // local NF write submissions
	WritesCommitted stats.Counter // acks received for local submissions
	WritesFailed    stats.Counter // retries exhausted
	Retries         stats.Counter
	Applied         stats.Counter // writes applied from the chain
	StaleDropped    stats.Counter // writes not applied: stale seq, over-width value, register full
	ReadsLocal      stats.Counter
	ReadsForwarded  stats.Counter // SRO pending-bit forwards to tail
	TailReads       stats.Counter // ReadFwd served as tail
	AcksSent        stats.Counter

	// Retransmit-backend counters (zero on the chain backend).
	HeldBack      stats.Counter // out-of-order writes parked in hold-back
	NacksSent     stats.Counter // gap-repair requests sent to the predecessor
	NacksReceived stats.Counter // epoch-valid NACKs received from a successor
	Retransmits   stats.Counter // writes re-sent from the retransmit buffer
	RtxStored     stats.Counter // forwarded writes recorded for retransmission
	RtxAbandoned  stats.Counter // gaps abandoned via skip cursor (degraded to monotone apply)
}

// outstanding is one buffered write at the writer's control plane. This is
// the "buffer P' until the write is completed" state of §6.1; it lives in
// control-plane DRAM, not data-plane SRAM. Records are pooled per node with
// their submit/retry closures bound once and their value backing reused, so
// a steady-state write cycle costs no per-record allocations.
type outstanding struct {
	n        *Node
	id       uint64
	key      uint64
	val      []byte
	done     func(committed bool)
	timer    sim.Timer
	retries  int
	submitAt sim.Time // when submit ran; start of the write.commit span
	run      func()   // o.submit, bound once
	fire     func()   // o.retryFire, bound once
	fireCtrl func()   // schedules fire on the control plane, bound once
}

func (n *Node) getOutstanding() *outstanding {
	var o *outstanding
	if ln := len(n.ofree); ln > 0 {
		o = n.ofree[ln-1]
		n.ofree[ln-1] = nil
		n.ofree = n.ofree[:ln-1]
	} else {
		o = &outstanding{n: n}
		o.run = o.submit
		o.fire = o.retryFire
		o.fireCtrl = func() { o.n.sw.CtrlDo(o.fire) }
	}
	o.retries = 0
	return o
}

// finish completes an outstanding write after it has been removed from the
// pending map. The record returns to the pool only when its retry timer was
// still pending (Stop succeeded) — a fired timer may have a retry queued on
// the control plane that still references the record — and when no attempt
// was ever retried: every attempt's wire.Write aliases o.val, so a retried
// record may have an earlier attempt still in flight (delayed or duplicated
// by the fabric) whose payload would be corrupted if the backing were
// recycled into a new write. A delayed attempt of an unretried record is
// only ever a duplicate delivery of the frame the tail already committed,
// which carries its assigned Seq and is stale-dropped before its value is
// read.
func (n *Node) finish(o *outstanding, committed bool) {
	canPool := o.timer.Stop() && o.retries == 0
	done := o.done
	if canPool {
		o.done = nil
		o.val = o.val[:0]
		n.ofree = append(n.ofree, o)
	}
	if done != nil {
		done(committed)
	}
}

// Node is the per-switch protocol instance for one replicated register.
type Node struct {
	sw  *pisa.Switch
	cfg Config

	chain wire.ChainConfig // current membership, epoch

	// store holds the replicated values: a key's cell is the value's length
	// (2 bytes), then ValueWidth bytes (see Get).
	store *pisa.KeyTable

	// seqPend holds per-group protocol state: 8 bytes applied sequence
	// number + 1 byte pending bit (§7's "sequence number and an in-progress
	// bit per entry"). ERO allocates 8-byte entries (no pending bit).
	seqPend *pisa.RegisterArray

	nextWriteID uint64
	pending     map[uint64]*outstanding // by WriteID
	ofree       []*outstanding          // recycled records (see getOutstanding)
	nextReqID   uint64
	reads       map[uint64]func([]byte, bool) // forwarded reads by ReqID

	// wfree and afree recycle the Writes sendWrite sends and the WriteAcks
	// commitAtTail sends, once their last holder released them (getPooled).
	wfree []*wire.Write
	afree []*wire.WriteAck

	// Recovery state (§6.3): joinSeen is the joining switch's control-plane
	// record of keys written live since the join began; snap is the donor's
	// in-progress snapshot transfer.
	joinSeen map[uint64]struct{}
	snap     *snapshotXfer

	// lat records submit-to-commit latency of locally submitted writes, in
	// nanoseconds of virtual time.
	lat *stats.Histogram

	// injectSkipForward, while positive, makes this node — as head — apply
	// and acknowledge fresh writes without forwarding them down the chain: a
	// deliberately planted replication bug (see InjectSkipForward).
	injectSkipForward int

	// hop holds the in-order discipline's buffers (see retransmit.go); nil
	// on the chain backend and on proxies, whose hops apply monotonically.
	hop *rtxState

	Stats Stats
}

// RegisterMetrics registers the node's protocol counters and the
// submit-to-commit latency histogram of writes submitted here (nanoseconds of
// engine time) under labels. The registry reads the live structs: snapshot it
// only from the goroutine that runs the node's engine.
func (n *Node) RegisterMetrics(r *obs.Registry, labels string) {
	cs := &n.Stats
	r.AddCounter("chain.writes_submitted", labels, &cs.WritesSubmitted)
	r.AddCounter("chain.writes_committed", labels, &cs.WritesCommitted)
	r.AddCounter("chain.writes_failed", labels, &cs.WritesFailed)
	r.AddCounter("chain.retries", labels, &cs.Retries)
	r.AddCounter("chain.applied", labels, &cs.Applied)
	r.AddCounter("chain.stale_dropped", labels, &cs.StaleDropped)
	r.AddCounter("chain.reads_local", labels, &cs.ReadsLocal)
	r.AddCounter("chain.reads_forwarded", labels, &cs.ReadsForwarded)
	r.AddCounter("chain.tail_reads", labels, &cs.TailReads)
	r.AddCounter("chain.acks_sent", labels, &cs.AcksSent)
	r.AddCounter("chain.held_back", labels, &cs.HeldBack)
	r.AddCounter("chain.nacks_sent", labels, &cs.NacksSent)
	r.AddCounter("chain.retransmits", labels, &cs.Retransmits)
	r.AddCounter("chain.rtx_abandoned", labels, &cs.RtxAbandoned)
	r.AddHistogram("chain.write_latency_ns", labels, n.lat)
}

// tracer returns the cluster tracer (nil when tracing is off).
func (n *Node) tracer() *obs.Tracer { return n.sw.Engine().Tracer() }

// pid is this node's trace lane: the switch address.
func (n *Node) pid() int32 { return int32(n.sw.Addr()) }

// NewNode creates the protocol instance for cfg's hop discipline and
// allocates its SRAM: the store and the sequence/pending array, plus — on
// the retransmit backend — the retransmit ring and the hold-back buffer
// (Groups x RetransmitDepth entries of seq+key+writeID+writer+value each).
func NewNode(sw *pisa.Switch, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Capacity <= 0 || cfg.ValueWidth <= 0 || cfg.ValueWidth > math.MaxUint16 {
		return nil, fmt.Errorf("chain: register %d needs positive capacity and a value width in 1..%d", cfg.Reg, math.MaxUint16)
	}
	if cfg.Replication != ChainReplication && cfg.Replication != RetransmitReplication {
		return nil, fmt.Errorf("chain: register %d: unknown replication backend %d", cfg.Reg, cfg.Replication)
	}
	n := &Node{
		sw:      sw,
		cfg:     cfg,
		pending: make(map[uint64]*outstanding),
		reads:   make(map[uint64]func([]byte, bool)),
		lat:     stats.NewHistogram(),
	}
	if cfg.Proxy {
		// No replica state at all: reads forward, writes buffer at the
		// control plane like any writer's.
		return n, nil
	}
	var err error
	// SRAM per key: the key (8 bytes) and the value.
	if n.store, err = sw.NewKeyTable(fmt.Sprintf("chain-reg%d", cfg.Reg), cfg.Capacity, 8+cfg.ValueWidth, 2+cfg.ValueWidth); err != nil {
		return nil, err
	}
	width := 9 // seq + pending bit
	if cfg.Mode == ERO {
		width = 8 // ERO needs no pending bit (§6.1: "saves space")
	}
	if n.seqPend, err = sw.NewRegisterArray(fmt.Sprintf("chain-seq%d", cfg.Reg), cfg.Groups, width); err != nil {
		n.store.Free()
		return nil, err
	}
	if cfg.Replication == RetransmitReplication {
		if n.hop, err = newRtxState(n); err != nil {
			n.store.Free()
			n.seqPend.Free()
			return nil, err
		}
	}
	return n, nil
}

// Switch returns the owning switch.
func (n *Node) Switch() *pisa.Switch { return n.sw }

// Config returns the node's configuration (with defaults applied).
func (n *Node) Config() Config { return n.cfg }

// MemoryBytes returns the data-plane SRAM this register consumes on this
// switch (store + sequence/pending array, plus the retransmit backend's two
// buffers) — the quantity E10 sweeps. Proxies consume nothing.
func (n *Node) MemoryBytes() int {
	if n.cfg.Proxy {
		return 0
	}
	b := n.store.Bytes() + n.seqPend.Bytes()
	if n.hop != nil {
		b += n.hop.rtxArr.Bytes() + n.hop.holdArr.Bytes()
	}
	return b
}

// SetChain installs a chain configuration (from the controller). Stale
// epochs are ignored. A node that was joining leaves joining mode when a
// configuration no longer names it as Joining (promotion complete).
func (n *Node) SetChain(cc wire.ChainConfig) {
	if cc.Epoch < n.chain.Epoch {
		return
	}
	epochChanged := cc.Epoch > n.chain.Epoch
	n.chain = cc
	if netem.Addr(cc.Joining) != n.sw.Addr() {
		n.joinSeen = nil // promoted (or the join was abandoned): leave joining mode
	}
	if epochChanged && n.hop != nil {
		n.hop.epochChanged()
	}
}

// Chain returns the current configuration.
func (n *Node) Chain() wire.ChainConfig { return n.chain }

func (n *Node) group(key uint64) int {
	if n.cfg.Groups >= n.cfg.Capacity {
		return int(key % uint64(n.cfg.Groups))
	}
	return pisa.HashIndex(key, n.cfg.Groups)
}

func (n *Node) appliedSeq(g int) uint64 { return n.seqPend.U64Get(g) }

func (n *Node) setApplied(g int, seq uint64, pend bool) {
	n.seqPend.U64Set(g, seq)
	if n.cfg.Mode == SRO {
		b := byte(0)
		if pend {
			b = 1
		}
		n.seqPend.View(g)[8] = b
	}
}

func (n *Node) isPending(g int) bool {
	return n.cfg.Mode == SRO && n.seqPend.View(g)[8] == 1
}

func (n *Node) clearPending(g int) {
	if n.cfg.Mode == SRO {
		n.seqPend.View(g)[8] = 0
	}
}

// Role helpers.

func (n *Node) head() netem.Addr {
	if len(n.chain.Members) == 0 {
		return 0
	}
	return netem.Addr(n.chain.Members[0])
}

func (n *Node) tail() netem.Addr {
	if len(n.chain.Members) == 0 {
		return 0
	}
	return netem.Addr(n.chain.Members[len(n.chain.Members)-1])
}

// IsHead reports whether this switch heads the chain.
func (n *Node) IsHead() bool { return n.head() == n.sw.Addr() && len(n.chain.Members) > 0 }

// IsTail reports whether this switch is the chain tail.
func (n *Node) IsTail() bool { return n.tail() == n.sw.Addr() && len(n.chain.Members) > 0 }

// neighbor returns the member delta positions from this switch in chain
// order (+1 the successor, -1 the predecessor), or 0 when there is none or
// this switch is not a member.
func (n *Node) neighbor(delta int) netem.Addr {
	for i, m := range n.chain.Members {
		if netem.Addr(m) == n.sw.Addr() {
			if j := i + delta; j >= 0 && j < len(n.chain.Members) {
				return netem.Addr(n.chain.Members[j])
			}
			return 0
		}
	}
	return 0
}

// Write submits a write from this switch's NF: the control plane buffers the
// completion callback (standing in for the output packet P'), sends the
// write to the head, and retries until acknowledged (§6.1). done is invoked
// with committed=true when the tail acknowledgement arrives, or false when
// retries are exhausted.
func (n *Node) Write(key uint64, val []byte, done func(committed bool)) {
	n.Stats.WritesSubmitted.Inc()
	o := n.getOutstanding()
	o.key = key
	o.val = append(o.val[:0], val[:min(len(val), n.cfg.ValueWidth)]...)
	o.done = done
	n.sw.CtrlDo(o.run)
}

// submit registers the write and starts its first attempt (control plane).
func (o *outstanding) submit() {
	n := o.n
	n.nextWriteID++
	o.id = n.nextWriteID
	o.submitAt = n.sw.Engine().Now()
	n.pending[o.id] = o
	if tr := n.tracer(); tr.Enabled() {
		rec := tr.Emit(obs.PhaseInstant, int64(o.submitAt), 0, n.pid(), "chain", "write.submit")
		rec.K1, rec.V1 = "id", int64(o.id)
		rec.K2, rec.V2 = "key", int64(o.key)
		rec.K3, rec.V3 = "reg", int64(n.cfg.Reg)
	}
	n.sendWrite(o)
}

func (n *Node) sendWrite(o *outstanding) {
	// Arm the retry before sending: when the writer is also head and tail,
	// the attempt below commits synchronously, and finish must find a
	// pending timer to stop.
	n.scheduleRetry(o)
	head := n.head()
	if head == 0 {
		// No chain installed yet; retry until the controller provides one.
		return
	}
	// Each attempt is a Write of its own (the head assigns Seq in place),
	// aliasing o.val (see finish).
	w := getPooled(&n.wfree)
	w.Reg, w.Key, w.Seq, w.WriteID = n.cfg.Reg, o.key, 0, o.id
	w.Writer, w.Epoch, w.Snapshot, w.Value = uint16(n.sw.Addr()), n.chain.Epoch, false, o.val
	if head == n.sw.Addr() {
		// Writer is the head: inject locally at the same processing cost
		// path a remote write would take.
		n.process(w)
	} else {
		n.sw.Send(head, w)
	}
	w.Release()
}

// getPooled pops a released message off free, or builds one that returns
// there once its last holder releases it, and takes the caller's reference.
// Every holder past the caller takes its own: the network one per delivery,
// a control-plane dispatch one across its CtrlDo. The list belongs to
// whatever runs the node's engine (a live fabric's pump).
func getPooled[T any, P interface {
	*T
	EnablePool(func(*T))
	Ref()
}](free *[]*T) P {
	var m P
	if ln := len(*free); ln > 0 {
		m = (*free)[ln-1]
		(*free)[ln-1] = nil
		*free = (*free)[:ln-1]
	} else {
		m = new(T)
		m.EnablePool(func(released *T) { *free = append(*free, released) })
	}
	m.Ref()
	return m
}

func (n *Node) scheduleRetry(o *outstanding) {
	// Equivalent to sw.CtrlAfter, but with the callback chain bound once on
	// the pooled record and a value Timer handle: arming and stopping the
	// retry allocates nothing.
	o.timer = n.sw.Engine().AfterVal(n.cfg.RetryTimeout, o.fireCtrl)
}

// retryFire is the retry timer body (bound once per record).
func (o *outstanding) retryFire() {
	n := o.n
	if n.pending[o.id] != o {
		return // completed (or superseded) while the retry was queued
	}
	if o.retries >= n.cfg.MaxRetries {
		delete(n.pending, o.id)
		n.Stats.WritesFailed.Inc()
		n.finish(o, false)
		return
	}
	o.retries++
	n.Stats.Retries.Inc()
	if tr := n.tracer(); tr.Enabled() {
		rec := tr.Emit(obs.PhaseInstant, int64(n.sw.Engine().Now()), 0, n.pid(), "chain", "write.retry")
		rec.K1, rec.V1 = "id", int64(o.id)
		rec.K2, rec.V2 = "retries", int64(o.retries)
	}
	n.sendWrite(o)
}

// Read performs an NF read of key. In SRO mode a read of a pending group is
// forwarded to the tail (§6.1); otherwise it completes synchronously from
// the local replica. fn receives the value (nil, false on miss).
func (n *Node) Read(key uint64, fn func(val []byte, ok bool)) {
	if n.cfg.Proxy {
		n.forwardRead(key, fn)
		return
	}
	if (n.cfg.AlwaysTailReads || n.isPending(n.group(key))) && !n.IsTail() {
		n.forwardRead(key, fn)
		return
	}
	n.Stats.ReadsLocal.Inc()
	fn(n.Get(key))
}

// forwardRead sends the read to the tail (§6.1) and registers the reply
// continuation.
func (n *Node) forwardRead(key uint64, fn func(val []byte, ok bool)) {
	n.Stats.ReadsForwarded.Inc()
	n.nextReqID++
	id := n.nextReqID
	n.reads[id] = fn
	n.sw.Send(n.tail(), &wire.ReadFwd{Reg: n.cfg.Reg, Key: key, ReqID: id, Origin: uint16(n.sw.Addr())})
}

// Get returns the local replica value without protocol involvement: a view
// of its cell, valid until the next write of the same key. A caller that
// forwards or keeps the bytes copies them. Proxies hold no state.
func (n *Node) Get(key uint64) ([]byte, bool) {
	r := -1
	if !n.cfg.Proxy {
		r = n.store.Row(key)
	}
	if r < 0 {
		return nil, false
	}
	c := n.store.Cell(r)
	end := 2 + int(binary.LittleEndian.Uint16(c))
	return c[2:end:end], true
}

// setValue copies val into key's cell, reporting false when the register
// refuses it: a value wider than ValueWidth, or a new key in a full
// register.
func (n *Node) setValue(key uint64, val []byte) bool {
	r := -1
	if len(val) <= n.cfg.ValueWidth {
		r = n.store.RowFor(key)
	}
	if r < 0 {
		return false
	}
	c := n.store.Cell(r)
	binary.LittleEndian.PutUint16(c, uint16(len(val)))
	copy(c[2:], val)
	return true
}

// Handle routes a protocol message to this node. It returns false if the
// message is not for this register. Data-plane registers run the handler
// inline (the caller is already in a data-plane slot); control-plane tables
// go through dispatch, and only dispatch builds a closure — one built here
// would escape and cost every message an allocation.
func (n *Node) Handle(from netem.Addr, msg wire.Msg) bool {
	if cc, ok := msg.(*wire.ChainConfig); ok {
		n.SetChain(*cc)
		return true
	}
	f, ok := msg.(wire.ChainFrame)
	if !ok || f.ChainReg() != n.cfg.Reg {
		return false
	}
	if n.cfg.Backing == ControlPlane {
		n.dispatch(from, f)
	} else {
		n.handle(from, f)
	}
	return true
}

// handle runs the handler for one of this register's frames. The hop
// control frames are inert without hop state (chain backend, proxies).
func (n *Node) handle(from netem.Addr, f wire.ChainFrame) {
	switch m := f.(type) {
	case *wire.Write:
		n.process(m)
	case *wire.WriteAck:
		n.processAck(m)
	case *wire.ReadFwd:
		n.processReadFwd(m)
	case *wire.ReadReply:
		n.processReadReply(m)
	case *wire.ChainNack:
		if n.hop != nil {
			n.hop.processNack(from, m)
		}
	case *wire.ChainCursor:
		if n.hop != nil {
			n.hop.processCursor(m)
		}
	}
}

// dispatch runs the frame's handler on the co-processor, the cost of a
// control-plane table. It holds a reference on pooled messages (the live
// fabric's zero-copy views) for the lifetime of the closure — without it,
// the receive path would recycle the message (and the datagram buffer
// backing its value) before the co-processor slot runs.
func (n *Node) dispatch(from netem.Addr, f wire.ChainFrame) {
	r, pooled := f.(netem.Releasable)
	if pooled {
		r.Ref()
	}
	n.sw.CtrlDo(func() {
		n.handle(from, f)
		if pooled {
			r.Release()
		}
	})
}

// process handles a Write at any chain position.
func (n *Node) process(w *wire.Write) {
	if n.cfg.Proxy {
		return // proxies never participate in propagation
	}
	if w.Snapshot {
		n.processSnapshotWrite(w)
		return
	}
	if w.Epoch != n.chain.Epoch {
		return // stale or future configuration; writer will retry
	}
	if w.Seq == 0 {
		if !n.IsHead() {
			return // misrouted fresh write
		}
		// Assign the sequence number in place: every attempt arrives as its
		// own Write (sendWrite builds one per attempt), so nothing else reads
		// the zero Seq again. A duplicate delivery of the same object then
		// carries the assigned Seq and is dropped as stale instead of being
		// double-sequenced.
		w.Seq = n.appliedSeq(n.group(w.Key)) + 1
		if n.injectSkipForward > 0 {
			n.injectSkipForward--
			applied := n.apply(w)
			n.commitAtTail(w, applied)
			return
		}
	}
	if n.inOrder() {
		n.hop.deliver(w)
		return
	}
	n.step(w)
}

// inOrder reports whether writes pass the hold-back/NACK gate before step.
// A joining switch stays on monotone apply even on the retransmit backend —
// the live writes the tail forwards to it are committed and arbitrarily
// sparse, so gaps there are expected, not losses (§6.3 recovery).
func (n *Node) inOrder() bool { return n.hop != nil && n.joinSeen == nil }

// step is the one hop step of both disciplines: apply, then commit at the
// tail, else record a copy for retransmission (in-order discipline only) and
// forward. Monotone apply calls it on every arrival; the in-order gate calls
// it on writes that are next in sequence.
func (n *Node) step(w *wire.Write) {
	applied := n.apply(w)
	if n.IsTail() {
		n.commitAtTail(w, applied)
		return
	}
	succ := n.neighbor(+1)
	if succ == 0 {
		return
	}
	if n.inOrder() {
		n.hop.store(w)
	}
	if tr := n.tracer(); tr.Enabled() {
		rec := tr.Emit(obs.PhaseInstant, int64(n.sw.Engine().Now()), 0, n.pid(), "chain", "write.forward")
		rec.K1, rec.V1 = "id", int64(w.WriteID)
		rec.K2, rec.V2 = "seq", int64(w.Seq)
		rec.K3, rec.V3 = "succ", int64(succ)
	}
	n.sw.Send(succ, w)
}

// apply installs the write if its sequence number advances the group,
// reporting whether it did.
func (n *Node) apply(w *wire.Write) bool {
	g := n.group(w.Key)
	if w.Seq <= n.appliedSeq(g) {
		n.Stats.StaleDropped.Inc()
		return false
	}
	if !n.setValue(w.Key, w.Value) {
		// Refused (over-width value, or register capacity exhausted): drop;
		// the writer's retries will fail and surface the error to the NF.
		// Monotone apply proceeds past the failed write unaided; the
		// exact-succession gate would wedge behind it, so there the sequence
		// floor advances anyway.
		n.Stats.StaleDropped.Inc()
		if n.inOrder() {
			n.setApplied(g, w.Seq, false)
		}
		return false
	}
	n.setApplied(g, w.Seq, true)
	n.Stats.Applied.Inc()
	if n.joinSeen != nil {
		n.joinSeen[w.Key] = struct{}{}
	}
	return true
}

// commitAtTail acknowledges a write: to the writer (releasing its buffered
// output packet) and to the rest of the chain (clearing pending bits). The
// tail's own pending bit is never set — its local value is by definition
// committed. applied reports whether this tail freshly applied w: only such
// writes are forwarded to a joining switch, because a stale duplicate's
// Value may alias a writer buffer that has since been recycled (its original
// delivery was committed, acked, and — if join-relevant — forwarded then).
func (n *Node) commitAtTail(w *wire.Write, applied bool) {
	n.clearPending(n.group(w.Key))
	ack := getPooled(&n.afree)
	ack.Reg, ack.Key, ack.Seq = n.cfg.Reg, w.Key, w.Seq
	ack.WriteID, ack.Writer, ack.Epoch = w.WriteID, w.Writer, w.Epoch
	n.Stats.AcksSent.Inc()
	if tr := n.tracer(); tr.Enabled() {
		rec := tr.Emit(obs.PhaseInstant, int64(n.sw.Engine().Now()), 0, n.pid(), "chain", "write.ack")
		rec.K1, rec.V1 = "id", int64(w.WriteID)
		rec.K2, rec.V2 = "seq", int64(w.Seq)
		rec.K3, rec.V3 = "writer", int64(w.Writer)
	}
	// Ack to the writer (even if it is also a chain member).
	if netem.Addr(w.Writer) == n.sw.Addr() {
		n.processAck(ack)
	} else {
		n.sw.Send(netem.Addr(w.Writer), ack)
	}
	// Acks to chain members to clear pending bits (§6.1). The multicast
	// engine sends one copy per member; the writer address is skipped if it
	// already got one above.
	for _, m := range n.chain.Members {
		a := netem.Addr(m)
		if a == n.sw.Addr() || a == netem.Addr(w.Writer) {
			continue
		}
		n.sw.Send(a, ack)
	}
	ack.Release()
	// Forward committed writes to a joining switch so it converges while
	// the snapshot transfer runs (§6.3 recovery).
	if applied && n.chain.Joining != 0 && netem.Addr(n.chain.Joining) != n.sw.Addr() {
		// Copy the value: this message is in flight after the writer's ack,
		// so it must not alias the writer's reusable buffer.
		n.sw.Send(netem.Addr(n.chain.Joining), &wire.Write{Reg: w.Reg, Key: w.Key, Seq: w.Seq,
			WriteID: w.WriteID, Writer: w.Writer, Epoch: w.Epoch,
			Value: append([]byte(nil), w.Value...)})
	}
}

// processAck clears pending state at members and completes the writer's
// outstanding write.
func (n *Node) processAck(a *wire.WriteAck) {
	if a.WriteID&snapIDBit != 0 {
		n.processSnapshotAck(a)
		return
	}
	if a.Epoch == n.chain.Epoch && !n.cfg.Proxy {
		g := n.group(a.Key)
		// The ack means the tail applied a.Seq. Clear the pending bit only
		// if we have not applied anything newer in this group.
		if a.Seq >= n.appliedSeq(g) {
			n.clearPending(g)
		}
		if n.hop != nil {
			// The tail ack is the retransmit backend's cumulative ack: a
			// commit of a.Seq means every member applied everything through
			// it (in-order apply), so buffered copies at or below are free.
			n.hop.freeThrough(g, a.Seq)
		}
	}
	if netem.Addr(a.Writer) != n.sw.Addr() {
		return
	}
	if o, ok := n.pending[a.WriteID]; ok {
		delete(n.pending, a.WriteID)
		n.Stats.WritesCommitted.Inc()
		now := n.sw.Engine().Now()
		n.lat.ObserveDuration(now.Sub(o.submitAt))
		if tr := n.tracer(); tr.Enabled() {
			// The whole write lifetime as one span at the writer: submit ->
			// head -> chain hops -> tail ack -> commit.
			rec := tr.Emit(obs.PhaseSpan, int64(o.submitAt), int64(now-o.submitAt), n.pid(), "chain", "write.commit")
			rec.K1, rec.V1 = "id", int64(o.id)
			rec.K2, rec.V2 = "retries", int64(o.retries)
			rec.K3, rec.V3 = "reg", int64(n.cfg.Reg)
		}
		n.finish(o, true)
	}
}

// processReadFwd serves a forwarded read at the tail.
func (n *Node) processReadFwd(r *wire.ReadFwd) {
	if n.cfg.Proxy {
		return
	}
	n.Stats.TailReads.Inc()
	v, ok := n.Get(r.Key)
	reply := &wire.ReadReply{Reg: n.cfg.Reg, Key: r.Key, ReqID: r.ReqID}
	if ok {
		// Copy: the cell is overwritten by later writes, and this reply is
		// in flight across the fabric's delivery delay.
		reply.Value = append([]byte(nil), v...)
	}
	n.sw.Send(netem.Addr(r.Origin), reply)
}

// processReadReply completes a forwarded read at the origin.
func (n *Node) processReadReply(r *wire.ReadReply) {
	fn, ok := n.reads[r.ReqID]
	if !ok {
		return
	}
	delete(n.reads, r.ReqID)
	fn(r.Value, len(r.Value) > 0)
}

// OutstandingWrites returns the number of buffered, unacknowledged writes at
// this writer's control plane.
func (n *Node) OutstandingWrites() int { return len(n.pending) }

// Counters exposes the node's protocol counters.
func (n *Node) Counters() *Stats { return &n.Stats }

// HeldFrames returns the number of out-of-order writes currently parked in
// hold-back buffers (always 0 on the chain backend).
func (n *Node) HeldFrames() int {
	if n.hop == nil {
		return 0
	}
	return n.hop.heldTotal
}

// InjectSkipForward plants a verification-only bug: the next count fresh
// writes sequenced at this node while it is head are applied locally and
// acknowledged as committed without being forwarded to the rest of the
// chain — an acked-but-unreplicated write, the classic chain-replication
// violation. internal/explore uses it to prove its oracles catch and
// shrink real protocol bugs; no production path sets it.
func (n *Node) InjectSkipForward(count int) { n.injectSkipForward += count }

// InjectDisableRetransmit plants a verification-only bug on the retransmit
// backend: the retransmit ring silently stores nothing, so every NACK is
// unserviceable. No-op on the chain backend.
func (n *Node) InjectDisableRetransmit() {
	if n.hop != nil {
		n.hop.disabled = true
	}
}
