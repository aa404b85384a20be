// Package pisa models a PISA programmable switch (§2 of the paper) with the
// properties SwiShmem's protocols depend on:
//
//   - A match-action pipeline processing packets at a configurable line rate
//     with atomic per-packet state updates: one packet's writes are fully
//     applied before the next packet observes any state.
//   - A small data-plane memory budget (~10 MB) charged by every register
//     array, table, meter, and counter; allocation fails when exhausted.
//   - P4 object semantics: registers, meters, and counters are data-plane
//     writable; tables can only be modified from the control plane (enforced
//     at runtime).
//   - A control-plane co-processor with DRAM-class (unaccounted) memory and
//     a service rate orders of magnitude below the data plane.
//   - Recirculation, egress mirroring, a multicast engine, and a periodic
//     packet generator — the hardware features §7's implementation sketch
//     uses.
//
// The model is event-driven on the deterministic simulator, so experiments
// can charge realistic per-operation costs without wall-clock limits.
package pisa

import (
	"fmt"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/obs"
	"swishmem/internal/packet"
	"swishmem/internal/sim"
	"swishmem/internal/stats"
	"swishmem/internal/wire"
)

// Config describes a switch's hardware characteristics. Zero fields take the
// defaults documented on each field.
type Config struct {
	// Addr is the switch's network address. Required.
	Addr netem.Addr
	// MemoryBytes is the data-plane SRAM budget. Default 10 MB (§2).
	MemoryBytes int
	// PipelinePPS is the data-plane packet rate. Default 5e9 (Tofino-class,
	// §3.1). Experiments typically scale this down together with offered
	// load; ratios are what matter.
	PipelinePPS float64
	// PipelineLatency is the ingress-to-egress latency. Default 400ns.
	PipelineLatency sim.Duration
	// QueueLimit is the maximum number of packets awaiting pipeline slots
	// before tail drop. Default 4096.
	QueueLimit int
	// CtrlOpsPerSec is the control-plane co-processor service rate.
	// Default 100,000 ops/s — the orders-of-magnitude gap vs the data plane
	// that motivates data-plane replication (§3.3).
	CtrlOpsPerSec float64
	// CtrlLatency is the PCIe+software latency for a control-plane
	// operation. Default 50µs.
	CtrlLatency sim.Duration
}

func (c Config) withDefaults() Config {
	if c.MemoryBytes == 0 {
		c.MemoryBytes = 10 << 20
	}
	if c.PipelinePPS == 0 {
		c.PipelinePPS = 5e9
	}
	if c.PipelineLatency == 0 {
		c.PipelineLatency = 400 * time.Nanosecond
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 4096
	}
	if c.CtrlOpsPerSec == 0 {
		c.CtrlOpsPerSec = 100e3
	}
	if c.CtrlLatency == 0 {
		c.CtrlLatency = 50 * time.Microsecond
	}
	return c
}

// Verdict is the pipeline's decision for a packet.
type Verdict int

// Pipeline verdicts.
const (
	// Drop discards the packet.
	Drop Verdict = iota
	// Forward emits the packet through the egress callback.
	Forward
	// Recirculate re-injects the packet at ingress (Meta.Recirculated++).
	Recirculate
	// ToControlPlane punts the packet to the control-plane co-processor.
	ToControlPlane
)

// Program is the data-plane packet program (the P4 program body). It runs
// atomically with respect to other packets on the same switch.
type Program func(sw *Switch, pkt *packet.Packet) Verdict

// MsgHandler processes a SwiShmem protocol message in the data plane.
type MsgHandler func(sw *Switch, from netem.Addr, msg wire.Msg)

// Stats holds switch-level observability counters.
type Stats struct {
	Processed    stats.Counter // packets through the pipeline
	Dropped      stats.Counter // verdict Drop
	Forwarded    stats.Counter // verdict Forward
	Recirculated stats.Counter
	Punted       stats.Counter // to control plane
	QueueDrops   stats.Counter // tail drops at ingress
	MsgsHandled  stats.Counter // protocol messages handled in data plane
	CtrlOps      stats.Counter // control-plane operations executed
	Rejected     stats.Counter // sends bounced by a rejecting link (ICMP analog)
}

// Switch is one emulated PISA switch.
type Switch struct {
	cfg Config
	eng *sim.Engine
	net *netem.Network

	program    Program
	msgHandler MsgHandler
	ctrlMsg    func(from netem.Addr, msg wire.Msg) // control-plane message handler
	ctrlPkt    func(pkt *packet.Packet)            // control-plane packet handler
	egress     func(pkt *packet.Packet)

	// Data-plane pipeline occupancy.
	slot     sim.Duration // 1/PPS
	nextFree sim.Time

	// Control-plane occupancy.
	ctrlSlot     sim.Duration
	ctrlNextFree sim.Time

	memUsed    int
	arrivalSeq uint64
	failed     bool

	// paused freezes the switch without killing it (the GC-pause / SIGSTOP
	// analog): dispatch records that come due while paused park in frozen
	// instead of running, in their exact dispatch order, and Resume replays
	// them. Inbound traffic keeps queueing (receive still accepts), so the
	// backlog a real frozen process accumulates is modeled faithfully.
	paused bool
	frozen []*task

	// mail keys control-plane posts originating at this switch (snapshot
	// completion notifications back to the controller) by the switch
	// address.
	mail *sim.Mailbox

	// tfree pools dispatch records so steady-state packet and message
	// processing schedules without allocating.
	tfree []*task

	Stats Stats
}

// taskKind selects what a pooled dispatch record does when its slot fires.
type taskKind uint8

const (
	taskPipeline taskKind = iota // run the packet program on pkt
	taskEgress                   // emit pkt through the egress hook
	taskMsg                      // run the data-plane message handler
	taskCtrl                     // run fn as a control-plane op (counts CtrlOps)
	taskCtrlMsg                  // deliver msg to the control-plane msg handler
	taskFn                       // run fn at data-plane cost (PacketGen)
)

// task is one pooled dispatch record. Its run closure is bound once at
// creation and survives recycling.
type task struct {
	s    *Switch
	kind taskKind
	pkt  *packet.Packet
	from netem.Addr
	msg  wire.Msg
	fn   func()
	run  func()
}

func (s *Switch) getTask(kind taskKind) *task {
	var t *task
	if n := len(s.tfree); n > 0 {
		t = s.tfree[n-1]
		s.tfree[n-1] = nil
		s.tfree = s.tfree[:n-1]
	} else {
		t = &task{s: s}
		t.run = t.exec
	}
	t.kind = kind
	return t
}

// releaseTask returns a record to the pool, releasing any pooled message it
// still carries (tail drops, failed switches).
func (s *Switch) releaseTask(t *task) {
	if r, ok := t.msg.(netem.Releasable); ok {
		r.Release()
	}
	t.pkt, t.msg, t.fn = nil, nil, nil
	s.tfree = append(s.tfree, t)
}

func (t *task) exec() {
	s := t.s
	if s.paused {
		// The process is frozen: park the record, payload and all, in
		// dispatch order. Resume replays the backlog; Fail drains it.
		s.frozen = append(s.frozen, t)
		return
	}
	kind, pkt, from, msg, fn := t.kind, t.pkt, t.from, t.msg, t.fn
	// Recycle before running: nested dispatches reuse the record. The
	// message reference (if any) is consumed below, not by releaseTask.
	t.pkt, t.msg, t.fn = nil, nil, nil
	s.tfree = append(s.tfree, t)

	if s.failed {
		if r, ok := msg.(netem.Releasable); ok {
			r.Release()
		}
		return
	}
	switch kind {
	case taskPipeline:
		s.runPipeline(pkt)
	case taskEgress:
		s.Stats.Forwarded.Inc()
		if s.egress != nil {
			s.egress(pkt)
		}
	case taskMsg:
		s.Stats.MsgsHandled.Inc()
		s.msgHandler(s, from, msg)
		// Handlers consume messages synchronously (they must not retain
		// pooled messages past return — see DESIGN.md "Performance model").
		if r, ok := msg.(netem.Releasable); ok {
			r.Release()
		}
	case taskCtrl:
		s.Stats.CtrlOps.Inc()
		s.traceCtrlOp("ctrl.op")
		fn()
	case taskCtrlMsg:
		s.Stats.CtrlOps.Inc()
		s.traceCtrlOp("ctrl.msg")
		if s.ctrlMsg != nil {
			s.ctrlMsg(from, msg)
		}
		if r, ok := msg.(netem.Releasable); ok {
			r.Release()
		}
	case taskFn:
		fn()
	}
}

// New creates a switch and attaches it to the network.
func New(eng *sim.Engine, nw *netem.Network, cfg Config) *Switch {
	cfg = cfg.withDefaults()
	s := &Switch{
		cfg:      cfg,
		eng:      eng,
		net:      nw,
		slot:     sim.Duration(1e9 / cfg.PipelinePPS),
		ctrlSlot: sim.Duration(1e9 / cfg.CtrlOpsPerSec),
		mail:     sim.NewMailbox(uint64(cfg.Addr)),
	}
	if s.slot <= 0 {
		s.slot = 1
	}
	if s.ctrlSlot <= 0 {
		s.ctrlSlot = 1
	}
	nw.Attach(cfg.Addr, s.receive)
	return s
}

// Addr returns the switch's network address.
func (s *Switch) Addr() netem.Addr { return s.cfg.Addr }

// pid is the switch's trace timeline lane: its fabric address.
func (s *Switch) pid() int32 { return int32(s.cfg.Addr) }

// tracer returns the engine's tracer (nil when tracing is off).
func (s *Switch) tracer() *obs.Tracer { return s.eng.Tracer() }

// traceCtrlOp emits the co-processor occupancy span for a control-plane
// operation that completed now.
func (s *Switch) traceCtrlOp(name string) {
	tr := s.tracer()
	if !tr.Enabled() {
		return
	}
	now := int64(s.eng.Now())
	tr.Emit(obs.PhaseSpan, now-int64(s.cfg.CtrlLatency), int64(s.cfg.CtrlLatency), s.pid(), "switch", name)
}

// Engine returns the simulation engine.
func (s *Switch) Engine() *sim.Engine { return s.eng }

// SetProgram installs the data-plane packet program.
func (s *Switch) SetProgram(p Program) { s.program = p }

// SetMsgHandler installs the data-plane protocol message handler.
func (s *Switch) SetMsgHandler(h MsgHandler) { s.msgHandler = h }

// SetCtrlMsgHandler installs the control-plane message handler; messages
// whose data-plane handler is absent are delivered here at control-plane
// cost.
func (s *Switch) SetCtrlMsgHandler(h func(from netem.Addr, msg wire.Msg)) { s.ctrlMsg = h }

// SetEgress installs the callback invoked for forwarded packets.
func (s *Switch) SetEgress(fn func(pkt *packet.Packet)) { s.egress = fn }

// Fail marks the switch fail-stop: it stops processing everything and
// detaches from the network (§6.3 failure model).
func (s *Switch) Fail() {
	s.failed = true
	s.net.SetNodeUp(s.cfg.Addr, false)
	// A paused switch can still die: its frozen backlog dies with it.
	for _, t := range s.frozen {
		s.releaseTask(t)
	}
	s.frozen = s.frozen[:0]
}

// Failed reports whether the switch has failed.
func (s *Switch) Failed() bool { return s.failed }

// Pause freezes the switch (the GC-pause / SIGSTOP analog, pumba's
// container pause): every dispatch record that comes due parks instead of
// running, outbound sends are suppressed, and inbound traffic backlogs.
// Unlike Fail the switch stays attached and up — peers' messages to it are
// accepted by the fabric and queue behind the freeze. A driver operation:
// call it between runs, never from model callbacks. Idempotent.
func (s *Switch) Pause() { s.paused = true }

// Resume unfreezes the switch and replays the frozen backlog in its
// original dispatch order, at the current virtual time — the burst of stale
// heartbeats, timers, and queued messages a real process emits when the GC
// pause ends. A driver operation; no-op if not paused.
func (s *Switch) Resume() {
	if !s.paused {
		return
	}
	s.paused = false
	frozen := s.frozen
	s.frozen = nil
	now := s.eng.Now()
	for _, t := range frozen {
		s.eng.Schedule(now, t.run)
	}
}

// Paused reports whether the switch is frozen.
func (s *Switch) Paused() bool { return s.paused }

// NotifyReject records that a send from this switch was bounced by a link
// in reject mode — the ICMP-unreachable analog. Unlike a blackhole the
// sender learns its peer is unreachable; protocols observe it as a counted,
// traceable event rather than silence.
func (s *Switch) NotifyReject(to netem.Addr) {
	s.Stats.Rejected.Inc()
	if tr := s.tracer(); tr.Enabled() {
		tr.Instant(int64(s.eng.Now()), s.pid(), "switch", "net.reject")
	}
}

// dpDispatch charges one data-plane pipeline slot and runs the task after
// the pipeline latency. Returns false on tail drop (the task is recycled).
func (s *Switch) dpDispatch(t *task) bool {
	now := s.eng.Now()
	start := s.nextFree
	if start < now {
		start = now
	}
	queued := int(start.Sub(now) / s.slot)
	if queued >= s.cfg.QueueLimit {
		s.Stats.QueueDrops.Inc()
		s.releaseTask(t)
		return false
	}
	s.nextFree = start.Add(s.slot)
	s.eng.Schedule(start.Add(s.cfg.PipelineLatency), t.run)
	return true
}

// dpDispatchFn charges a pipeline slot for a bare callback.
func (s *Switch) dpDispatchFn(fn func()) bool {
	t := s.getTask(taskFn)
	t.fn = fn
	return s.dpDispatch(t)
}

// receive is the netem handler: dispatches data packets to the pipeline and
// protocol messages to the message handler, both at data-plane cost.
func (s *Switch) receive(from netem.Addr, payload any, size int) {
	if s.failed {
		if r, ok := payload.(netem.Releasable); ok {
			r.Release()
		}
		return
	}
	switch v := payload.(type) {
	case *packet.Packet:
		s.InjectPacket(v)
	case wire.Msg:
		s.injectMsg(from, v)
	default:
		panic(fmt.Sprintf("pisa: switch %d received unknown payload %T", s.cfg.Addr, payload))
	}
}

// InjectPacket delivers a packet at ingress; it is processed when a pipeline
// slot frees up. Reports false if tail-dropped.
func (s *Switch) InjectPacket(pkt *packet.Packet) bool {
	if s.failed {
		return false
	}
	s.arrivalSeq++
	pkt.Meta.ArrivalSeq = s.arrivalSeq
	t := s.getTask(taskPipeline)
	t.pkt = pkt
	return s.dpDispatch(t)
}

func (s *Switch) runPipeline(pkt *packet.Packet) {
	if s.program == nil {
		s.Stats.Dropped.Inc()
		return
	}
	s.Stats.Processed.Inc()
	v := s.program(s, pkt)
	if tr := s.tracer(); tr.Enabled() {
		// The packet occupied the pipeline from its scheduled slot until now
		// (dispatch runs PipelineLatency after the slot was claimed).
		now := int64(s.eng.Now())
		rec := tr.Emit(obs.PhaseSpan, now-int64(s.cfg.PipelineLatency), int64(s.cfg.PipelineLatency), s.pid(), "switch", "pipeline")
		rec.K1, rec.V1 = "seq", int64(pkt.Meta.ArrivalSeq)
		rec.K2, rec.V2 = "verdict", int64(v)
		rec.K3, rec.V3 = "recirc", int64(pkt.Meta.Recirculated)
	}
	switch v {
	case Forward:
		s.Stats.Forwarded.Inc()
		if s.egress != nil {
			s.egress(pkt)
		}
	case Recirculate:
		s.Stats.Recirculated.Inc()
		if tr := s.tracer(); tr.Enabled() {
			rec := tr.Emit(obs.PhaseInstant, int64(s.eng.Now()), 0, s.pid(), "switch", "recirc")
			rec.K1, rec.V1 = "seq", int64(pkt.Meta.ArrivalSeq)
		}
		pkt.Meta.Recirculated++
		t := s.getTask(taskPipeline)
		t.pkt = pkt
		s.dpDispatch(t)
	case ToControlPlane:
		s.Stats.Punted.Inc()
		s.CtrlDo(func() {
			if s.ctrlPkt != nil {
				s.ctrlPkt(pkt)
			}
		})
	default:
		// A Drop verdict ends the packet's life. Programs that buffer a
		// packet (e.g. while a state write is in flight) must punt it via
		// ToControlPlane or return Forward, never Drop.
		s.Stats.Dropped.Inc()
	}
}

func (s *Switch) injectMsg(from netem.Addr, msg wire.Msg) {
	if s.msgHandler == nil {
		// No data-plane handler: messages go to the control plane.
		s.deliverCtrlMsg(from, msg)
		return
	}
	t := s.getTask(taskMsg)
	t.from, t.msg = from, msg
	s.dpDispatch(t)
}

func (s *Switch) deliverCtrlMsg(from netem.Addr, msg wire.Msg) {
	if s.failed {
		if r, ok := msg.(netem.Releasable); ok {
			r.Release()
		}
		return
	}
	t := s.getTask(taskCtrlMsg)
	t.from, t.msg = from, msg
	s.ctrlDispatch(t)
}

// Send transmits a protocol message from the data plane. A paused switch
// sends nothing: work initiated from outside its own (frozen) dispatch —
// e.g. a driver-submitted op — loses its transmission, exactly as if the
// kernel had the process stopped; protocol retry timers recover it.
func (s *Switch) Send(to netem.Addr, msg wire.Msg) {
	if s.failed || s.paused {
		return
	}
	s.net.Send(s.cfg.Addr, to, msg, msg.Size())
}

// Multicast sends msg to every group member except this switch, one copy
// per destination (the multicast engine of §7).
func (s *Switch) Multicast(group []netem.Addr, msg wire.Msg) {
	if s.failed || s.paused {
		return
	}
	s.net.Multicast(s.cfg.Addr, group, msg, msg.Size())
}

// InjectEgress charges one pipeline slot and emits pkt through the egress
// hook without re-running the packet program. Control planes use it to
// release a buffered output packet whose processing already happened (§7:
// after the chain acknowledges, "the packet is injected back to the data
// plane and forwarded to its destination"). Reports false on tail drop.
func (s *Switch) InjectEgress(pkt *packet.Packet) bool {
	if s.failed {
		return false
	}
	t := s.getTask(taskEgress)
	t.pkt = pkt
	return s.dpDispatch(t)
}

// PacketGen installs a periodic data-plane task (the switch packet
// generator of §7): fn runs every period at data-plane cost until the switch
// fails, when the generator stops itself.
func (s *Switch) PacketGen(period sim.Duration, fn func()) {
	var tk *sim.Ticker
	tk = s.eng.Every(period, func() {
		if s.failed {
			tk.Stop()
			return
		}
		s.dpDispatchFn(fn)
	})
}

// CtrlDo schedules fn on the control-plane co-processor: it runs after the
// control-plane latency once a control-plane slot frees up.
func (s *Switch) CtrlDo(fn func()) {
	if s.failed {
		return
	}
	t := s.getTask(taskCtrl)
	t.fn = fn
	s.ctrlDispatch(t)
}

// ctrlDispatch charges one control-plane slot and schedules the task after
// the control-plane latency.
func (s *Switch) ctrlDispatch(t *task) {
	now := s.eng.Now()
	start := s.ctrlNextFree
	if start < now {
		start = now
	}
	s.ctrlNextFree = start.Add(s.ctrlSlot)
	s.eng.Schedule(start.Add(s.cfg.CtrlLatency), t.run)
}

// Post schedules fn d from now, keyed by this switch's mailbox. It is how
// control-plane notifications leave the switch for another entity (e.g. a
// donor reporting snapshot completion to the controller).
func (s *Switch) Post(d sim.Duration, fn func()) {
	s.mail.Post(s.eng, d, fn)
}

// CtrlAfter schedules fn on the control plane after at least d (a
// control-plane timer: retransmission timeouts, heartbeats).
func (s *Switch) CtrlAfter(d sim.Duration, fn func()) *sim.Timer {
	return s.eng.After(d, func() {
		if s.failed {
			return
		}
		s.CtrlDo(fn)
	})
}

// SetCtrlPacketHandler installs the handler for packets punted to the
// control plane (ToControlPlane verdicts).
func (s *Switch) SetCtrlPacketHandler(fn func(pkt *packet.Packet)) { s.ctrlPkt = fn }

// MemoryUsed returns data-plane memory charged so far.
func (s *Switch) MemoryUsed() int { return s.memUsed }

// MemoryFree returns the remaining data-plane budget.
func (s *Switch) MemoryFree() int { return s.cfg.MemoryBytes - s.memUsed }

// charge reserves data-plane memory or fails.
func (s *Switch) charge(bytes int, what string) error {
	if bytes < 0 {
		panic("pisa: negative memory charge")
	}
	if s.memUsed+bytes > s.cfg.MemoryBytes {
		return fmt.Errorf("pisa: switch %d out of data-plane memory allocating %s: need %d, free %d",
			s.cfg.Addr, what, bytes, s.MemoryFree())
	}
	s.memUsed += bytes
	if tr := s.tracer(); tr.Enabled() {
		rec := tr.Emit(obs.PhaseInstant, int64(s.eng.Now()), 0, s.pid(), "switch", "mem.charge")
		rec.K1, rec.V1 = "bytes", int64(bytes)
		rec.K2, rec.V2 = "used", int64(s.memUsed)
		rec.KS, rec.VS = "what", what
	}
	return nil
}

// release returns data-plane memory to the budget.
func (s *Switch) release(bytes int) {
	s.memUsed -= bytes
	if s.memUsed < 0 {
		panic("pisa: memory accounting underflow")
	}
}
