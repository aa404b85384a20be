// Package controller implements the central controller SwiShmem assumes for
// failure handling (§6.3: "We assume that a central controller can detect
// which switches have failed") plus the directory-service extension sketched
// in §9.
//
// Detection is data-plane heartbeats over the unreliable fabric with a
// timeout. Configuration delivery, by contrast, uses the controller's
// reliable control channel to each switch's control plane (out-of-band TCP
// in a real deployment — the control plane, unlike the data plane, can run
// TCP), modeled as a direct call executed at control-plane cost.
//
// On a chain member failure the controller:
//  1. installs a shortened chain (restoring write availability — failover);
//  2. if a spare switch is registered, starts recovery: the spare joins
//     (snapshot transfer from a donor, live writes forwarded by the tail)
//     and is promoted to tail when the transfer completes.
//
// On an EWO group member failure the controller simply removes the switch
// from the multicast group; recovery is adding a switch back and waiting a
// sync period (§6.3).
package controller

import (
	"slices"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/obs"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/stats"
	"swishmem/internal/wire"
)

// ChainMember is the controller's view of a chain protocol instance.
// *chain.Node satisfies it.
type ChainMember interface {
	SetChain(cc wire.ChainConfig)
	BeginJoin()
	StartSnapshotTransfer(to netem.Addr, onComplete func())
	Switch() *pisa.Switch
}

// GroupMember is the controller's view of an EWO protocol instance.
// *ewo.Node satisfies it.
type GroupMember interface {
	SetGroup(gc wire.GroupConfig) error
	Switch() *pisa.Switch
}

// Config holds controller parameters.
type Config struct {
	// Addr is the controller's network address. Required.
	Addr netem.Addr
	// HeartbeatPeriod is how often monitored switches beat. Default 1ms.
	HeartbeatPeriod sim.Duration
}

const (
	// failureBeats is how many heartbeat periods of silence declare a
	// switch dead.
	failureBeats = 4
	// configDelay is the one-way latency of the reliable control channel
	// (out-of-band TCP in a real deployment): every configuration push and
	// every completion notification back to the controller arrives this
	// long after it was issued.
	configDelay = 50 * time.Microsecond
)

func (c Config) withDefaults() Config {
	if c.HeartbeatPeriod == 0 {
		c.HeartbeatPeriod = time.Millisecond
	}
	return c
}

// Stats counts controller events.
type Stats struct {
	Heartbeats    stats.Counter
	FailuresSeen  stats.Counter
	ChainReconfig stats.Counter
	GroupReconfig stats.Counter
	Recoveries    stats.Counter // completed chain recoveries (spare promoted)
	Revivals      stats.Counter // evicted switches that resumed beating and rejoined
}

type chainState struct {
	epoch     uint32
	target    int           // membership size to restore toward (set at ManageChain)
	members   []ChainMember // in chain order
	spares    []ChainMember
	joining   ChainMember
	listeners []ChainMember // non-member config receivers (§9 proxies)
	// evicted holds members and spares removed by failure detection, so a
	// switch that was merely frozen (GC pause) and resumes beating can be
	// revived: it re-enters as a spare and rejoins through the normal
	// snapshot-transfer path when the chain is below target strength.
	evicted []ChainMember
	// retiring is the member a planned migration removes when the joining
	// switch is promoted; 0 while the join, if any, is a failure recovery.
	retiring netem.Addr
}

// config returns the chain's current configuration as pushed to switches.
func (cs *chainState) config() wire.ChainConfig {
	cc := wire.ChainConfig{Epoch: cs.epoch}
	for _, m := range cs.members {
		cc.Members = append(cc.Members, uint16(m.Switch().Addr()))
	}
	if cs.joining != nil {
		cc.Joining = uint16(cs.joining.Switch().Addr())
	}
	return cc
}

type groupState struct {
	epoch   uint32
	members []GroupMember
	// evicted mirrors chainState.evicted for EWO groups: revival re-adds
	// the member and a sync period brings both sides back in step (§6.3).
	evicted []GroupMember
}

// Controller is the central controller.
type Controller struct {
	eng *sim.Engine
	net *netem.Network
	cfg Config

	lastBeat map[netem.Addr]sim.Time
	dead     map[netem.Addr]bool

	chains map[uint16]*chainState
	groups map[uint16]*groupState

	// OnFailure, if set, is invoked when a switch is declared dead.
	OnFailure func(addr netem.Addr)

	// noRevive disables the revival path (see DisableRevival).
	noRevive bool

	// mail keys the controller's outgoing control-channel posts: every
	// config push travels as a posted message arriving configDelay later.
	mail *sim.Mailbox

	// Iteration scratch, reused so the periodic scan allocates nothing in
	// steady state. Go map ranges are deliberately randomized, so every walk
	// that can trigger reconfiguration sorts first: with two switches silent
	// in the same scan tick, failover order (and thus spare selection and the
	// wire-visible config sequence) must not shift run to run.
	scanScratch []netem.Addr
	regScratch  []uint16

	Stats Stats
}

// New creates a controller, attaches it to the network, and starts the
// failure detection scan.
func New(eng *sim.Engine, nw *netem.Network, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		eng:      eng,
		net:      nw,
		cfg:      cfg,
		lastBeat: make(map[netem.Addr]sim.Time),
		dead:     make(map[netem.Addr]bool),
		chains:   make(map[uint16]*chainState),
		groups:   make(map[uint16]*groupState),
		mail:     sim.NewMailbox(uint64(cfg.Addr)),
	}
	nw.Attach(cfg.Addr, c.receive)
	eng.Every(cfg.HeartbeatPeriod, c.scan)
	return c
}

// ctrlCall delivers fn to sw's control plane over the reliable control
// channel: it arrives configDelay later and is charged as a control-plane op
// on sw.
func (c *Controller) ctrlCall(sw *pisa.Switch, fn func()) {
	c.post(func() { sw.CtrlDo(fn) })
}

// post delivers fn after configDelay without the CtrlDo wrapper, for
// operations that manage their own control-plane charging
// (StartSnapshotTransfer runs its body under the donor's CtrlDo already).
func (c *Controller) post(fn func()) {
	c.mail.Post(c.eng, configDelay, fn)
}

// traceInstant emits a controller-lane instant with up to two int args.
func (c *Controller) traceInstant(name, k1 string, v1 int64, k2 string, v2 int64) {
	tr := c.eng.Tracer()
	if !tr.Enabled() {
		return
	}
	rec := tr.Emit(obs.PhaseInstant, int64(c.eng.Now()), 0, obs.PidCtrl, "ctrl", name)
	rec.K1, rec.V1 = k1, v1
	rec.K2, rec.V2 = k2, v2
}

func (c *Controller) receive(from netem.Addr, payload any, size int) {
	hb, ok := payload.(*wire.Heartbeat)
	if !ok {
		// The delivery's payload reference passed to us; drop it even for
		// messages we ignore (no-op for non-pooled payloads).
		if r, ok := payload.(netem.Releasable); ok {
			r.Release()
		}
		return
	}
	c.Stats.Heartbeats.Inc()
	if tr := c.eng.Tracer(); tr.Enabled() {
		rec := tr.Emit(obs.PhaseInstant, int64(c.eng.Now()), 0, obs.PidCtrl, "ctrl", "heartbeat")
		rec.K1, rec.V1 = "from", int64(from)
		rec.K2, rec.V2 = "seq", int64(hb.Seq)
	}
	c.lastBeat[from] = c.eng.Now()
	if c.dead[from] {
		// A declared-dead switch beating again was not dead at all — it was
		// frozen (a GC pause, a SIGSTOP) and has resumed. The failure
		// detector cannot distinguish the two in advance; what it CAN do is
		// repair its mistake now: revive the switch by walking it back into
		// every chain (as a spare, rejoining via snapshot transfer when the
		// chain is short) and every group it was evicted from. The epoch
		// guards make this split-brain-safe — the revived switch's stale
		// configuration is superseded before it serves for the chain again.
		delete(c.dead, from)
		if !c.noRevive {
			c.Stats.Revivals.Inc()
			c.traceInstant("revival", "addr", int64(from), "", 0)
			c.handleRevival(from)
		}
	}
	hb.Release()
}

// DisableRevival turns off the eviction-repair path: a switch declared dead
// stays out of its chains and groups even if it resumes beating. This is the
// pre-revival behaviour, kept as an injectable bug — a paused-then-resumed
// switch that is never walked back in misses every update its groups made
// after the eviction, which the explorer's counter-total and convergence
// oracles catch deterministically (see TESTING.md).
func (c *Controller) DisableRevival() { c.noRevive = true }

// Monitor starts heartbeats from sw to the controller and registers it for
// failure detection.
func (c *Controller) Monitor(sw *pisa.Switch) {
	c.lastBeat[sw.Addr()] = c.eng.Now()
	StartHeartbeats(sw, c.cfg.Addr, c.cfg.HeartbeatPeriod)
}

// StartHeartbeats runs sw's heartbeat source: a data-plane packet-generator
// task that sends one wire.Heartbeat to the controller at ctrl every period.
// Simulated and live members beat through this one generator. Heartbeats are
// pooled (see wire.Heartbeat): the network holds a reference per in-flight
// delivery and the receiver releases it, so steady-state monitoring
// allocates nothing.
func StartHeartbeats(sw *pisa.Switch, ctrl netem.Addr, period sim.Duration) {
	seq := uint64(0)
	var free []*wire.Heartbeat
	freeFn := func(h *wire.Heartbeat) { free = append(free, h) }
	sw.PacketGen(period, func() {
		seq++
		var hb *wire.Heartbeat
		if n := len(free); n > 0 {
			hb = free[n-1]
			free[n-1] = nil
			free = free[:n-1]
		} else {
			hb = &wire.Heartbeat{}
			hb.EnablePool(freeFn)
		}
		hb.From, hb.Seq = uint16(sw.Addr()), seq
		hb.Ref()
		sw.Send(ctrl, hb)
		hb.Release()
	})
}

// scan declares switches dead after failureBeats heartbeat periods of
// silence and triggers reconfiguration.
func (c *Controller) scan() {
	now := c.eng.Now()
	addrs := c.scanScratch[:0]
	for addr := range c.lastBeat {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	c.scanScratch = addrs
	for _, addr := range addrs {
		if c.dead[addr] || now.Sub(c.lastBeat[addr]) < failureBeats*c.cfg.HeartbeatPeriod {
			continue
		}
		c.dead[addr] = true
		c.Stats.FailuresSeen.Inc()
		c.traceInstant("failure", "addr", int64(addr), "silence_ns", int64(now.Sub(c.lastBeat[addr])))
		c.handleFailure(addr)
		if c.OnFailure != nil {
			c.OnFailure(addr)
		}
	}
}

// Dead reports whether the controller has declared addr failed.
func (c *Controller) Dead(addr netem.Addr) bool { return c.dead[addr] }

// --- chain management ---

// ManageChain registers a chain for register reg: members in chain order,
// plus spare switches available for recovery. The initial configuration is
// pushed immediately.
func (c *Controller) ManageChain(reg uint16, members, spares []ChainMember) {
	cs := &chainState{members: members, spares: spares, target: len(members)}
	c.chains[reg] = cs
	c.pushChain(cs)
}

// AttachChainListener registers a non-member configuration receiver for
// reg's chain: it gets every ChainConfig push (including future failover
// reconfigurations) without ever being part of the chain. Used by the §9
// locality extension's proxy handles, which must know the current head and
// tail to route their remote operations.
func (c *Controller) AttachChainListener(reg uint16, m ChainMember) {
	cs, ok := c.chains[reg]
	if !ok {
		return
	}
	cs.listeners = append(cs.listeners, m)
	// Deliver the current configuration immediately.
	c.sendChain(m, cs.config())
}

// sendChain delivers cc to m over the reliable control channel.
func (c *Controller) sendChain(m ChainMember, cc wire.ChainConfig) {
	c.ctrlCall(m.Switch(), func() { m.SetChain(cc) })
}

// pushChain bumps the epoch and delivers the configuration to every member
// (and joining switch) over the reliable control channel.
func (c *Controller) pushChain(cs *chainState) {
	cs.epoch++
	c.Stats.ChainReconfig.Inc()
	c.traceInstant("chain.config", "epoch", int64(cs.epoch), "members", int64(len(cs.members)))
	cc := cs.config()
	for _, m := range cs.members {
		c.sendChain(m, cc)
	}
	if cs.joining != nil {
		c.sendChain(cs.joining, cc)
	}
	for _, m := range cs.listeners {
		c.sendChain(m, cc)
	}
}

// sortedRegs returns m's register IDs in ascending order, built in scratch.
func sortedRegs[V any](m map[uint16]V, scratch []uint16) []uint16 {
	regs := scratch[:0]
	for reg := range m {
		regs = append(regs, reg)
	}
	slices.Sort(regs)
	return regs
}

// handleFailure routes around addr in every chain and group, visiting
// registers in sorted order so the reconfiguration sequence is deterministic.
func (c *Controller) handleFailure(addr netem.Addr) {
	c.regScratch = sortedRegs(c.chains, c.regScratch)
	for _, reg := range c.regScratch {
		c.failChainMember(c.chains[reg], addr)
	}
	c.regScratch = sortedRegs(c.groups, c.regScratch)
	for _, reg := range c.regScratch {
		c.failGroupMember(c.groups[reg], addr)
	}
}

// at matches the member running on the switch at addr.
func at[M interface{ Switch() *pisa.Switch }](addr netem.Addr) func(M) bool {
	return func(m M) bool { return m.Switch().Addr() == addr }
}

// take removes the first member at addr from ms, reporting whether it was
// there.
func take[M interface{ Switch() *pisa.Switch }](ms []M, addr netem.Addr) (m M, rest []M, ok bool) {
	i := slices.IndexFunc(ms, at[M](addr))
	if i < 0 {
		return m, ms, false
	}
	m = ms[i] // read before Delete shifts the tail over it
	return m, slices.Delete(ms, i, i+1), true
}

func (c *Controller) failChainMember(cs *chainState, addr netem.Addr) {
	idx := slices.IndexFunc(cs.members, at[ChainMember](addr))
	if idx < 0 {
		// A failed spare or joining switch just drops out (but stays
		// revivable: a frozen spare that resumes is still a useful spare).
		if m, rest, ok := take(cs.spares, addr); ok {
			cs.spares, cs.evicted = rest, append(cs.evicted, m)
		}
		if cs.joining != nil && cs.joining.Switch().Addr() == addr {
			cs.evicted = append(cs.evicted, cs.joining)
			cs.joining, cs.retiring = nil, 0 // a migration dies with its joiner
			c.pushChain(cs)
		}
		return
	}
	// Failover: shorten the chain (restores write availability; writers'
	// control planes re-send in-flight writes against the new epoch).
	cs.evicted = append(cs.evicted, cs.members[idx])
	cs.members = append(cs.members[:idx:idx], cs.members[idx+1:]...)
	c.pushChain(cs)
	if len(cs.members) == 0 {
		return
	}
	if cs.joining != nil {
		// A snapshot transfer was interrupted by the reconfiguration: its
		// writes carry the old epoch and the joining switch rejects them,
		// so restart the transfer under the new epoch (a planned migration
		// still retires its old member at promotion).
		c.beginTransfer(cs)
		return
	}
	// Recovery: bring in a spare if one is available.
	if len(cs.spares) > 0 {
		c.startRecovery(cs)
	}
}

// startRecovery begins the §6.3 recovery flow with the first spare.
func (c *Controller) startRecovery(cs *chainState) {
	spare := cs.spares[0]
	cs.spares = cs.spares[1:]
	c.traceInstant("recovery.start", "spare", int64(spare.Switch().Addr()), "epoch", int64(cs.epoch))
	c.startJoin(cs, spare)
}

// startJoin is the one way a switch enters a chain, for recovery and planned
// migration alike: m enters joining mode, a configuration naming it as
// Joining makes the tail forward fresh commits to it, and a donor streams
// its snapshot.
func (c *Controller) startJoin(cs *chainState, m ChainMember) {
	cs.joining = m
	c.ctrlCall(m.Switch(), m.BeginJoin)
	c.pushChain(cs)
	c.beginTransfer(cs)
}

// beginTransfer (re)starts the snapshot transfer for the current joining
// switch and, on completion, promotes it to tail and drops the retiring
// member if there is one. The epoch guard abandons the promotion if the
// chain reconfigures mid-transfer; the reconfiguration path calls
// beginTransfer again under the new epoch.
func (c *Controller) beginTransfer(cs *chainState) {
	spare := cs.joining
	donor := cs.members[0]
	if donor.Switch().Addr() == cs.retiring && len(cs.members) > 1 {
		donor = cs.members[1] // do not snapshot from the switch being retired
	}
	donorSw := donor.Switch()
	epochAtStart := cs.epoch
	// The donor reports completion with a post keyed by its own mailbox
	// (donorSw.Post), mirroring the notification's trip back over the
	// control channel.
	promote := func() {
		// Promote unless the world changed underneath the transfer.
		if cs.joining != spare || cs.epoch != epochAtStart {
			return
		}
		_, cs.members, _ = take(append(cs.members, spare), cs.retiring)
		cs.joining, cs.retiring = nil, 0
		c.pushChain(cs)
		c.Stats.Recoveries.Inc()
		c.traceInstant("recovery.done", "promoted", int64(spare.Switch().Addr()), "epoch", int64(cs.epoch))
	}
	to := spare.Switch().Addr()
	delay := configDelay
	c.post(func() {
		donor.StartSnapshotTransfer(to, func() {
			donorSw.Post(delay, promote)
		})
	})
}

// --- group management ---

// ManageGroup registers an EWO replica group for register reg and pushes
// the initial membership.
func (c *Controller) ManageGroup(reg uint16, members []GroupMember) {
	gs := &groupState{members: members}
	c.groups[reg] = gs
	c.pushGroup(gs)
}

// AddGroupMember performs EWO recovery: add the switch to the multicast
// group; the periodic synchronization brings it up to date (§6.3).
func (c *Controller) AddGroupMember(reg uint16, m GroupMember) {
	gs, ok := c.groups[reg]
	if !ok {
		return
	}
	gs.members = append(gs.members, m)
	c.pushGroup(gs)
}

func (c *Controller) pushGroup(gs *groupState) {
	gs.epoch++
	c.Stats.GroupReconfig.Inc()
	c.traceInstant("group.config", "epoch", int64(gs.epoch), "members", int64(len(gs.members)))
	gc := wire.GroupConfig{Epoch: gs.epoch}
	for _, m := range gs.members {
		gc.Members = append(gc.Members, uint16(m.Switch().Addr()))
	}
	for _, m := range gs.members {
		cfg := gc
		node := m
		c.ctrlCall(node.Switch(), func() { _ = node.SetGroup(cfg) })
	}
}

func (c *Controller) failGroupMember(gs *groupState, addr netem.Addr) {
	if m, rest, ok := take(gs.members, addr); ok {
		gs.members, gs.evicted = rest, append(gs.evicted, m)
		c.pushGroup(gs)
	}
}

// --- revival ---

// handleRevival walks a resumed switch back into every chain and group it
// was evicted from, visiting registers in sorted order (deterministic
// reconfiguration sequence, like handleFailure). Chains take it back as a
// spare and start a recovery when below target strength; groups re-add it
// directly — the next sync period reconciles state both ways (§6.3).
func (c *Controller) handleRevival(addr netem.Addr) {
	c.regScratch = sortedRegs(c.chains, c.regScratch)
	for _, reg := range c.regScratch {
		c.reviveChainMember(c.chains[reg], addr)
	}
	c.regScratch = sortedRegs(c.groups, c.regScratch)
	for _, reg := range c.regScratch {
		c.reviveGroupMember(c.groups[reg], addr)
	}
}

func (c *Controller) reviveChainMember(cs *chainState, addr netem.Addr) {
	revived, rest, ok := take(cs.evicted, addr)
	if !ok {
		return
	}
	cs.evicted = rest
	cs.spares = append(cs.spares, revived)
	if cs.joining == nil && len(cs.members) > 0 && len(cs.members) < cs.target {
		// The chain is below strength and idle: rejoin through the normal
		// spare path (BeginJoin + snapshot transfer + tail promotion), which
		// also pushes fresh configs everywhere.
		c.startRecovery(cs)
		return
	}
	// The chain is whole (or busy joining): the revived switch stays a
	// spare. Send it the current configuration so it learns its stale view
	// — in which it may still believe itself a member — is superseded.
	c.sendChain(revived, cs.config())
}

func (c *Controller) reviveGroupMember(gs *groupState, addr netem.Addr) {
	revived, rest, ok := take(gs.evicted, addr)
	if !ok {
		return
	}
	gs.evicted = rest
	gs.members = append(gs.members, revived)
	c.pushGroup(gs)
}
