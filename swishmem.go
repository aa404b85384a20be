// Package swishmem is a distributed shared state management layer for
// emulated programmable (PISA) switches, reproducing the system described
// in "SwiShmem: Distributed Shared State Abstractions for Programmable
// Switches" (HotNets '20).
//
// SwiShmem gives a cluster of switches a "one big switch" abstraction for
// stateful network functions: shared registers, replicated on every switch,
// accessed through three protocols with different consistency/cost trades:
//
//   - Strong (SRO): linearizable. Writes flow through a chain of switches
//     sequenced at the head and committed at the tail, with the writer's
//     control plane buffering the output packet until the acknowledgement;
//     reads are switch-local except when the key has a write in flight, in
//     which case they are served by the tail.
//   - EventualRead (ERO): like SRO but reads are always local — bounded
//     read latency and no pending-bit memory, at the cost of read-side
//     staleness windows.
//   - EventualWrite (EWO): both reads and writes are local; updates
//     propagate asynchronously by multicast, repaired by periodic full
//     synchronization from the data plane, merged by last-writer-wins or —
//     for counters — a CRDT vector with exact, monotone sums.
//
// The package is the facade over a complete emulated deployment: a
// deterministic discrete-event engine, an unreliable inter-switch fabric,
// PISA switch models with ~10 MB memory budgets and control-plane
// co-processors, a central controller doing failure detection and
// chain/group reconfiguration, and the six network functions the paper
// analyzes (NAT, firewall, IPS, L4 load balancer, DDoS detector, rate
// limiter).
//
// # Quick start
//
//	cluster, err := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
//	if err != nil { ... }
//	regs, err := cluster.DeclareStrong("conn-table", swishmem.StrongOptions{
//	    Capacity: 1 << 16, ValueWidth: 6,
//	})
//	if err != nil { ... }
//	regs[0].Write(key, value, func(committed bool) { ... })
//	cluster.RunFor(10 * time.Millisecond) // advance virtual time
//	regs[2].Read(key, func(v []byte, ok bool) { ... })
package swishmem

import (
	"fmt"
	"math/rand"
	"time"

	"swishmem/internal/chain"
	"swishmem/internal/controller"
	"swishmem/internal/core"
	"swishmem/internal/ewo"
	"swishmem/internal/netem"
	"swishmem/internal/obs"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/wire"
)

// Re-exported building blocks. These are aliases so values returned by the
// cluster interoperate with the documented method sets.
type (
	// Engine is the deterministic discrete-event simulation engine that
	// drives a cluster. All time in a cluster is virtual.
	Engine = sim.Engine
	// LinkProfile configures latency/bandwidth/loss/duplication/reordering
	// of the emulated inter-switch links.
	LinkProfile = netem.LinkProfile
	// LinkStats is per-link and cluster-wide traffic accounting.
	LinkStats = netem.LinkStats
	// DenyMode selects how a link refuses traffic: silently (blackhole) or
	// loudly (reject, the ICMP-unreachable analog surfaced to the sender).
	DenyMode = netem.DenyMode
	// SwitchAddr identifies a switch on the fabric.
	SwitchAddr = netem.Addr
	// Switch is the PISA switch model.
	Switch = pisa.Switch
	// StrongRegister is the SRO/ERO register handle.
	StrongRegister = core.StrongRegister
	// EventualRegister is the EWO last-writer-wins register handle.
	EventualRegister = core.EventualRegister
	// CounterRegister is the EWO counter-CRDT register handle.
	CounterRegister = core.CounterRegister
	// BaselineCounter is the control-plane-replicated baseline handle
	// (for comparisons; not part of the SwiShmem design).
	BaselineCounter = core.BaselineCounter
)

// Config describes a cluster.
type Config struct {
	// Switches is the number of replica switches. Required (>= 1).
	Switches int
	// Spares is the number of additional idle switches available to the
	// controller for chain recovery.
	Spares int
	// Seed makes the whole cluster deterministic.
	Seed int64
	// Link is the default inter-switch link profile. Default: 10µs latency,
	// 100 Gbps, lossless (DataCenter()).
	Link *LinkProfile
	// HeartbeatPeriod is the failure-detection heartbeat interval.
	// Default 1ms.
	HeartbeatPeriod time.Duration
	// Shards is ignored: a cluster runs on one sequential engine.
	//
	// Deprecated: ignored.
	Shards int
}

// Cluster is a running emulated SwiShmem deployment.
type Cluster struct {
	cfg  Config
	eng  *sim.Engine
	net  *netem.Network
	ctrl *controller.Controller

	switches  []*pisa.Switch // replicas then spares
	instances []*core.Instance

	// Timeline streaming state (see StreamMetrics). Ticks are driver-level:
	// RunFor chunks its advance at tick boundaries so the stream samples
	// exactly at the tick time.
	stream       *obs.Stream
	streamTick   sim.Time
	streamPeriod sim.Duration

	dir      *controller.Directory
	regNames map[string]uint16
	nextReg  uint16
}

// ControllerAddr is the fixed fabric address of the central controller.
const ControllerAddr SwitchAddr = 0xfffe

// Deny modes for LinkProfile.Deny.
const (
	DenyNone      = netem.DenyNone
	DenyBlackhole = netem.DenyBlackhole
	DenyReject    = netem.DenyReject
)

// New builds a cluster: switches attached to an emulated fabric, a central
// controller monitoring them, and no registers yet.
func New(cfg Config) (*Cluster, error) {
	if cfg.Switches < 1 {
		return nil, fmt.Errorf("swishmem: need at least one switch")
	}
	if cfg.Spares < 0 {
		return nil, fmt.Errorf("swishmem: negative spares")
	}
	link := netem.DataCenter()
	if cfg.Link != nil {
		link = *cfg.Link
	}
	total := cfg.Switches + cfg.Spares

	eng := sim.NewEngine(cfg.Seed)
	nw := netem.New(eng, link)
	c := &Cluster{cfg: cfg, eng: eng, net: nw,
		dir: controller.NewDirectory(), regNames: make(map[string]uint16), nextReg: 1}

	// Every message a CorruptRate draw condemns is first encoded with the
	// real wire codec, bit-flipped, and decoded again: corruption in any
	// scenario doubles as a fuzz pass proving the decoder returns clean
	// errors, never panics. The reused scratch keeps the steady state
	// allocation-free.
	var scratch []byte
	nw.SetCorruptionChecker(func(rng *rand.Rand, from, to netem.Addr, payload any, size int) {
		msg, ok := payload.(wire.Msg)
		if !ok {
			return // data packets carry no wire encoding to decode-check
		}
		scratch = msg.Marshal(scratch[:0])
		netem.FlipBits(rng, scratch, 1+rng.Intn(3))
		m, err := wire.Unmarshal(scratch)
		if err == nil && m == nil {
			panic("swishmem: wire.Unmarshal returned nil message and nil error for a corrupted frame")
		}
	})

	c.ctrl = controller.New(eng, nw, controller.Config{
		Addr:            ControllerAddr,
		HeartbeatPeriod: sim.Duration(cfg.HeartbeatPeriod),
	})
	for i := 0; i < total; i++ {
		sw := pisa.New(eng, nw, pisa.Config{Addr: SwitchAddr(i + 1)})
		c.switches = append(c.switches, sw)
		c.instances = append(c.instances, core.NewInstance(sw))
		c.ctrl.Monitor(sw)
		// A rejecting link (DenyReject) bounces the send back to the sender —
		// the ICMP-unreachable analog — rather than swallowing it silently.
		nw.SetRejectHandler(sw.Addr(), sw.NotifyReject)
	}
	return c, nil
}

// Engine returns the cluster's simulation engine.
func (c *Cluster) Engine() *Engine { return c.eng }

// Close does nothing: a cluster holds no resources beyond memory.
//
// Deprecated: a no-op.
func (c *Cluster) Close() {}

// Run drains all pending events (to quiescence).
func (c *Cluster) Run() { c.eng.Run() }

// RunFor advances virtual time by d. With metrics streaming enabled the
// advance is chunked at timeline tick boundaries; the chunking is invisible
// to the model (RunUntil leaves the clock exactly at each boundary, and a
// run split into chunks is event-identical to an unsplit one).
func (c *Cluster) RunFor(d time.Duration) {
	deadline := c.eng.Now().Add(sim.Duration(d))
	for c.stream != nil && c.streamTick <= deadline {
		c.eng.RunUntil(c.streamTick)
		c.stream.Tick(int64(c.streamTick))
		c.streamTick = c.streamTick.Add(c.streamPeriod)
	}
	c.eng.RunUntil(deadline)
}

// Now returns the current virtual time as a duration since cluster start.
func (c *Cluster) Now() time.Duration { return time.Duration(c.eng.Now()) }

// EventsProcessed returns the total number of simulation events executed.
func (c *Cluster) EventsProcessed() uint64 { return c.eng.Processed() }

// EventsPending returns the number of scheduled-but-unprocessed events.
func (c *Cluster) EventsPending() int { return c.eng.Pending() }

// Size returns the number of replica switches (excluding spares).
func (c *Cluster) Size() int { return c.cfg.Switches }

// Switch returns replica or spare switch i (replicas first).
func (c *Cluster) Switch(i int) *Switch { return c.switches[i] }

// Instance returns the per-switch SwiShmem runtime (advanced use).
func (c *Cluster) Instance(i int) *core.Instance { return c.instances[i] }

// FailSwitch fail-stops switch i. The controller detects the failure by
// heartbeat timeout and reconfigures chains and groups.
func (c *Cluster) FailSwitch(i int) { c.switches[i].Fail() }

// SetLink overrides the link profile between switches i and j.
func (c *Cluster) SetLink(i, j int, p LinkProfile) {
	c.net.SetLink(c.switches[i].Addr(), c.switches[j].Addr(), p)
}

// SetAllLinks overrides the link profile between every pair of switches
// (replicas and spares alike) — e.g. a cluster-wide loss burst, or calming
// the fabric before a convergence check. Controller links are untouched so
// failure detection is not perturbed.
func (c *Cluster) SetAllLinks(p LinkProfile) {
	for i := range c.switches {
		for j := i + 1; j < len(c.switches); j++ {
			c.net.SetLink(c.switches[i].Addr(), c.switches[j].Addr(), p)
		}
	}
}

// SetOneWayLink overrides only the i->j direction between switches, leaving
// j->i untouched — asymmetric faults (egress-only loss, a one-way blackhole).
// SetLink remains the symmetric sugar over the same directed links.
func (c *Cluster) SetOneWayLink(i, j int, p LinkProfile) {
	c.net.SetOneWayLink(c.switches[i].Addr(), c.switches[j].Addr(), p)
}

// SetControllerLink overrides the two directions between switch i and the
// central controller: toCtrl shapes i->controller (the heartbeat path —
// blackholing it makes a healthy switch look dead), fromCtrl shapes
// controller->i. SetAllLinks never touches these.
func (c *Cluster) SetControllerLink(i int, toCtrl, fromCtrl LinkProfile) {
	c.net.SetOneWayLink(c.switches[i].Addr(), ControllerAddr, toCtrl)
	c.net.SetOneWayLink(ControllerAddr, c.switches[i].Addr(), fromCtrl)
}

// PauseSwitch freezes switch i without killing it (the GC-pause / SIGSTOP
// analog): its dispatch stops, outbound sends are suppressed, and inbound
// work backlogs. The controller eventually declares it dead; when
// ResumeSwitch lets it beat again, the revival path walks it back into its
// chains and groups. A driver operation: call between RunFor steps.
func (c *Cluster) PauseSwitch(i int) { c.switches[i].Pause() }

// ResumeSwitch unfreezes switch i and replays its frozen backlog in order.
func (c *Cluster) ResumeSwitch(i int) { c.switches[i].Resume() }

// Link returns the profile currently governing the i->j direction.
func (c *Cluster) Link(i, j int) LinkProfile {
	return c.net.Profile(c.switches[i].Addr(), c.switches[j].Addr())
}

// Partition splits the replicas into two groups that cannot communicate;
// HealPartition reverses it.
func (c *Cluster) Partition(groupA, groupB []int) {
	for _, i := range groupA {
		c.net.Partition(1, c.switches[i].Addr())
	}
	for _, i := range groupB {
		c.net.Partition(2, c.switches[i].Addr())
	}
}

// HealPartition reconnects all partitioned switches.
func (c *Cluster) HealPartition() { c.net.HealPartition() }

// NetworkTotals returns cluster-wide fabric accounting (bytes/messages sent,
// delivered, dropped) — the basis of the bandwidth-overhead experiments.
func (c *Cluster) NetworkTotals() LinkStats { return c.net.Totals() }

// ResetNetworkTotals zeroes fabric accounting between experiment phases.
func (c *Cluster) ResetNetworkTotals() { c.net.ResetTotals() }

// Controller exposes the central controller. Every cluster has one, so it is
// never nil.
func (c *Cluster) Controller() *controller.Controller { return c.ctrl }

func (c *Cluster) allocReg(name string) (uint16, error) {
	if name == "" {
		return 0, fmt.Errorf("swishmem: register needs a name")
	}
	if _, dup := c.regNames[name]; dup {
		return 0, fmt.Errorf("swishmem: register %q already declared", name)
	}
	id := c.nextReg
	c.nextReg++
	c.regNames[name] = id
	return id, nil
}

// StrongOptions parameterizes an SRO/ERO register.
type StrongOptions struct {
	// Capacity is the number of keys.
	Capacity int
	// ValueWidth is the value size in bytes, 1..65535; a longer value is
	// truncated at Write.
	ValueWidth int
	// ReadOptimized selects ERO instead of SRO.
	ReadOptimized bool
	// RetryTimeout is the writer's retransmission timeout. Default 1ms.
	RetryTimeout time.Duration
	// ReplicaOn restricts replication to the listed replica-switch indices
	// (the §9 locality extension). All other switches get zero-SRAM proxy
	// handles that access the register remotely (reads at the tail, writes
	// via the head). nil replicates everywhere (the paper's base design).
	ReplicaOn []int
	// Retransmit selects the retransmit replication backend: in-order apply
	// with hop-level hold-back/retransmit buffers that recover lost
	// chain-hop frames in the data plane (closing the E15 anomaly window),
	// at the SRAM cost of a 16-write hold-back and retransmit buffer per key.
	Retransmit bool
}

// DeclareStrong declares an SRO/ERO register on every replica switch, wires
// the chain through the controller (replicas in index order; spares
// registered for recovery), and returns one handle per replica switch.
// With StrongOptions.ReplicaOn set, only the listed switches hold replicas;
// the rest receive proxy handles. The cluster directory records placement.
func (c *Cluster) DeclareStrong(name string, opts StrongOptions) ([]*StrongRegister, error) {
	id, err := c.allocReg(name)
	if err != nil {
		return nil, err
	}
	cfg := chain.Config{
		Reg:          id,
		Capacity:     opts.Capacity,
		ValueWidth:   opts.ValueWidth,
		RetryTimeout: sim.Duration(opts.RetryTimeout),
	}
	if opts.Retransmit {
		cfg.Replication = chain.RetransmitReplication
	}
	cons := core.Strong
	if opts.ReadOptimized {
		cons = core.EventualRead
	}
	replica := everywhere
	if opts.ReplicaOn != nil {
		set := make(map[int]bool, len(opts.ReplicaOn))
		for _, i := range opts.ReplicaOn {
			if i < 0 || i >= c.cfg.Switches {
				return nil, fmt.Errorf("swishmem: ReplicaOn index %d out of range", i)
			}
			set[i] = true
		}
		if len(set) == 0 {
			return nil, fmt.Errorf("swishmem: ReplicaOn must name at least one switch")
		}
		replica = func(i int) bool { return set[i] }
	}
	handles := make([]*StrongRegister, 0, len(c.instances))
	for i, in := range c.instances {
		nodeCfg := cfg
		nodeCfg.Proxy = i < c.cfg.Switches && !replica(i)
		h, err := in.NewStrongRegister(cons, nodeCfg)
		if err != nil {
			return nil, fmt.Errorf("swishmem: declaring %q: %w", name, err)
		}
		handles = append(handles, h)
	}
	c.manageChain(id, handles, replica)
	return handles[:c.cfg.Switches], nil
}

// everywhere is the placement of a register replicated on every switch.
func everywhere(int) bool { return true }

// manageChain hands a strong register's handles, one per switch and spare,
// to the directory and the controller: the replicas (replica(i)) form the
// chain in index order, the spares wait for recovery, and the proxies are
// configuration listeners that learn the chain (and every future
// reconfiguration) without ever joining it.
func (c *Cluster) manageChain(id uint16, handles []*StrongRegister, replica func(int) bool) {
	var members, spares []controller.ChainMember
	for i, h := range handles {
		switch {
		case i >= c.cfg.Switches:
			spares = append(spares, h.Node())
		case replica(i):
			members = append(members, h.Node())
			c.dir.Register(id, c.switches[i].Addr())
		}
	}
	c.ctrl.ManageChain(id, members, spares)
	for i, h := range handles[:c.cfg.Switches] {
		if !replica(i) {
			c.ctrl.AttachChainListener(id, h.Node())
		}
	}
}

// Directory exposes the cluster's replica-placement directory (§9): which
// switches hold replicas of which registers.
func (c *Cluster) Directory() *controller.Directory { return c.dir }

// EventualOptions parameterizes EWO registers.
type EventualOptions struct {
	// Capacity is the number of keys.
	Capacity int
	// ValueWidth is the LWW value size in bytes (ignored for counters).
	ValueWidth int
	// SyncPeriod is the periodic data-plane synchronization interval.
	// Default 1ms (the paper's example: 10 MB/1 ms ≈ 1% of bandwidth).
	SyncPeriod time.Duration
	// DisableSync turns periodic synchronization off.
	DisableSync bool
	// Batch holds this many register writes, across instants, for one
	// multicast (§7 batching). Default 1: nothing is held — the writes of
	// one instant leave together, as one update, at that instant. A partial
	// batch waits for the batch to fill or for the periodic sync.
	Batch int
}

func (c *Cluster) ewoConfig(opts EventualOptions, kind ewo.Kind) ewo.Config {
	cfg := ewo.Config{
		Capacity:   opts.Capacity,
		ValueWidth: opts.ValueWidth,
		Kind:       kind,
		MaxGroup:   len(c.switches),
		SyncPeriod: sim.Duration(opts.SyncPeriod),
		Batch:      opts.Batch,
	}
	if opts.DisableSync {
		cfg.SyncPeriod = -1
	}
	return cfg
}

// DeclareEventual declares an EWO LWW register on every replica switch and
// returns one handle per switch.
func (c *Cluster) DeclareEventual(name string, opts EventualOptions) ([]*EventualRegister, error) {
	return declareEWO(c, name, c.ewoConfig(opts, ewo.LWW), (*core.Instance).NewEventualRegister)
}

// DeclareCounter declares an EWO counter register (a G-counter) on every
// replica switch.
func (c *Cluster) DeclareCounter(name string, opts EventualOptions) ([]*CounterRegister, error) {
	return declareEWO(c, name, c.ewoConfig(opts, ewo.Counter), (*core.Instance).NewCounterRegister)
}

// declareEWO declares an EWO register on every switch, spares included, with
// mk building each node from cfg under the register's ID; the replicas form
// its group and their handles are returned.
func declareEWO[H interface{ Node() *ewo.Node }](c *Cluster, name string, cfg ewo.Config,
	mk func(*core.Instance, ewo.Config) (H, error)) ([]H, error) {
	id, err := c.allocReg(name)
	if err != nil {
		return nil, err
	}
	cfg.Reg = id
	handles := make([]H, 0, len(c.instances))
	members := make([]controller.GroupMember, 0, c.cfg.Switches)
	for i, in := range c.instances {
		h, err := mk(in, cfg)
		if err != nil {
			return nil, fmt.Errorf("swishmem: declaring %q: %w", name, err)
		}
		handles = append(handles, h)
		if i < c.cfg.Switches {
			members = append(members, h.Node())
		}
	}
	c.ctrl.ManageGroup(id, members)
	return handles[:c.cfg.Switches], nil
}

// JoinCounterGroup performs EWO recovery for a named counter register: the
// spare at index spare (>= Size()) is added to the multicast group; the
// periodic synchronization brings it up to date within about one period
// (§6.3).
func (c *Cluster) JoinCounterGroup(name string, spare int) error {
	id, ok := c.regNames[name]
	if !ok {
		return fmt.Errorf("swishmem: unknown register %q", name)
	}
	if spare < c.cfg.Switches || spare >= len(c.instances) {
		return fmt.Errorf("swishmem: switch %d is not a spare", spare)
	}
	// The spare's node was declared with the register; find it via a fresh
	// handle-less lookup: re-declaring is invalid, so reach through the
	// instance (the node registered at declaration time).
	h, err := c.instances[spare].CounterHandle(id)
	if err != nil {
		return err
	}
	c.ctrl.AddGroupMember(id, h.Node())
	return nil
}

// RegisterID returns the wire register ID allocated to a declared name.
func (c *Cluster) RegisterID(name string) (uint16, bool) {
	id, ok := c.regNames[name]
	return id, ok
}

// MemoryUsed returns the SRAM consumed on switch i by all declared state.
func (c *Cluster) MemoryUsed(i int) int { return c.switches[i].MemoryUsed() }
