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
	// SwitchMemory is the per-switch data-plane SRAM budget in bytes.
	// Default 10 MB (§2 of the paper).
	SwitchMemory int
	// PipelinePPS is the switch line rate in packets/second. Default 5e9.
	PipelinePPS float64
	// CtrlOpsPerSec is the control-plane co-processor rate. Default 1e5.
	CtrlOpsPerSec float64
	// HeartbeatPeriod is the failure-detection heartbeat interval.
	// Default 1ms.
	HeartbeatPeriod time.Duration
	// Shards selects parallel simulation: 0 or 1 runs the classic
	// single-threaded engine; K > 1 partitions the switches round-robin
	// across K shard engines advanced together in conservative time windows
	// bounded by the minimum cross-shard link latency (the controller lives
	// on shard 0). Results are byte-identical to a sequential run with the
	// same seed. The count is capped at the number of switches, and the
	// cluster falls back to sequential when there are fewer than two nodes
	// or the default link has zero latency (no lookahead). Sharded clusters
	// own worker goroutines: call Close when done.
	Shards int

	// noController builds the cluster without its central controller, for
	// tests that install configuration by hand (export_test.go sets it).
	noController bool
}

// Cluster is a running emulated SwiShmem deployment.
type Cluster struct {
	cfg   Config
	eng   *sim.Engine // shard-0 engine when sharded
	group *sim.Group  // nil in sequential mode
	net   *netem.Network
	ctrl  *controller.Controller

	switches  []*pisa.Switch // replicas then spares
	instances []*core.Instance

	tracers []*Tracer // per-shard tracers while tracing is enabled

	// Timeline streaming state (see StreamMetrics). Ticks are driver-level:
	// RunFor chunks its advance at tick boundaries so the stream samples with
	// every shard exactly at the tick time, keeping the event stream and the
	// timeline identical across shard counts.
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

	// Resolve the effective shard count: capped at the switch count, and
	// collapsed to sequential when parallelism cannot help (one node) or
	// cannot be conservative (a zero-latency default link gives no
	// lookahead, so windows would be empty).
	shards := cfg.Shards
	if shards > total {
		shards = total
	}
	if total < 2 || link.MinDelay() <= 0 {
		shards = 1
	}

	c := &Cluster{cfg: cfg,
		dir: controller.NewDirectory(), regNames: make(map[string]uint16), nextReg: 1}

	var nw *netem.Network
	if shards > 1 {
		c.group = sim.NewGroup(cfg.Seed, shards)
		c.eng = c.group.Engines()[0]
		// The controller lives on shard 0; switch i lives on shard i%K.
		// Addresses are assigned below as i+1, so the mapping is pure
		// arithmetic — total over every address that can ever appear.
		k := shards
		nw = netem.NewSharded(c.group, link, func(a netem.Addr) int {
			if i := int(a) - 1; i >= 0 && i < total {
				return i % k
			}
			return 0
		})
	} else {
		c.eng = sim.NewEngine(cfg.Seed)
		nw = netem.New(c.eng, link)
	}
	c.net = nw

	// Every message a CorruptRate draw condemns is first encoded with the
	// real wire codec, bit-flipped, and decoded again: corruption in any
	// scenario doubles as a fuzz pass proving the decoder returns clean
	// errors, never panics. Per-shard scratch keeps sharded sends race-free
	// and the steady state allocation-free.
	scratch := make([][]byte, shards)
	if shards < 1 {
		scratch = make([][]byte, 1) // sequential runs deliver on shard 0
	}
	nw.SetCorruptionChecker(func(shard int, rng *rand.Rand, from, to netem.Addr, payload any, size int) {
		msg, ok := payload.(wire.Msg)
		if !ok {
			return // data packets carry no wire encoding to decode-check
		}
		buf := msg.Marshal(scratch[shard][:0])
		netem.FlipBits(rng, buf, 1+rng.Intn(3))
		m, err := wire.Unmarshal(buf)
		if err == nil && m == nil {
			panic("swishmem: wire.Unmarshal returned nil message and nil error for a corrupted frame")
		}
		scratch[shard] = buf
	})

	if !cfg.noController {
		c.ctrl = controller.New(c.eng, nw, controller.Config{
			Addr:            ControllerAddr,
			HeartbeatPeriod: sim.Duration(cfg.HeartbeatPeriod),
		})
	}
	for i := 0; i < total; i++ {
		eng := c.eng
		if c.group != nil {
			eng = c.group.Engines()[i%shards]
		}
		sw := pisa.New(eng, nw, pisa.Config{
			Addr:          SwitchAddr(i + 1),
			MemoryBytes:   cfg.SwitchMemory,
			PipelinePPS:   cfg.PipelinePPS,
			CtrlOpsPerSec: cfg.CtrlOpsPerSec,
		})
		c.switches = append(c.switches, sw)
		c.instances = append(c.instances, core.NewInstance(sw))
		if c.ctrl != nil {
			c.ctrl.Monitor(sw)
		}
		// A rejecting link (DenyReject) bounces the send back to the sender —
		// the ICMP-unreachable analog — rather than swallowing it silently.
		nw.SetRejectHandler(sw.Addr(), sw.NotifyReject)
	}
	if c.group != nil {
		c.refreshLookahead()
	}
	return c, nil
}

// refreshLookahead recomputes the group's conservative window width: the
// smallest delay any cross-shard interaction can have, which is the minimum
// cross-shard link latency and (with a controller) the control-channel
// delay. Called after construction and after every link-profile change.
func (c *Cluster) refreshLookahead() {
	la := c.net.MinCrossShardLatency()
	if c.ctrl != nil && c.ctrl.ConfigDelay() < la {
		la = c.ctrl.ConfigDelay()
	}
	if la <= 0 {
		panic("swishmem: zero-latency cross-shard link in sharded mode (disable Shards or give the link a latency)")
	}
	c.group.SetLookahead(la)
}

// Engine returns the cluster's simulation engine (shard 0's when sharded —
// use it only for driver-side scheduling, never to reach another shard's
// switch).
func (c *Cluster) Engine() *Engine { return c.eng }

// ShardGroup returns the parallel shard group, or nil in sequential mode.
func (c *Cluster) ShardGroup() *sim.Group { return c.group }

// Shards returns the effective shard count (1 in sequential mode).
func (c *Cluster) Shards() int {
	if c.group == nil {
		return 1
	}
	return c.group.Shards()
}

// Close releases cluster resources (the shard worker goroutines). It is a
// no-op for sequential clusters and idempotent; no cluster method may be
// called after Close.
func (c *Cluster) Close() {
	if c.group != nil {
		c.group.Close()
	}
}

// Run drains all pending events (to quiescence).
func (c *Cluster) Run() {
	if c.group != nil {
		c.group.Run()
		return
	}
	c.eng.Run()
}

// RunFor advances virtual time by d. With metrics streaming enabled the
// advance is chunked at timeline tick boundaries; the chunking is invisible
// to the model (RunUntil leaves the clock exactly at each boundary, and a
// run split into chunks is event-identical to an unsplit one).
func (c *Cluster) RunFor(d time.Duration) {
	deadline := c.now().Add(sim.Duration(d))
	for c.stream != nil && c.streamTick <= deadline {
		c.advanceTo(c.streamTick)
		c.stream.Tick(int64(c.streamTick))
		c.streamTick = c.streamTick.Add(c.streamPeriod)
	}
	c.advanceTo(deadline)
}

// now returns the current virtual time (group clock when sharded).
func (c *Cluster) now() sim.Time {
	if c.group != nil {
		return c.group.Now()
	}
	return c.eng.Now()
}

// advanceTo runs the simulation to exactly t.
func (c *Cluster) advanceTo(t sim.Time) {
	if c.group != nil {
		c.group.RunUntil(t)
		return
	}
	c.eng.RunUntil(t)
}

// Now returns the current virtual time as a duration since cluster start.
func (c *Cluster) Now() time.Duration { return time.Duration(c.eng.Now()) }

// EventsProcessed returns the total number of simulation events executed
// (summed across shards when sharded).
func (c *Cluster) EventsProcessed() uint64 {
	if c.group != nil {
		return c.group.Processed()
	}
	return c.eng.Processed()
}

// EventsPending returns the number of scheduled-but-unprocessed events.
func (c *Cluster) EventsPending() int {
	if c.group != nil {
		return c.group.Pending()
	}
	return c.eng.Pending()
}

// Size returns the number of replica switches (excluding spares).
func (c *Cluster) Size() int { return c.cfg.Switches }

// Switch returns replica or spare switch i (replicas first).
func (c *Cluster) Switch(i int) *Switch { return c.switches[i] }

// Instance returns the per-switch SwiShmem runtime (advanced use).
func (c *Cluster) Instance(i int) *core.Instance { return c.instances[i] }

// FailSwitch fail-stops switch i. The controller (if enabled) detects the
// failure by heartbeat timeout and reconfigures chains and groups.
func (c *Cluster) FailSwitch(i int) { c.switches[i].Fail() }

// SetLink overrides the link profile between switches i and j. In sharded
// mode the group lookahead shrinks to match a lower cross-shard latency;
// a zero-latency profile between cross-shard switches is rejected (panic)
// because it would void the conservative window.
func (c *Cluster) SetLink(i, j int, p LinkProfile) {
	c.net.SetLink(c.switches[i].Addr(), c.switches[j].Addr(), p)
	if c.group != nil {
		c.refreshLookahead()
	}
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
	if c.group != nil {
		c.refreshLookahead()
	}
}

// SetOneWayLink overrides only the i->j direction between switches, leaving
// j->i untouched — asymmetric faults (egress-only loss, a one-way blackhole).
// SetLink remains the symmetric sugar over the same directed links.
func (c *Cluster) SetOneWayLink(i, j int, p LinkProfile) {
	c.net.SetOneWayLink(c.switches[i].Addr(), c.switches[j].Addr(), p)
	if c.group != nil {
		c.refreshLookahead()
	}
}

// SetControllerLink overrides the two directions between switch i and the
// central controller: toCtrl shapes i->controller (the heartbeat path —
// blackholing it makes a healthy switch look dead), fromCtrl shapes
// controller->i. SetAllLinks never touches these.
func (c *Cluster) SetControllerLink(i int, toCtrl, fromCtrl LinkProfile) {
	c.net.SetOneWayLink(c.switches[i].Addr(), ControllerAddr, toCtrl)
	c.net.SetOneWayLink(ControllerAddr, c.switches[i].Addr(), fromCtrl)
	if c.group != nil {
		c.refreshLookahead()
	}
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

// Controller exposes the central controller (nil if disabled).
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
	// ValueWidth is the value size in bytes.
	ValueWidth int
	// Groups is the number of sequence/pending groups keys share (0 = one
	// per key). Sharing trades SRAM for false read forwarding (§7).
	Groups int
	// ReadOptimized selects ERO instead of SRO.
	ReadOptimized bool
	// ControlPlaneBacked marks the state as a control-plane table: chain
	// hops run at co-processor cost (§6.1).
	ControlPlaneBacked bool
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
	// at the SRAM cost of two Groups x RetransmitDepth buffers per replica.
	Retransmit bool
	// RetransmitDepth bounds the per-group hold-back and retransmit
	// buffers. Default 16 entries.
	RetransmitDepth int
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
		Reg:             id,
		Capacity:        opts.Capacity,
		ValueWidth:      opts.ValueWidth,
		Groups:          opts.Groups,
		RetryTimeout:    sim.Duration(opts.RetryTimeout),
		RetransmitDepth: opts.RetransmitDepth,
	}
	if opts.Retransmit {
		cfg.Replication = chain.RetransmitReplication
	}
	if opts.ControlPlaneBacked {
		cfg.Backing = chain.ControlPlane
	}
	cons := core.Strong
	if opts.ReadOptimized {
		cons = core.EventualRead
	}
	replica := func(i int) bool { return true }
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
	var members, spares []controller.ChainMember
	for i, in := range c.instances {
		nodeCfg := cfg
		isSpare := i >= c.cfg.Switches
		if !isSpare && !replica(i) {
			nodeCfg.Proxy = true
		}
		h, err := in.NewStrongRegister(cons, nodeCfg)
		if err != nil {
			return nil, fmt.Errorf("swishmem: declaring %q: %w", name, err)
		}
		handles = append(handles, h)
		switch {
		case isSpare:
			spares = append(spares, h.Node())
		case !nodeCfg.Proxy:
			members = append(members, h.Node())
			c.dir.Register(id, c.switches[i].Addr())
		}
	}
	if c.ctrl != nil {
		c.ctrl.ManageChain(id, members, spares)
		// Proxies are configuration listeners: they learn the chain (and
		// every future reconfiguration) without ever joining it.
		for i, h := range handles {
			if i < c.cfg.Switches && !replica(i) {
				c.ctrl.AttachChainListener(id, h.Node())
			}
		}
	}
	return handles[:c.cfg.Switches], nil
}

func (c *Cluster) wireChain(id uint16, handles []*StrongRegister) {
	members := make([]controller.ChainMember, 0, c.cfg.Switches)
	spares := make([]controller.ChainMember, 0, c.cfg.Spares)
	for i, h := range handles {
		if i < c.cfg.Switches {
			members = append(members, h.Node())
			c.dir.Register(id, c.switches[i].Addr())
		} else {
			spares = append(spares, h.Node())
		}
	}
	if c.ctrl != nil {
		c.ctrl.ManageChain(id, members, spares)
	}
}

// Directory exposes the cluster's replica-placement directory (§9): which
// switches hold replicas of which registers.
func (c *Cluster) Directory() *controller.Directory { return c.dir }

// groupMember is the controller's view of an EWO register node.
type groupMember = controller.GroupMember

func (c *Cluster) wireGroup(id uint16, members []groupMember) {
	if c.ctrl != nil {
		c.ctrl.ManageGroup(id, members)
	}
}

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
	// one instant leave together, as one update, at that instant.
	Batch int
	// BatchTimeout caps how long a partial batch may wait before flushing
	// (0: wait for the batch to fill or the periodic sync).
	BatchTimeout time.Duration
	// SyncPacketBytes caps a periodic-sync update's wire bytes, splitting a
	// sync round into a back-to-back run of MTU-shaped updates (see
	// ewo.Config.SyncPacketBytes). 0 keeps the classic single update per
	// round.
	SyncPacketBytes int
	// PN selects a PN-counter (supports decrement) for counter registers.
	PN bool
}

func (c *Cluster) ewoConfig(id uint16, opts EventualOptions, kind ewo.Kind) ewo.Config {
	return ewo.Config{
		Reg:             id,
		Capacity:        opts.Capacity,
		ValueWidth:      opts.ValueWidth,
		Kind:            kind,
		MaxGroup:        len(c.switches),
		SyncPeriod:      sim.Duration(opts.SyncPeriod),
		SyncDisabled:    opts.DisableSync,
		Batch:           opts.Batch,
		BatchTimeout:    sim.Duration(opts.BatchTimeout),
		SyncPacketBytes: opts.SyncPacketBytes,
	}
}

// DeclareEventual declares an EWO LWW register on every replica switch and
// returns one handle per switch.
func (c *Cluster) DeclareEventual(name string, opts EventualOptions) ([]*EventualRegister, error) {
	id, err := c.allocReg(name)
	if err != nil {
		return nil, err
	}
	handles := make([]*EventualRegister, 0, len(c.instances))
	members := make([]controller.GroupMember, 0, c.cfg.Switches)
	for i, in := range c.instances {
		h, err := in.NewEventualRegister(c.ewoConfig(id, opts, ewo.LWW))
		if err != nil {
			return nil, fmt.Errorf("swishmem: declaring %q: %w", name, err)
		}
		handles = append(handles, h)
		if i < c.cfg.Switches {
			members = append(members, h.Node())
		}
	}
	if c.ctrl != nil {
		c.ctrl.ManageGroup(id, members)
	}
	return handles[:c.cfg.Switches], nil
}

// DeclareCounter declares an EWO counter register (G-counter, or PN-counter
// with opts.PN) on every replica switch.
func (c *Cluster) DeclareCounter(name string, opts EventualOptions) ([]*CounterRegister, error) {
	id, err := c.allocReg(name)
	if err != nil {
		return nil, err
	}
	kind := ewo.Counter
	if opts.PN {
		kind = ewo.PNCounter
	}
	handles := make([]*CounterRegister, 0, len(c.instances))
	members := make([]controller.GroupMember, 0, c.cfg.Switches)
	for i, in := range c.instances {
		h, err := in.NewCounterRegister(c.ewoConfig(id, opts, kind))
		if err != nil {
			return nil, fmt.Errorf("swishmem: declaring %q: %w", name, err)
		}
		handles = append(handles, h)
		if i < c.cfg.Switches {
			members = append(members, h.Node())
		}
	}
	if c.ctrl != nil {
		c.ctrl.ManageGroup(id, members)
	}
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
	if c.ctrl == nil {
		return fmt.Errorf("swishmem: controller disabled")
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
