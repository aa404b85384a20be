// Package core is the SwiShmem layer proper: it binds the replication
// protocols (chain for SRO/ERO, ewo for EWO) to a switch and exposes the
// three register abstractions of §5 as typed handles. One Instance runs per
// switch; it owns the switch's protocol message routing (demultiplexing by
// register ID, standing in for the compiler of §5 that "could be used to
// translate regular P4 register accesses into SwiShmem operations").
package core

import (
	"fmt"

	"swishmem/internal/chain"
	"swishmem/internal/chain/ctrlplane"
	"swishmem/internal/ewo"
	"swishmem/internal/netem"
	"swishmem/internal/pisa"
	"swishmem/internal/wire"
)

// Consistency selects the register class (§5).
type Consistency int

// Register classes.
const (
	// Strong is SRO: linearizable, reads local unless pending.
	Strong Consistency = iota
	// EventualRead is ERO: bounded-latency local reads, eventual.
	EventualRead
	// EventualWrite is EWO: cheap reads and writes, eventual.
	EventualWrite
)

func (c Consistency) String() string {
	switch c {
	case EventualRead:
		return "ERO"
	case EventualWrite:
		return "EWO"
	default:
		return "SRO"
	}
}

// Instance is the per-switch SwiShmem runtime: protocol nodes keyed by
// register ID plus the message router. The tables are slices indexed by
// register ID, grown when a register is declared: the router looks one up
// for every protocol message, and register IDs are small and dense.
type Instance struct {
	sw     *pisa.Switch
	chains []*chain.Node
	ewos   []*ewo.Node
	cps    []*ctrlplane.Node
}

// at returns the node declared for reg, the zero T when there is none.
func at[T any](nodes []T, reg uint16) (n T) {
	if int(reg) < len(nodes) {
		n = nodes[reg]
	}
	return n
}

// put declares n as reg's node, growing the table to hold it.
func put[T any](nodes []T, reg uint16, n T) []T {
	if grow := int(reg) + 1 - len(nodes); grow > 0 {
		nodes = append(nodes, make([]T, grow)...)
	}
	nodes[reg] = n
	return nodes
}

// NewInstance creates the runtime and installs itself as the switch's
// protocol message handler (data and control plane).
func NewInstance(sw *pisa.Switch) *Instance {
	in := &Instance{sw: sw}
	sw.SetMsgHandler(func(s *pisa.Switch, from netem.Addr, msg wire.Msg) {
		in.route(from, msg)
	})
	sw.SetCtrlMsgHandler(func(from netem.Addr, msg wire.Msg) {
		in.routeCtrl(from, msg)
	})
	return in
}

// Switch returns the underlying switch.
func (in *Instance) Switch() *pisa.Switch { return in.sw }

// route dispatches a data-plane protocol message by register ID.
func (in *Instance) route(from netem.Addr, msg wire.Msg) {
	switch m := msg.(type) {
	case *wire.EWOUpdate:
		if n := at(in.ewos, m.Reg); n != nil {
			n.Handle(from, m)
			return
		}
		// Control-plane baseline registers handle their updates on the
		// co-processor. The callback outlives this handler, so hold a
		// reference: a pooled update is recycled once the data-plane
		// dispatch releases it.
		if n := at(in.cps, m.Reg); n != nil {
			m.Ref()
			in.sw.CtrlDo(func() {
				n.HandleCtrl(from, m)
				m.Release()
			})
		}
	case wire.ChainFrame:
		if n := at(in.chains, m.ChainReg()); n != nil {
			n.Handle(from, m)
		}
	case *wire.ChainConfig:
		// Sorted fan-out: config application order must not depend on map
		// iteration (per-register side effects like retries are scheduled as
		// the config lands).
		in.EachChain(func(_ uint16, n *chain.Node) { n.SetChain(*m) })
	case *wire.GroupConfig:
		// A group a node cannot hold is refused and counted, per register
		// (ewo.Stats.GroupsRejected); there is no caller here to tell.
		in.EachEWO(func(_ uint16, n *ewo.Node) { _ = n.SetGroup(*m) })
	}
}

// routeCtrl dispatches messages that arrived directly at the control plane.
func (in *Instance) routeCtrl(from netem.Addr, msg wire.Msg) {
	if m, ok := msg.(*wire.EWOUpdate); ok {
		if n := at(in.cps, m.Reg); n != nil {
			n.HandleCtrl(from, m)
			return
		}
	}
	in.route(from, msg)
}

// StrongRegister is the SRO/ERO handle NFs program against. The hop
// discipline behind it (chain or retransmit) is selected by cfg.Replication.
type StrongRegister struct {
	node *chain.Node
}

// NewStrongRegister declares an SRO (Strong) or ERO (EventualRead) register
// on this switch.
func (in *Instance) NewStrongRegister(cons Consistency, cfg chain.Config) (*StrongRegister, error) {
	switch cons {
	case Strong:
		cfg.Mode = chain.SRO
	case EventualRead:
		cfg.Mode = chain.ERO
	default:
		return nil, fmt.Errorf("core: %v is not a chain-replicated class", cons)
	}
	if at(in.chains, cfg.Reg) != nil {
		return nil, fmt.Errorf("core: register %d already declared", cfg.Reg)
	}
	n, err := chain.NewNode(in.sw, cfg)
	if err != nil {
		return nil, err
	}
	in.chains = put(in.chains, cfg.Reg, n)
	return &StrongRegister{node: n}, nil
}

// Node exposes the protocol node (controller registration, tests).
func (r *StrongRegister) Node() *chain.Node { return r.node }

// Write submits a replicated write; done fires on commit (or failure).
func (r *StrongRegister) Write(key uint64, val []byte, done func(committed bool)) {
	r.node.Write(key, val, done)
}

// Read reads the register under the declared consistency.
func (r *StrongRegister) Read(key uint64, fn func(val []byte, ok bool)) {
	r.node.Read(key, fn)
}

// MemoryBytes returns this register's SRAM cost on this switch.
func (r *StrongRegister) MemoryBytes() int { return r.node.MemoryBytes() }

// EventualRegister is the EWO LWW handle.
type EventualRegister struct {
	node *ewo.Node
}

// NewEventualRegister declares an EWO last-writer-wins register.
func (in *Instance) NewEventualRegister(cfg ewo.Config) (*EventualRegister, error) {
	cfg.Kind = ewo.LWW
	if at(in.ewos, cfg.Reg) != nil {
		return nil, fmt.Errorf("core: register %d already declared", cfg.Reg)
	}
	n, err := ewo.NewNode(in.sw, cfg)
	if err != nil {
		return nil, err
	}
	in.ewos = put(in.ewos, cfg.Reg, n)
	return &EventualRegister{node: n}, nil
}

// Node exposes the protocol node.
func (r *EventualRegister) Node() *ewo.Node { return r.node }

// Write applies locally and replicates asynchronously (never blocks).
func (r *EventualRegister) Write(key uint64, val []byte) { r.node.Write(key, val) }

// Read returns the local replica value.
func (r *EventualRegister) Read(key uint64) ([]byte, bool) { return r.node.Read(key) }

// CounterRegister is the EWO counter-CRDT handle (§6.2's "natural
// application").
type CounterRegister struct {
	node *ewo.Node
}

// NewCounterRegister declares an EWO G-counter register.
func (in *Instance) NewCounterRegister(cfg ewo.Config) (*CounterRegister, error) {
	if cfg.Kind == ewo.LWW {
		cfg.Kind = ewo.Counter
	}
	if at(in.ewos, cfg.Reg) != nil {
		return nil, fmt.Errorf("core: register %d already declared", cfg.Reg)
	}
	n, err := ewo.NewNode(in.sw, cfg)
	if err != nil {
		return nil, err
	}
	in.ewos = put(in.ewos, cfg.Reg, n)
	return &CounterRegister{node: n}, nil
}

// Node exposes the protocol node.
func (r *CounterRegister) Node() *ewo.Node { return r.node }

// Add increments the counter (local + async replication).
func (r *CounterRegister) Add(key uint64, delta uint64) { r.node.Add(key, delta) }

// Sum reads the merged counter value.
func (r *CounterRegister) Sum(key uint64) uint64 { return r.node.Sum(key) }

// BaselineCounter is the §3.3 control-plane-replicated baseline handle.
type BaselineCounter struct {
	node *ctrlplane.Node
}

// NewBaselineCounter declares a control-plane-replicated counter (baseline
// for experiments; not part of the SwiShmem design).
func (in *Instance) NewBaselineCounter(cfg ctrlplane.Config) (*BaselineCounter, error) {
	if at(in.cps, cfg.Reg) != nil {
		return nil, fmt.Errorf("core: register %d already declared", cfg.Reg)
	}
	n, err := ctrlplane.NewNode(in.sw, cfg)
	if err != nil {
		return nil, err
	}
	in.cps = put(in.cps, cfg.Reg, n)
	return &BaselineCounter{node: n}, nil
}

// Node exposes the baseline node.
func (r *BaselineCounter) Node() *ctrlplane.Node { return r.node }

// Add increments locally and queues control-plane replication.
func (r *BaselineCounter) Add(key uint64, delta uint64) { r.node.Add(key, delta) }

// Sum reads the local replica.
func (r *BaselineCounter) Sum(key uint64) uint64 { return r.node.Sum(key) }

// Backlog returns the control-plane replication queue length.
func (r *BaselineCounter) Backlog() int { return r.node.Backlog() }

// EachChain visits every declared chain register node in ascending register
// order (deterministic for metrics registration and dumps).
func (in *Instance) EachChain(fn func(reg uint16, n *chain.Node)) {
	for reg, n := range in.chains {
		if n != nil {
			fn(uint16(reg), n)
		}
	}
}

// EachEWO visits every declared EWO register node in ascending register
// order.
func (in *Instance) EachEWO(fn func(reg uint16, n *ewo.Node)) {
	for reg, n := range in.ewos {
		if n != nil {
			fn(uint16(reg), n)
		}
	}
}

// StrongHandle returns a handle for an already-declared chain register.
func (in *Instance) StrongHandle(reg uint16) (*StrongRegister, error) {
	n := at(in.chains, reg)
	if n == nil {
		return nil, fmt.Errorf("core: chain register %d not declared", reg)
	}
	return &StrongRegister{node: n}, nil
}

// CounterHandle returns a handle for an already-declared EWO counter.
func (in *Instance) CounterHandle(reg uint16) (*CounterRegister, error) {
	n := at(in.ewos, reg)
	if n == nil {
		return nil, fmt.Errorf("core: ewo register %d not declared", reg)
	}
	if n.Config().Kind == ewo.LWW {
		return nil, fmt.Errorf("core: register %d is LWW, not a counter", reg)
	}
	return &CounterRegister{node: n}, nil
}

// EventualHandle returns a handle for an already-declared EWO LWW register.
func (in *Instance) EventualHandle(reg uint16) (*EventualRegister, error) {
	n := at(in.ewos, reg)
	if n == nil {
		return nil, fmt.Errorf("core: ewo register %d not declared", reg)
	}
	if n.Config().Kind != ewo.LWW {
		return nil, fmt.Errorf("core: register %d is a counter, not LWW", reg)
	}
	return &EventualRegister{node: n}, nil
}
