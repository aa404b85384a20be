// Package livecluster assembles SwiShmem switches into a cross-process-style
// cluster over the live UDP transport: each member is one fabric (one pump
// goroutine, one socket) running an unmodified PISA switch model with the
// chain and EWO protocols, discovered and configured by a controller.Live.
// The Soak harness drives such a cluster under injected loss for a
// wall-clock budget and then runs the internal/explore oracles over the
// surviving state.
package livecluster

import (
	"net/netip"
	"time"

	"swishmem/internal/chain"
	"swishmem/internal/controller"
	"swishmem/internal/core"
	"swishmem/internal/ewo"
	"swishmem/internal/netem"
	"swishmem/internal/netem/live"
	"swishmem/internal/obs"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
)

// ControllerAddr mirrors the facade's fixed controller address.
const ControllerAddr netem.Addr = 0xfffe

// The fixed register layout every member declares. Wire configs carry no
// register id, so a live cluster uses uniform membership: one chain shared
// by the strong register, one group shared by both EWO registers (see
// controller.Live).
const (
	RegStrong  uint16 = 1
	RegCounter uint16 = 2
	RegLWW     uint16 = 3

	StrongCapacity = 512
	CounterKeys    = 16
	LWWKeys        = 4
)

// MemberConfig parameterizes one cluster member.
type MemberConfig struct {
	// Addr is the member's SwiShmem address (switch i uses i+1). Required.
	Addr netem.Addr
	// Seed seeds the member's engine and fault sampling.
	Seed int64
	// ControllerEP is the controller's UDP endpoint. Required.
	ControllerEP netip.AddrPort
	// Listen is the UDP bind address. Default 127.0.0.1:0.
	Listen string
	// Profile shapes this member's outbound datagrams (the injected fault
	// model: loss, delay, jitter, dup, reorder).
	Profile netem.LinkProfile
	// HeartbeatPeriod is the failure-detection beat. Default 20ms.
	HeartbeatPeriod sim.Duration
	// HelloPeriod is the bootstrap announcement interval. Default 25ms.
	HelloPeriod sim.Duration
	// SyncPeriod is the EWO synchronization interval. Default 5ms.
	SyncPeriod sim.Duration
	// RetryTimeout is the chain writer retransmission timeout. Default 2ms.
	RetryTimeout sim.Duration
}

func (c MemberConfig) withDefaults() MemberConfig {
	if c.HeartbeatPeriod == 0 {
		c.HeartbeatPeriod = 20 * time.Millisecond
	}
	if c.HelloPeriod == 0 {
		c.HelloPeriod = 25 * time.Millisecond
	}
	if c.SyncPeriod == 0 {
		c.SyncPeriod = 5 * time.Millisecond
	}
	if c.RetryTimeout == 0 {
		c.RetryTimeout = 2 * time.Millisecond
	}
	return c
}

// hostTiming is the switch configuration of a live member. pisa's defaults
// (400 ns pipeline, 50 µs control-plane latency, one control-plane op per
// 10 µs) stand in for Tofino hardware the simulator does not have; a live
// member's pipeline and control plane are this process, whose real latency
// every wall-clock measurement already contains. Replayed on the pump's
// clock those constants would make every chain.Write wait for a Go timer and
// a second pump round, and cap a member at 100 k writes/s. So the live
// switch takes the smallest values the model accepts (0 selects the
// default): whatever an op schedules is due in the pump round that ran it.
func hostTiming(addr netem.Addr) pisa.Config {
	return pisa.Config{
		Addr:            addr,
		PipelineLatency: 1,
		CtrlLatency:     1,
		CtrlOpsPerSec:   1e9, // one op per nanosecond slot
	}
}

// Member is one live cluster node: fabric, switch model, and the three
// standard registers.
type Member struct {
	Fabric  *live.Fabric
	Switch  *pisa.Switch
	Inst    *core.Instance
	Strong  *core.StrongRegister
	Counter *core.CounterRegister
	LWW     *core.EventualRegister
}

// NewMember assembles a member: transport fabric (which coalesces each
// destination's sends into batch datagrams on its egress worker), PISA
// switch on the fabric's engine/network, register declarations, heartbeats
// to the controller, and the bootstrap Hello loop. The fabric is returned
// stopped; call Start to go live.
func NewMember(cfg MemberConfig) (*Member, error) {
	cfg = cfg.withDefaults()
	f, err := live.NewFabric(live.FabricConfig{
		Addr: cfg.Addr,
		Seed: cfg.Seed,
		Node: live.Options{Listen: cfg.Listen, Profile: cfg.Profile},
	})
	if err != nil {
		return nil, err
	}
	sw := pisa.New(f.Engine(), f.Network(), hostTiming(cfg.Addr))
	in := core.NewInstance(sw)
	m := &Member{Fabric: f, Switch: sw, Inst: in}

	m.Strong, err = in.NewStrongRegister(core.Strong, chainConfig(cfg))
	if err == nil {
		m.Counter, err = in.NewCounterRegister(counterConfig(cfg))
	}
	if err == nil {
		m.LWW, err = in.NewEventualRegister(lwwConfig(cfg))
	}
	if err != nil {
		f.Stop()
		return nil, err
	}

	controller.StartHeartbeats(sw, ControllerAddr, cfg.HeartbeatPeriod)
	f.Bootstrap(ControllerAddr, cfg.ControllerEP, cfg.HelloPeriod)
	return m, nil
}

// RegisterMetrics registers the member's transport counters plus its
// protocol counters and chain write-latency histogram under the given label
// set (e.g. "node=2"). The underlying structs are owned by the member's
// pump goroutine: snapshot or stream the registry only under Fabric.Call,
// or after the pump has stopped.
func (m *Member) RegisterMetrics(reg *obs.Registry, labels string) {
	m.Fabric.RegisterMetrics(reg, labels)
	m.Strong.Node().RegisterMetrics(reg, labels)
	sep := ","
	if labels == "" {
		sep = ""
	}
	m.Counter.Node().RegisterMetrics(reg, labels+sep+"reg=counter")
	m.LWW.Node().RegisterMetrics(reg, labels+sep+"reg=lww")
}

// Start launches the member's pump.
func (m *Member) Start() { m.Fabric.Start() }

// Stop halts the pump and closes the socket.
func (m *Member) Stop() { m.Fabric.Stop() }

// NewLiveController assembles the controller side: a fabric on the
// controller address plus a controller.Live expecting the given members.
func NewLiveController(seed int64, listen string, members []netem.Addr,
	hb, resend sim.Duration) (*live.Fabric, *controller.Live, error) {
	f, err := live.NewFabric(live.FabricConfig{
		Addr: ControllerAddr,
		Seed: seed,
		Node: live.Options{Listen: listen},
	})
	if err != nil {
		return nil, nil, err
	}
	ctl := controller.NewLive(controller.LiveConfig{
		Fabric:          f,
		Members:         members,
		HeartbeatPeriod: hb,
		ResendPeriod:    resend,
	})
	return f, ctl, nil
}

func chainConfig(cfg MemberConfig) chain.Config {
	return chain.Config{
		Reg:          RegStrong,
		Capacity:     StrongCapacity,
		ValueWidth:   8,
		RetryTimeout: cfg.RetryTimeout,
	}
}

func counterConfig(cfg MemberConfig) ewo.Config {
	return ewo.Config{Reg: RegCounter, Capacity: 128, SyncPeriod: cfg.SyncPeriod}
}

func lwwConfig(cfg MemberConfig) ewo.Config {
	return ewo.Config{Reg: RegLWW, Capacity: 64, ValueWidth: 8, SyncPeriod: cfg.SyncPeriod}
}
