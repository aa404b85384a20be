package swishmem

import (
	"fmt"
	"net/netip"
	"time"

	"swishmem/internal/core"
	"swishmem/internal/nf/ddos"
	"swishmem/internal/nf/firewall"
	"swishmem/internal/nf/ips"
	"swishmem/internal/nf/lb"
	"swishmem/internal/nf/nat"
	"swishmem/internal/nf/ratelimit"
	"swishmem/internal/packet"
	"swishmem/internal/sim"
)

// This file deploys the paper's six network functions (§4, Table 1) onto a
// cluster: one NF instance per replica switch, all instances sharing state
// through SwiShmem registers. Each Deploy* helper says how to build its NF;
// deployStrong and deployEWO declare the register, instantiate the NF on
// every switch, install its pipeline program, and wire the controller.

// Re-exported NF types.
type (
	// NAT is a per-switch network address translator instance.
	NAT = nat.NAT
	// Firewall is a per-switch stateful firewall instance.
	Firewall = firewall.Firewall
	// IPS is a per-switch intrusion prevention instance.
	IPS = ips.IPS
	// LoadBalancer is a per-switch L4 load balancer instance.
	LoadBalancer = lb.LB
	// DDoSDetector is a per-switch DDoS detection instance.
	DDoSDetector = ddos.Detector
	// RateLimiter is a per-switch distributed rate limiter instance.
	RateLimiter = ratelimit.Limiter
	// Packet is the decoded packet model processed by the NFs.
	Packet = packet.Packet
	// FlowKey is the 5-tuple identifying a flow.
	FlowKey = packet.FlowKey
)

// Addr is a network address (re-export of net/netip.Addr for option
// literals).
type Addr = netip.Addr

// Addr4 builds an IPv4 address from octets.
func Addr4(a, b, c, d byte) netip.Addr { return packet.Addr4(a, b, c, d) }

// NATOptions parameterizes a NAT deployment.
type NATOptions struct {
	// Capacity is the shared translation-table size.
	Capacity int
	// ExternalIP is the NAT's public address.
	ExternalIP netip.Addr
	// PortsPerSwitch sizes each switch's private slice of the external port
	// space, carved consecutively from PortBase. Default 1000 from 10000.
	PortsPerSwitch int
	PortBase       uint16
}

// strongNF and ewoNF are what deployment needs of an NF instance built on a
// strong (SRO/ERO) register or on an EWO counter register.
type strongNF interface {
	Install()
	Register() *StrongRegister
}

type ewoNF interface {
	Install()
	Register() *CounterRegister
}

// deployStrong deploys a strong-register NF: it declares the register
// (unless the NF keeps only switch-local state: shared false), builds one
// instance per switch and spare with mk, installs each pipeline program, and
// hands the chain to the controller. kind names the NF in errors.
func deployStrong[T strongNF](c *Cluster, kind, name string, shared bool,
	mk func(i int, in *core.Instance, id uint16) (T, error)) ([]T, error) {
	var id uint16 // 0: no shared register
	if shared {
		var err error
		if id, err = c.allocReg(name); err != nil {
			return nil, err
		}
	}
	nfs := make([]T, 0, len(c.instances))
	handles := make([]*StrongRegister, 0, len(c.instances))
	for i, in := range c.instances {
		n, err := mk(i, in, id)
		if err != nil {
			return nil, fmt.Errorf("swishmem: deploying %s %q: %w", kind, name, err)
		}
		n.Install()
		nfs = append(nfs, n)
		handles = append(handles, n.Register())
	}
	if shared {
		c.wireChain(id, handles)
	}
	return nfs[:c.cfg.Switches], nil
}

// deployEWO deploys an EWO-register NF on the replica switches (spares hold
// no EWO state) and hands the group to the controller.
func deployEWO[T ewoNF](c *Cluster, kind, name string,
	mk func(in *core.Instance, id uint16) (T, error)) ([]T, error) {
	id, err := c.allocReg(name)
	if err != nil {
		return nil, err
	}
	nfs := make([]T, 0, c.cfg.Switches)
	members := make([]groupMember, 0, c.cfg.Switches)
	for _, in := range c.instances[:c.cfg.Switches] {
		n, err := mk(in, id)
		if err != nil {
			return nil, fmt.Errorf("swishmem: deploying %s %q: %w", kind, name, err)
		}
		n.Install()
		nfs = append(nfs, n)
		members = append(members, n.Register().Node())
	}
	c.wireGroup(id, members)
	return nfs, nil
}

// DeployNAT deploys the §4.1 NAT: a strongly consistent shared translation
// table and per-switch partitioned port pools.
func (c *Cluster) DeployNAT(name string, opts NATOptions) ([]*NAT, error) {
	if opts.PortsPerSwitch <= 0 {
		opts.PortsPerSwitch = 1000
	}
	if opts.PortBase == 0 {
		opts.PortBase = 10000
	}
	return deployStrong(c, "NAT", name, true, func(i int, in *core.Instance, id uint16) (*NAT, error) {
		lo := opts.PortBase + uint16(i*opts.PortsPerSwitch)
		return nat.New(in, nat.Config{
			Reg: id, Capacity: opts.Capacity, ExternalIP: opts.ExternalIP,
			PortLo: lo, PortHi: lo + uint16(opts.PortsPerSwitch) - 1,
		})
	})
}

// FirewallOptions parameterizes a firewall deployment.
type FirewallOptions struct {
	// Capacity is the shared connection-table size.
	Capacity int
	// Inside classifies protected addresses. Default 10.0.0.0/8.
	Inside func(a netip.Addr) bool
}

// DeployFirewall deploys the §4.1 stateful firewall.
func (c *Cluster) DeployFirewall(name string, opts FirewallOptions) ([]*Firewall, error) {
	return deployStrong(c, "firewall", name, true, func(_ int, in *core.Instance, id uint16) (*Firewall, error) {
		return firewall.New(in, firewall.Config{Reg: id, Capacity: opts.Capacity, Inside: opts.Inside})
	})
}

// IPSOptions parameterizes an IPS deployment.
type IPSOptions struct {
	// Capacity is the signature-set size.
	Capacity int
	// MaxWindows bounds payload windows scanned per packet.
	MaxWindows int
}

// DeployIPS deploys the §4.1 intrusion prevention system (ERO signatures).
func (c *Cluster) DeployIPS(name string, opts IPSOptions) ([]*IPS, error) {
	return deployStrong(c, "IPS", name, true, func(_ int, in *core.Instance, id uint16) (*IPS, error) {
		return ips.New(in, ips.Config{Reg: id, Capacity: opts.Capacity, MaxWindows: opts.MaxWindows})
	})
}

// LBOptions parameterizes a load-balancer deployment.
type LBOptions struct {
	// Capacity is the shared connection-table size.
	Capacity int
	// DIPs is the backend pool.
	DIPs []netip.Addr
	// Sharded selects the §3.2 baseline (switch-local assignments).
	Sharded bool
}

// DeployLoadBalancer deploys the §4.1 L4 load balancer.
func (c *Cluster) DeployLoadBalancer(name string, opts LBOptions) ([]*LoadBalancer, error) {
	mode := lb.Replicated
	if opts.Sharded {
		mode = lb.Sharded
	}
	return deployStrong(c, "LB", name, !opts.Sharded, func(_ int, in *core.Instance, id uint16) (*LoadBalancer, error) {
		return lb.New(in, lb.Config{Reg: id, Capacity: opts.Capacity, DIPs: opts.DIPs, Mode: mode})
	})
}

// DDoSOptions parameterizes a detector deployment.
type DDoSOptions struct {
	// Width, Depth size the count-min sketch.
	Width, Depth int
	// Threshold is the per-window count that flags a victim.
	Threshold uint64
	// Window is the detection window.
	Window time.Duration
	// SyncPeriod for the EWO register.
	SyncPeriod time.Duration
}

// DeployDDoS deploys the §4.2 DDoS detector (EWO counter-CRDT sketch).
func (c *Cluster) DeployDDoS(name string, opts DDoSOptions) ([]*DDoSDetector, error) {
	return deployEWO(c, "DDoS", name, func(in *core.Instance, id uint16) (*DDoSDetector, error) {
		return ddos.New(in, ddos.Config{
			Reg: id, Width: opts.Width, Depth: opts.Depth,
			Threshold: opts.Threshold, Window: sim.Duration(opts.Window),
			SyncPeriod: sim.Duration(opts.SyncPeriod),
		})
	})
}

// RateLimitOptions parameterizes a rate-limiter deployment.
type RateLimitOptions struct {
	// Capacity is the number of tracked users.
	Capacity int
	// BytesPerWindow is each user's cluster-wide budget per window.
	BytesPerWindow uint64
	// Window is the enforcement period.
	Window time.Duration
	// SyncPeriod for the EWO register.
	SyncPeriod time.Duration
}

// DeployRateLimiter deploys the §4.2 distributed rate limiter (EWO
// counters + periodic enforcement).
func (c *Cluster) DeployRateLimiter(name string, opts RateLimitOptions) ([]*RateLimiter, error) {
	return deployEWO(c, "rate limiter", name, func(in *core.Instance, id uint16) (*RateLimiter, error) {
		return ratelimit.New(in, ratelimit.Config{
			Reg: id, Capacity: opts.Capacity,
			BytesPerWindow: opts.BytesPerWindow,
			Window:         sim.Duration(opts.Window),
			SyncPeriod:     sim.Duration(opts.SyncPeriod),
		})
	})
}
