// Package nat implements the distributed NAT of §4.1: the translation table
// is a shared SRO register (strong consistency — a translation observed by
// one switch must be the translation everywhere, or multi-path routing
// breaks client connections), while the free-port pool is partitioned per
// switch and never shared ("different port ranges can be assigned to
// different switches to avoid sharing this state").
//
// The packet path follows §6.1's write flow exactly: a packet that creates
// a new translation is punted to the control plane, which allocates a port,
// buffers the packet, issues the replicated writes (forward and reverse
// mappings), and re-injects the translated packet into the data plane only
// after the tail acknowledges — strong consistency at the cost of
// control-plane involvement, which is tolerable because translations are
// created once per connection (Observation 1).
package nat

import (
	"fmt"
	"net/netip"

	"swishmem/internal/chain"
	"swishmem/internal/core"
	"swishmem/internal/nf"
	"swishmem/internal/packet"
	"swishmem/internal/pisa"
	"swishmem/internal/stats"
)

// Config parameterizes one NAT instance (one switch).
type Config struct {
	// Reg is the shared translation register ID (same on every switch).
	Reg uint16
	// Capacity is the translation table size (two entries per connection:
	// forward and reverse).
	Capacity int
	// ExternalIP is the NAT's public address.
	ExternalIP netip.Addr
	// PortLo, PortHi is this switch's private slice of the external port
	// space (inclusive); slices must be disjoint across switches.
	PortLo, PortHi uint16
}

// inside reports whether an address is on the inside of the NAT,
// 10.0.0.0/8.
func inside(a netip.Addr) bool { return a.As4()[0] == 10 }

// Stats counts NAT events.
type Stats struct {
	Translated  stats.Counter // outbound packets rewritten from state
	Reversed    stats.Counter // inbound packets rewritten from state
	NewConns    stats.Counter // translations created
	HeldPackets stats.Counter // packets buffered awaiting commit
	DropNoState stats.Counter // inbound packets with no translation
	DropNoPorts stats.Counter // pool exhausted
	WriteFails  stats.Counter // mapping writes that exhausted their retries
	// DropWriteFail counts held packets dropped because their connection's
	// translation could not be installed.
	DropWriteFail stats.Counter
}

// NAT is one per-switch instance.
type NAT struct {
	cfg Config
	sw  *pisa.Switch
	reg *core.StrongRegister

	freePorts []uint16

	// inflight queues packets per forward key while its translation write
	// is in flight, so concurrent packets of the same new connection do not
	// allocate duplicate translations (control-plane DRAM state).
	inflight map[uint64]*pendingConn

	// Egress receives translated packets (set by the harness/topology).
	Egress func(p *packet.Packet)

	Stats Stats
}

// New declares the NAT on a switch instance. All switches must use the same
// Reg and Capacity but disjoint port ranges.
func New(in *core.Instance, cfg Config) (*NAT, error) {
	if !cfg.ExternalIP.Is4() {
		return nil, fmt.Errorf("nat: external IP must be IPv4")
	}
	if cfg.PortHi < cfg.PortLo {
		return nil, fmt.Errorf("nat: empty port range [%d,%d]", cfg.PortLo, cfg.PortHi)
	}
	reg, err := in.NewStrongRegister(core.Strong, chain.Config{
		Reg: cfg.Reg, Capacity: cfg.Capacity, ValueWidth: 6,
		// NAT translation tables are control-plane-updated structures
		// (Observation 1), so chain hops run at control-plane cost.
		Backing: chain.ControlPlane,
	})
	if err != nil {
		return nil, err
	}
	n := &NAT{cfg: cfg, sw: in.Switch(), reg: reg, inflight: make(map[uint64]*pendingConn)}
	for p := cfg.PortLo; ; p++ {
		n.freePorts = append(n.freePorts, p)
		if p == cfg.PortHi {
			break
		}
	}
	return n, nil
}

// Register exposes the SRO register (controller wiring).
func (n *NAT) Register() *core.StrongRegister { return n.reg }

// Switch returns the switch this instance runs on.
func (n *NAT) Switch() *pisa.Switch { return n.sw }

// Install wires the NAT into the switch pipeline.
func (n *NAT) Install() {
	n.sw.SetProgram(n.program)
	n.sw.SetCtrlPacketHandler(n.ctrlNewConnection)
	if n.Egress == nil {
		n.Egress = func(*packet.Packet) {}
	}
	n.sw.SetEgress(n.Egress)
}

// program is the data-plane packet path.
func (n *NAT) program(sw *pisa.Switch, p *packet.Packet) pisa.Verdict {
	key, ok := p.Flow()
	if !ok || p.TCP == nil {
		return pisa.Drop
	}
	if inside(key.Src) {
		// Outbound: translate source.
		var hit bool
		var ext []byte
		n.reg.Read(nf.FlowID(key), func(v []byte, ok bool) {
			// SRO local reads complete synchronously; forwarded reads (key
			// pending) complete later — those packets are treated as a miss
			// here and re-punted, which is safe because a pending forward
			// mapping means the control plane is already installing it.
			hit, ext = ok, v
		})
		if hit {
			ip, port, ok := nf.GetAddrPort(ext)
			if !ok {
				return pisa.Drop
			}
			p.IP.Src = ip
			p.TCP.SrcPort = port
			n.Stats.Translated.Inc()
			return pisa.Forward
		}
		// New connection: §6.1 mutating-packet path through control plane.
		n.Stats.HeldPackets.Inc()
		return pisa.ToControlPlane
	}
	// Inbound: reverse-translate destination.
	var hit bool
	var orig []byte
	n.reg.Read(nf.FlowID(key), func(v []byte, ok bool) { hit, orig = ok, v })
	if !hit {
		n.Stats.DropNoState.Inc()
		return pisa.Drop
	}
	ip, port, ok := nf.GetAddrPort(orig)
	if !ok {
		n.Stats.DropNoState.Inc()
		return pisa.Drop
	}
	p.IP.Dst = ip
	p.TCP.DstPort = port
	n.Stats.Reversed.Inc()
	return pisa.Forward
}

// pendingConn tracks one in-flight translation installation.
type pendingConn struct {
	port    uint16
	packets []*packet.Packet
}

// release translates and emits a buffered packet (§7: after the
// acknowledgement, the output packet is injected back to the data plane and
// forwarded).
func (n *NAT) release(p *packet.Packet, extPort uint16) {
	p.IP.Src = n.cfg.ExternalIP
	p.TCP.SrcPort = extPort
	n.Stats.Translated.Inc()
	n.sw.InjectEgress(p)
}

// ctrlNewConnection handles a punted outbound packet with no visible
// translation: it consults the in-flight table (duplicate SYNs and racing
// data packets buffer behind the first), re-checks the register (the
// mapping may have committed, or be pending — the read then resolves at the
// tail), and only allocates a fresh translation on a confirmed miss.
func (n *NAT) ctrlNewConnection(p *packet.Packet) {
	key, _ := p.Flow()
	fwdKey := nf.FlowID(key)
	if pc, ok := n.inflight[fwdKey]; ok {
		pc.packets = append(pc.packets, p)
		return
	}
	n.reg.Read(fwdKey, func(v []byte, ok bool) {
		if ok {
			// Committed while the packet was punted (e.g. the local pending
			// bit masked it); the authoritative value came from the tail.
			if _, port, ok2 := nf.GetAddrPort(v); ok2 {
				n.release(p, port)
			}
			return
		}
		if pc, dup := n.inflight[fwdKey]; dup {
			pc.packets = append(pc.packets, p)
			return
		}
		n.allocate(key, fwdKey, p)
	})
}

// allocate installs a new translation and releases all buffered packets of
// the connection when both mapping writes commit. If either fails the held
// packets are dropped, and the port returns to the pool unless one mapping
// did commit.
func (n *NAT) allocate(key packet.FlowKey, fwdKey uint64, p *packet.Packet) {
	if len(n.freePorts) == 0 {
		n.Stats.DropNoPorts.Inc()
		return
	}
	extPort := n.freePorts[0]
	n.freePorts = n.freePorts[1:]
	n.Stats.NewConns.Inc()
	pc := &pendingConn{port: extPort, packets: []*packet.Packet{p}}
	n.inflight[fwdKey] = pc

	// Reverse flow as seen at the NAT from outside: server -> extIP:extPort.
	revKey := nf.FlowID(packet.FlowKey{
		Src: key.Dst, Dst: n.cfg.ExternalIP,
		SrcPort: key.DstPort, DstPort: extPort,
		Proto: key.Proto,
	})
	fwdVal := nf.PutAddrPort(n.cfg.ExternalIP, extPort)
	revVal := nf.PutAddrPort(key.Src, key.SrcPort)

	// Both outcomes are recorded before anything is decided: the two writes
	// are independent chain traversals and either may fail alone.
	pending, committed := 2, 0
	oneDone := func(ok bool) {
		if ok {
			committed++
		} else {
			n.Stats.WriteFails.Inc()
		}
		if pending--; pending > 0 {
			return
		}
		delete(n.inflight, fwdKey)
		if committed == 2 {
			for _, q := range pc.packets {
				n.release(q, extPort)
			}
			return
		}
		// The connection is not installed: its held packets end here.
		n.Stats.DropWriteFail.Add(uint64(len(pc.packets)))
		if committed == 0 {
			n.freePorts = append(n.freePorts, extPort)
		}
		// One mapping committed and one failed: the port stays out of the
		// pool, because the committed half still names it on every replica
		// and SRO has no delete to take it back. Counted in WriteFails; a
		// packet's strong writes travelling as one all-or-nothing frame
		// (ROADMAP, "First writer wins: strong inserts decided at the
		// head, for NAT and LB") removes the case.
	}
	n.reg.Write(fwdKey, fwdVal, oneDone)
	n.reg.Write(revKey, revVal, oneDone)
}
