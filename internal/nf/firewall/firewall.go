// Package firewall implements the stateful firewall of §4.1: context-based
// filtering driven by a connection-state table shared across all firewall
// switches through an SRO register. Outbound SYNs open connections (a
// replicated write through the control plane); inbound traffic is admitted
// only when a matching connection exists — which must hold at EVERY switch,
// or multi-path routing leaks or breaks traffic; hence strong consistency.
package firewall

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

// connection states stored in the register.
const (
	stateSynSent byte = 1
	stateClosing byte = 3
)

// Config parameterizes one firewall instance.
type Config struct {
	// Reg is the shared connection-table register ID.
	Reg uint16
	// Capacity is the connection table size.
	Capacity int
}

// inside reports whether an address is on the protected side, 10.0.0.0/8.
func inside(a netip.Addr) bool { return a.As4()[0] == 10 }

// Stats counts firewall events.
type Stats struct {
	AllowedOut  stats.Counter
	AllowedIn   stats.Counter
	BlockedIn   stats.Counter // inbound without connection state
	NewConns    stats.Counter
	Closed      stats.Counter
	HeldPackets stats.Counter
}

// Firewall is one per-switch instance.
type Firewall struct {
	cfg Config
	sw  *pisa.Switch
	reg *core.StrongRegister

	// inflight buffers packets per connection key while a state write is in
	// flight (control-plane DRAM).
	inflight map[uint64][]*packet.Packet

	// Egress receives admitted packets.
	Egress func(p *packet.Packet)

	Stats Stats
}

// New declares the firewall on a switch instance.
func New(in *core.Instance, cfg Config) (*Firewall, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("firewall: need positive capacity")
	}
	reg, err := in.NewStrongRegister(core.Strong, chain.Config{
		Reg: cfg.Reg, Capacity: cfg.Capacity, ValueWidth: 1,
		Backing: chain.ControlPlane,
	})
	if err != nil {
		return nil, err
	}
	return &Firewall{cfg: cfg, sw: in.Switch(), reg: reg, inflight: make(map[uint64][]*packet.Packet)}, nil
}

// Register exposes the SRO register.
func (f *Firewall) Register() *core.StrongRegister { return f.reg }

// Switch returns the switch this instance runs on.
func (f *Firewall) Switch() *pisa.Switch { return f.sw }

// Install wires the firewall into the switch pipeline.
func (f *Firewall) Install() {
	f.sw.SetProgram(f.program)
	f.sw.SetCtrlPacketHandler(f.ctrlStateChange)
	if f.Egress == nil {
		f.Egress = func(*packet.Packet) {}
	}
	f.sw.SetEgress(f.Egress)
}

// connKey canonicalizes both directions of a connection to one register key
// (the inside-originated orientation).
func (f *Firewall) connKey(k packet.FlowKey) uint64 {
	if inside(k.Src) {
		return nf.FlowID(k)
	}
	return nf.FlowID(k.Reverse())
}

func (f *Firewall) program(sw *pisa.Switch, p *packet.Packet) pisa.Verdict {
	k, ok := p.Flow()
	if !ok || p.TCP == nil {
		return pisa.Drop
	}
	var st byte
	var known bool
	f.reg.Read(f.connKey(k), func(v []byte, ok bool) {
		if ok && len(v) > 0 {
			known, st = true, v[0]
		}
	})
	if inside(k.Src) {
		// Outbound: always allowed; state transitions go via control plane.
		switch {
		case p.TCP.Flags.Has(packet.FlagSYN) && !known:
			f.Stats.HeldPackets.Inc()
			return pisa.ToControlPlane
		case p.TCP.Flags.Has(packet.FlagFIN) || p.TCP.Flags.Has(packet.FlagRST):
			if known && st != stateClosing {
				f.Stats.HeldPackets.Inc()
				return pisa.ToControlPlane
			}
		}
		f.Stats.AllowedOut.Inc()
		return pisa.Forward
	}
	// Inbound: needs connection state.
	if !known || st == stateClosing {
		f.Stats.BlockedIn.Inc()
		return pisa.Drop
	}
	f.Stats.AllowedIn.Inc()
	return pisa.Forward
}

// ctrlStateChange installs or updates connection state on the control plane
// and releases the held packet (and any packets buffered behind the same
// key) once the write commits. Outbound packets were already cleared by the
// pipeline, so they go straight to egress.
func (f *Firewall) ctrlStateChange(p *packet.Packet) {
	k, _ := p.Flow()
	key := f.connKey(k)
	if q, dup := f.inflight[key]; dup {
		f.inflight[key] = append(q, p)
		return
	}
	f.inflight[key] = []*packet.Packet{p}
	st := stateSynSent
	switch {
	case p.TCP.Flags.Has(packet.FlagFIN), p.TCP.Flags.Has(packet.FlagRST):
		st = stateClosing
		f.Stats.Closed.Inc()
	default:
		f.Stats.NewConns.Inc()
	}
	f.reg.Write(key, []byte{st}, func(ok bool) {
		q := f.inflight[key]
		delete(f.inflight, key)
		if !ok {
			return
		}
		for _, buffered := range q {
			f.Stats.AllowedOut.Inc()
			f.sw.InjectEgress(buffered)
		}
	})
}
