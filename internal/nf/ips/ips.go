// Package ips implements the intrusion prevention system of §4.1 (P4ID-
// style): every packet's payload is scanned against a signature set; a
// match drops the packet. Signatures are read on every packet but updated
// rarely (an operator pushing new rules), and the paper classifies the
// state as weakly consistent — a few malicious packets slipping through
// right after a signature push is acceptable. The signature set is
// therefore an ERO register: local reads always (bounded latency), chain
// writes, no pending bits.
//
// Signature matching is 8-byte-gram hashing: a signature is the hash of an
// 8-byte pattern; the data plane slides an 8-byte window over the payload
// and looks each gram hash up in the register. This is the kind of fixed-
// width matching a PISA pipeline can express (P4ID uses similar per-window
// hashing).
package ips

import (
	"encoding/binary"
	"fmt"

	"swishmem/internal/chain"
	"swishmem/internal/core"
	"swishmem/internal/packet"
	"swishmem/internal/pisa"
	"swishmem/internal/stats"
)

// GramSize is the signature window width in bytes.
const GramSize = 8

// Config parameterizes one IPS instance.
type Config struct {
	// Reg is the shared signature register ID.
	Reg uint16
	// Capacity is the maximum number of signatures.
	Capacity int
}

// maxWindows bounds the number of payload windows scanned per packet (the
// pipeline stage budget).
const maxWindows = 16

// Stats counts IPS events.
type Stats struct {
	Scanned stats.Counter
	Matched stats.Counter // packets dropped on signature match
	Updates stats.Counter // signature installs/removals issued locally
}

// IPS is one per-switch instance.
type IPS struct {
	cfg Config
	sw  *pisa.Switch
	reg *core.StrongRegister // ERO mode

	// Egress receives clean packets.
	Egress func(p *packet.Packet)

	Stats Stats
}

// New declares the IPS on a switch instance.
func New(in *core.Instance, cfg Config) (*IPS, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("ips: need positive capacity")
	}
	reg, err := in.NewStrongRegister(core.EventualRead, chain.Config{
		Reg: cfg.Reg, Capacity: cfg.Capacity, ValueWidth: 1,
	})
	if err != nil {
		return nil, err
	}
	return &IPS{cfg: cfg, sw: in.Switch(), reg: reg}, nil
}

// Register exposes the ERO register.
func (s *IPS) Register() *core.StrongRegister { return s.reg }

// Switch returns the switch this instance runs on.
func (s *IPS) Switch() *pisa.Switch { return s.sw }

// Install wires the IPS into the switch pipeline.
func (s *IPS) Install() {
	s.sw.SetProgram(s.program)
	if s.Egress == nil {
		s.Egress = func(*packet.Packet) {}
	}
	s.sw.SetEgress(s.Egress)
}

// SignatureKey hashes an 8-byte pattern into the register key space.
// Patterns shorter than GramSize are zero-padded.
func SignatureKey(pattern []byte) uint64 {
	var b [GramSize]byte
	copy(b[:], pattern)
	return gramHash(binary.BigEndian.Uint64(b[:]))
}

func gramHash(g uint64) uint64 {
	g ^= g >> 33
	g *= 0xff51afd7ed558ccd
	g ^= g >> 33
	g *= 0xc4ceb9fe1a85ec53
	g ^= g >> 33
	return g
}

// AddSignature installs a signature from this switch: an ERO write that
// propagates through the chain. done fires when the write commits (weak
// consistency means other switches may briefly keep matching/admitting in
// the interim — the tolerated window of §4.1).
func (s *IPS) AddSignature(pattern []byte, done func(ok bool)) {
	s.Stats.Updates.Inc()
	s.reg.Write(SignatureKey(pattern), []byte{1}, done)
}

func (s *IPS) program(sw *pisa.Switch, p *packet.Packet) pisa.Verdict {
	if p.IP == nil {
		return pisa.Drop
	}
	s.Stats.Scanned.Inc()
	pl := p.Payload
	windows := len(pl) - GramSize + 1
	if windows > maxWindows {
		windows = maxWindows
	}
	for i := 0; i < windows; i++ {
		key := gramHash(binary.BigEndian.Uint64(pl[i : i+GramSize]))
		var hit bool
		s.reg.Read(key, func(v []byte, ok bool) {
			hit = ok && len(v) > 0 && v[0] == 1
		})
		if hit {
			s.Stats.Matched.Inc()
			return pisa.Drop
		}
	}
	return pisa.Forward
}
