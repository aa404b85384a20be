// Package ddos implements the DDoS detector of §4.2 (per Lapolli et al.):
// per-packet frequency tracking of destination (victim) and source
// addresses in count-min sketches, raising an alarm when a destination's
// frequency in the current window crosses a threshold.
//
// The sketch is the canonical write-intensive, weakly consistent NF state
// (Table 1): updated and read on every packet, commutative, tolerant of
// eventual consistency. Each sketch cell is one key of an EWO G-counter
// register, so the cluster-wide sketch is the CRDT sum of all switches'
// local updates — a distributed count-min sketch with strong eventual
// consistency and monotone estimates (§6.2's counter vector, applied
// cell-wise).
//
// Detection windows advance by epoch: cells are keyed (epoch, index), so a
// new window starts fresh without requiring a (non-CRDT) counter reset.
package ddos

import (
	"fmt"

	"swishmem/internal/core"
	"swishmem/internal/ewo"
	"swishmem/internal/packet"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/stats"
)

// Config parameterizes one detector instance.
type Config struct {
	// Reg is the shared sketch register ID.
	Reg uint16
	// Width and Depth size the count-min sketch. Defaults 1024x3.
	Width, Depth int
	// Threshold is the per-window packet count that flags a victim.
	Threshold uint64
	// Window is the detection window length. Default 10ms.
	Window sim.Duration
}

// windows is how many epochs of cells the register holds (a ring).
const windows = 4

func (c Config) withDefaults() Config {
	if c.Width <= 0 {
		c.Width = 1024
	}
	if c.Depth <= 0 {
		c.Depth = 3
	}
	if c.Window <= 0 {
		c.Window = 10_000_000 // 10ms
	}
	return c
}

// Stats counts detector events.
type Stats struct {
	Updated stats.Counter // packets accounted
	Alarms  stats.Counter // packets observed over threshold
	Dropped stats.Counter // packets dropped during an attack
}

// Detector is one per-switch instance.
type Detector struct {
	cfg Config
	sw  *pisa.Switch
	reg *core.CounterRegister

	epoch uint64

	// OnAlarm, if set, is invoked when a destination first crosses the
	// threshold in a window.
	OnAlarm func(victim packet.FlowKey, estimate uint64)

	alarmed map[uint32]bool // victims alarmed this window

	// Egress receives admitted packets.
	Egress func(p *packet.Packet)

	Stats Stats
}

// New declares the detector on a switch instance.
func New(in *core.Instance, cfg Config) (*Detector, error) {
	cfg = cfg.withDefaults()
	if cfg.Threshold == 0 {
		return nil, fmt.Errorf("ddos: need a positive threshold")
	}
	reg, err := in.NewCounterRegister(ewo.Config{
		Reg:      cfg.Reg,
		Capacity: cfg.Width * cfg.Depth * windows,
		Kind:     ewo.Counter,
	})
	if err != nil {
		return nil, err
	}
	d := &Detector{cfg: cfg, sw: in.Switch(), reg: reg, alarmed: make(map[uint32]bool)}
	return d, nil
}

// Register exposes the EWO counter register.
func (d *Detector) Register() *core.CounterRegister { return d.reg }

// Switch returns the switch this instance runs on.
func (d *Detector) Switch() *pisa.Switch { return d.sw }

// Install wires the detector into the switch pipeline and starts the
// window-advance task (packet generator).
func (d *Detector) Install() {
	d.sw.SetProgram(d.program)
	if d.Egress == nil {
		d.Egress = func(*packet.Packet) {}
	}
	d.sw.SetEgress(d.Egress)
	d.sw.PacketGen(d.cfg.Window, func() {
		d.epoch++
		d.alarmed = make(map[uint32]bool)
	})
}

// cellKey maps (epoch, row, column) to a register key.
func (d *Detector) cellKey(epoch uint64, row, col int) uint64 {
	e := epoch % windows
	return e*uint64(d.cfg.Width*d.cfg.Depth) + uint64(row*d.cfg.Width+col)
}

func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func (d *Detector) program(sw *pisa.Switch, p *packet.Packet) pisa.Verdict {
	if p.IP == nil {
		return pisa.Drop
	}
	dst := packet.U32Addr(p.IP.Dst)
	d.Stats.Updated.Inc()
	// Update all rows for the destination.
	var est uint64 = ^uint64(0)
	for r := 0; r < d.cfg.Depth; r++ {
		col := int(mix(uint64(dst)^uint64(r+1)*0x9e3779b97f4a7c15) % uint64(d.cfg.Width))
		key := d.cellKey(d.epoch, r, col)
		d.reg.Add(key, 1)
		if v := d.reg.Sum(key); v < est {
			est = v
		}
	}
	if est >= d.cfg.Threshold {
		d.Stats.Alarms.Inc()
		if !d.alarmed[dst] {
			d.alarmed[dst] = true
			if d.OnAlarm != nil {
				if k, ok := p.Flow(); ok {
					d.OnAlarm(k, est)
				}
			}
		}
		// Under attack: shed traffic toward the victim.
		d.Stats.Dropped.Inc()
		return pisa.Drop
	}
	return pisa.Forward
}
