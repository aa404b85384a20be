// Package ratelimit implements the distributed rate limiter of §4.2 (in the
// spirit of cloud distributed rate limiting): each user's aggregate
// bandwidth across ALL switches is restricted. Per-user byte counters are
// EWO G-counters — updated on every packet at every switch, merged
// cluster-wide by the CRDT — and a periodic enforcement task ("the meters
// are read every window") compares each user's cluster-wide consumption
// against its budget, blocking over-limit users for the next window.
//
// The tolerated weakness (§4.2): a few extra packets pass between a user
// exceeding the limit and the next enforcement tick — exactly the window
// eventual consistency implies.
package ratelimit

import (
	"fmt"

	"swishmem/internal/core"
	"swishmem/internal/ewo"
	"swishmem/internal/packet"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/stats"
)

// Config parameterizes one rate-limiter instance.
type Config struct {
	// Reg is the shared meter register ID.
	Reg uint16
	// Capacity is the number of distinct users tracked.
	Capacity int
	// BytesPerWindow is each user's cluster-wide budget per window.
	BytesPerWindow uint64
	// Window is the enforcement period. Default 10ms.
	Window sim.Duration
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 10_000_000 // 10ms
	}
	return c
}

// Stats counts limiter events.
type Stats struct {
	Passed  stats.Counter
	Dropped stats.Counter // packets from blocked users
	Blocked stats.Counter // user-block events
}

// Limiter is one per-switch instance.
type Limiter struct {
	cfg Config
	sw  *pisa.Switch
	reg *core.CounterRegister

	lastSum map[uint32]uint64 // per-user consumption at last window tick
	blocked map[uint32]bool
	seen    map[uint32]bool

	// Egress receives admitted packets.
	Egress func(p *packet.Packet)

	Stats Stats
}

// New declares the limiter on a switch instance.
func New(in *core.Instance, cfg Config) (*Limiter, error) {
	cfg = cfg.withDefaults()
	if cfg.Capacity <= 0 || cfg.BytesPerWindow == 0 {
		return nil, fmt.Errorf("ratelimit: need positive capacity and budget")
	}
	reg, err := in.NewCounterRegister(ewo.Config{
		Reg: cfg.Reg, Capacity: cfg.Capacity, Kind: ewo.Counter,
	})
	if err != nil {
		return nil, err
	}
	return &Limiter{
		cfg: cfg, sw: in.Switch(), reg: reg,
		lastSum: make(map[uint32]uint64),
		blocked: make(map[uint32]bool),
		seen:    make(map[uint32]bool),
	}, nil
}

// Register exposes the EWO counter register.
func (l *Limiter) Register() *core.CounterRegister { return l.reg }

// Switch returns the switch this instance runs on.
func (l *Limiter) Switch() *pisa.Switch { return l.sw }

// Install wires the limiter into the pipeline and starts the enforcement
// window task.
func (l *Limiter) Install() {
	l.sw.SetProgram(l.program)
	if l.Egress == nil {
		l.Egress = func(*packet.Packet) {}
	}
	l.sw.SetEgress(l.Egress)
	l.sw.PacketGen(l.cfg.Window, l.enforce)
}

// Blocked reports whether user is currently blocked on this switch.
func (l *Limiter) Blocked(user uint32) bool { return l.blocked[user] }

// Usage returns the cluster-wide byte count attributed to user so far.
func (l *Limiter) Usage(user uint32) uint64 { return l.reg.Sum(uint64(user)) }

func (l *Limiter) program(sw *pisa.Switch, p *packet.Packet) pisa.Verdict {
	if p.IP == nil {
		return pisa.Drop
	}
	user := packet.U32Addr(p.IP.Src) // the user is the source IPv4
	if l.blocked[user] {
		l.Stats.Dropped.Inc()
		return pisa.Drop
	}
	l.seen[user] = true
	l.reg.Add(uint64(user), uint64(p.Len()))
	l.Stats.Passed.Inc()
	return pisa.Forward
}

// enforce runs every window: users whose cluster-wide consumption in the
// elapsed window exceeded the budget are blocked for the next window.
func (l *Limiter) enforce() {
	for user := range l.seen {
		cur := l.reg.Sum(uint64(user))
		delta := cur - l.lastSum[user]
		l.lastSum[user] = cur
		over := delta > l.cfg.BytesPerWindow
		if over && !l.blocked[user] {
			l.Stats.Blocked.Inc()
		}
		l.blocked[user] = over
	}
}
