// Live is the cross-process variant of the controller. The simulated
// Controller delivers configuration by direct control-plane calls into
// co-resident switch objects — impossible across processes — so Live speaks
// the wire protocol end to end: members announce themselves with Hello, the
// controller answers with the PeerList directory (§9's directory service),
// heartbeats arrive as ordinary wire messages, and chain/group configuration
// is broadcast as ChainConfig/GroupConfig datagrams.
//
// Two deliberate restrictions versus the simulated controller:
//
//   - Configuration messages carry no register id on the wire, so a Live
//     deployment uses uniform membership: every chain register shares one
//     chain, every EWO register shares one group (core.Instance fans a
//     received config out to all registers of the matching kind).
//   - Configuration travels over the same lossy UDP as everything else, so
//     delivery is eventual, not reliable: the controller re-broadcasts the
//     current configs every ResendPeriod and receivers apply equal-epoch
//     configs idempotently.
//
// There is no cross-process snapshot recovery (spare promotion): a dead
// member is routed around (chain shortened, group membership trimmed), which
// is the §6.3 failover half; EWO recovery by re-sync works unchanged since
// it needs only membership.
package controller

import (
	"slices"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/netem/live"
	"swishmem/internal/sim"
	"swishmem/internal/wire"
)

// LiveConfig holds live-controller parameters.
type LiveConfig struct {
	// Fabric is the controller's own fabric (not started yet). Required.
	Fabric *live.Fabric
	// Members lists the expected cluster, in chain order. Required.
	Members []netem.Addr
	// HeartbeatPeriod is the expected member heartbeat interval. Default 20ms
	// (wall clock — live deployments beat much slower than the simulated
	// microsecond-scale fabric).
	HeartbeatPeriod sim.Duration
	// ResendPeriod is the config/PeerList re-broadcast interval (UDP makes
	// config delivery eventual, not reliable). Default 100ms.
	ResendPeriod sim.Duration
}

// liveFailureBeats is how many heartbeat periods of silence declare a member
// dead: over real sockets a tight timeout converts scheduler hiccups into
// spurious failovers.
const liveFailureBeats = 10

func (c LiveConfig) withDefaults() LiveConfig {
	if c.HeartbeatPeriod == 0 {
		c.HeartbeatPeriod = 20 * time.Millisecond
	}
	if c.ResendPeriod == 0 {
		c.ResendPeriod = 100 * time.Millisecond
	}
	return c
}

// LiveStats counts live-controller events.
type LiveStats struct {
	Hellos        uint64
	Heartbeats    uint64
	FailuresSeen  uint64
	PeerListSends uint64
	ConfigSends   uint64
}

// Live is the cross-process controller. All state lives on the fabric's pump
// goroutine (system handler + engine timers); external readers go through
// Fabric.Call.
type Live struct {
	f   *live.Fabric
	eng *sim.Engine
	cfg LiveConfig

	present  map[netem.Addr]bool
	lastBeat map[netem.Addr]sim.Time
	dead     map[netem.Addr]bool

	peersEpoch uint32
	chainEpoch uint32
	groupEpoch uint32
	members    []netem.Addr // alive members, chain order
	configured bool

	scratch []netem.Addr

	Stats LiveStats
}

// NewLive wires a live controller onto its fabric (system handler plus scan
// and resend timers). Call before Fabric.Start.
func NewLive(cfg LiveConfig) *Live {
	cfg = cfg.withDefaults()
	l := &Live{
		f:        cfg.Fabric,
		eng:      cfg.Fabric.Engine(),
		cfg:      cfg,
		present:  make(map[netem.Addr]bool),
		lastBeat: make(map[netem.Addr]sim.Time),
		dead:     make(map[netem.Addr]bool),
	}
	l.f.SetSystemHandler(l.handle)
	l.eng.Every(cfg.HeartbeatPeriod, l.scan)
	l.eng.Every(cfg.ResendPeriod, l.resend)
	return l
}

// handle consumes the control-plane message types; everything else would be
// a protocol message, which the controller has no switch to deliver to.
func (l *Live) handle(from netem.Addr, msg wire.Msg) bool {
	switch m := msg.(type) {
	case *wire.Hello:
		l.Stats.Hellos++
		addr := netem.Addr(m.From)
		if !l.present[addr] {
			l.present[addr] = true
			l.lastBeat[addr] = l.eng.Now()
			l.peersEpoch++
			l.broadcastPeers()
		} else {
			// The member repeats Hello until it sees a PeerList; the earlier
			// one was lost, so answer directly.
			l.sendPeers(addr)
		}
		l.maybeConfigure()
		return true
	case *wire.Heartbeat:
		l.Stats.Heartbeats++
		l.lastBeat[netem.Addr(m.From)] = l.eng.Now()
		return true
	}
	return true // nothing else is meaningful at the controller; drop it
}

// peerList builds the current directory from the transport's learned
// endpoints.
func (l *Live) peerList() *wire.PeerList {
	pl := &wire.PeerList{Epoch: l.peersEpoch}
	addrs := l.sortedPresent()
	for _, a := range addrs {
		ap, ok := l.f.Node().Peer(a)
		if !ok {
			continue
		}
		ip := ap.Addr().Unmap().As4()
		pl.Peers = append(pl.Peers, wire.PeerEntry{Addr: uint16(a), IP: ip, Port: ap.Port()})
	}
	return pl
}

func (l *Live) sortedPresent() []netem.Addr {
	addrs := l.scratch[:0]
	for a := range l.present {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	l.scratch = addrs
	return addrs
}

func (l *Live) broadcastPeers() {
	pl := l.peerList()
	for _, a := range l.sortedPresent() {
		if l.dead[a] {
			continue
		}
		l.Stats.PeerListSends++
		_ = l.f.Node().Send(a, pl)
	}
}

func (l *Live) sendPeers(addr netem.Addr) {
	l.Stats.PeerListSends++
	_ = l.f.Node().Send(addr, l.peerList())
}

// maybeConfigure pushes the initial chain/group configuration once every
// expected member has announced itself.
func (l *Live) maybeConfigure() {
	if l.configured {
		return
	}
	for _, a := range l.cfg.Members {
		if !l.present[a] {
			return
		}
	}
	l.configured = true
	l.members = append([]netem.Addr(nil), l.cfg.Members...)
	l.chainEpoch++
	l.groupEpoch++
	l.pushConfigs()
}

// pushConfigs broadcasts the current chain and group configuration to every
// alive member.
func (l *Live) pushConfigs() {
	cc := &wire.ChainConfig{Epoch: l.chainEpoch}
	gc := &wire.GroupConfig{Epoch: l.groupEpoch}
	for _, a := range l.members {
		cc.Members = append(cc.Members, uint16(a))
		gc.Members = append(gc.Members, uint16(a))
	}
	for _, a := range l.members {
		l.Stats.ConfigSends += 2
		_ = l.f.Node().Send(a, cc)
		_ = l.f.Node().Send(a, gc)
	}
}

// scan declares members dead after liveFailureBeats heartbeat periods of
// silence and shrinks the chain and group around them. Addresses are visited
// in sorted order so simultaneous failures reconfigure deterministically.
func (l *Live) scan() {
	if !l.configured {
		return
	}
	now := l.eng.Now()
	addrs := l.scratch[:0]
	for a := range l.lastBeat {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	l.scratch = addrs
	changed := false
	for _, a := range addrs {
		if l.dead[a] || now.Sub(l.lastBeat[a]) < liveFailureBeats*l.cfg.HeartbeatPeriod {
			continue
		}
		l.dead[a] = true
		l.Stats.FailuresSeen++
		out := l.members[:0]
		for _, m := range l.members {
			if m != a {
				out = append(out, m)
			}
		}
		l.members = out
		changed = true
	}
	if changed {
		l.chainEpoch++
		l.groupEpoch++
		l.pushConfigs()
	}
}

// resend re-broadcasts the directory and current configs (lossy transport:
// receivers apply equal epochs idempotently, so this converges).
func (l *Live) resend() {
	if len(l.present) > 0 {
		l.broadcastPeers()
	}
	if l.configured {
		l.pushConfigs()
	}
}

// AliveMembers returns the current membership. Pump goroutine only.
func (l *Live) AliveMembers() []netem.Addr {
	return append([]netem.Addr(nil), l.members...)
}
