// Package workload synthesizes the traffic the experiments drive through
// the NF cluster: TCP connection churn with heavy-tailed flow sizes and
// Zipf-distributed endpoints (the stand-in for production traces, per the
// substitution rules in DESIGN.md), plus DDoS attack mixes for the
// detection experiments and per-user streams for the rate limiter.
//
// All generation is driven by an explicit *rand.Rand so every experiment is
// reproducible from its seed.
package workload

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"swishmem/internal/packet"
	"swishmem/internal/sim"
)

// TimedPacket is one trace event: a packet plus its arrival offset from the
// trace start.
type TimedPacket struct {
	At  sim.Duration
	Pkt *packet.Packet
	// FlowStart marks the first packet (SYN) of a flow.
	FlowStart bool
	// FlowEnd marks the last packet (FIN) of a flow.
	FlowEnd bool
}

// Trace is an ordered packet trace.
type Trace []TimedPacket

// Flows counts distinct flow starts in the trace.
func (tr Trace) Flows() int {
	n := 0
	for i := range tr {
		if tr[i].FlowStart {
			n++
		}
	}
	return n
}

// TraceConfig parameterizes connection-churn traffic.
type TraceConfig struct {
	// Duration is the trace length in virtual time.
	Duration sim.Duration
	// FlowsPerSec is the new-connection arrival rate (Poisson).
	FlowsPerSec float64
	// MeanPacketsPerFlow is the mean flow length (geometric, >= 2: SYN and
	// FIN always present).
	MeanPacketsPerFlow float64
	// Clients and Servers size the address pools. Client selection is
	// Zipf-skewed (s=1.2); servers uniform.
	Clients int
	Servers int
}

// meanPacketGap is the mean spacing between a flow's packets
// (exponential), tracePayloadLen a data packet's payload size and maxFlowLen
// the longest flow.
const (
	meanPacketGap   sim.Duration = 10_000 // 10µs
	tracePayloadLen              = 64
	maxFlowLen                   = 10000
)

func (c TraceConfig) withDefaults() TraceConfig {
	if c.Clients <= 0 {
		c.Clients = 1000
	}
	if c.Servers <= 0 {
		c.Servers = 16
	}
	if c.MeanPacketsPerFlow < 2 {
		c.MeanPacketsPerFlow = 10
	}
	return c
}

const (
	clientBase = 0x0a000000 // 10.0.0.0/8 clients
	serverBase = 0xc0a80000 // 192.168.0.0/16 servers
	attackBase = 0x2d000000 // 45.0.0.0/8 spoofed attackers
)

// zipfSampler returns a sampler of Zipf-skewed indices in [0, n); with one
// index or none it always returns 0, since rand.Zipf needs imax >= 1.
func zipfSampler(rng *rand.Rand, n int) func() uint64 {
	if n <= 1 {
		return func() uint64 { return 0 }
	}
	z := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	return z.Uint64
}

// GenTrace builds a connection-churn trace: flows arrive as a Poisson
// process; each flow is SYN, data packets, FIN from a client to a server.
func GenTrace(rng *rand.Rand, cfg TraceConfig) (Trace, error) {
	cfg = cfg.withDefaults()
	if cfg.Duration <= 0 || cfg.FlowsPerSec <= 0 {
		return nil, fmt.Errorf("workload: need positive Duration and FlowsPerSec")
	}
	zipfClient := zipfSampler(rng, cfg.Clients)
	tr := presized(cfg.FlowsPerSec*min(cfg.MeanPacketsPerFlow, maxFlowLen), cfg.Duration)
	// Poisson arrivals: exponential inter-arrival gaps.
	meanGap := float64(sim.Duration(1e9)) / cfg.FlowsPerSec
	var at sim.Duration
	port := uint16(1024)
	for {
		at += sim.Duration(rng.ExpFloat64() * meanGap)
		if at >= cfg.Duration {
			break
		}
		port++
		if port < 1024 {
			port = 1024
		}
		key := packet.FlowKey{
			Src:     packet.AddrU32(clientBase + uint32(zipfClient())),
			Dst:     packet.AddrU32(serverBase + uint32(rng.Intn(cfg.Servers))),
			SrcPort: port,
			DstPort: 80,
			Proto:   packet.ProtoTCP,
		}
		// Geometric flow length with the configured mean (>=2).
		n := 2
		p := 1 / (cfg.MeanPacketsPerFlow - 1)
		for rng.Float64() > p && n < maxFlowLen {
			n++
		}
		t := at
		for i := 0; i < n; i++ {
			flags := packet.FlagACK
			if i == 0 {
				flags = packet.FlagSYN
			} else if i == n-1 {
				flags = packet.FlagFIN | packet.FlagACK
			}
			tr = append(tr, TimedPacket{
				At:        t,
				Pkt:       packet.ForFlow(key, flags, tracePayloadLen),
				FlowStart: i == 0,
				FlowEnd:   i == n-1,
			})
			t += sim.Duration(rng.ExpFloat64() * float64(meanPacketGap))
		}
	}
	sortByArrival(tr)
	return tr, nil
}

// AttackConfig parameterizes a volumetric DDoS mix layered over background
// traffic: many spoofed sources flooding one victim.
type AttackConfig struct {
	// Duration of the attack trace.
	Duration sim.Duration
	// PacketsPerSec is the attack aggregate rate.
	PacketsPerSec float64
	// Sources is the spoofed source pool size.
	Sources int
	// Victim is the destination index (within the server pool).
	Victim int
}

// GenAttack builds a flood trace toward a single victim from a large source
// pool.
func GenAttack(rng *rand.Rand, cfg AttackConfig) (Trace, error) {
	if cfg.Duration <= 0 || cfg.PacketsPerSec <= 0 {
		return nil, fmt.Errorf("workload: need positive Duration and PacketsPerSec")
	}
	if cfg.Sources <= 0 {
		cfg.Sources = 10000
	}
	victim := packet.AddrU32(serverBase + uint32(cfg.Victim))
	meanGap := float64(sim.Duration(1e9)) / cfg.PacketsPerSec
	tr := presized(cfg.PacketsPerSec, cfg.Duration)
	var at sim.Duration
	for {
		at += sim.Duration(rng.ExpFloat64() * meanGap)
		if at >= cfg.Duration {
			break
		}
		key := packet.FlowKey{
			Src:     packet.AddrU32(attackBase + uint32(rng.Intn(cfg.Sources))),
			Dst:     victim,
			SrcPort: uint16(rng.Intn(64512) + 1024),
			DstPort: 80,
			Proto:   packet.ProtoUDP,
		}
		tr = append(tr, TimedPacket{At: at, Pkt: packet.ForFlow(key, 0, 64)})
	}
	return tr, nil
}

// Merge interleaves sorted traces by arrival time in one pass. It is stable:
// of packets that arrive at one instant, those of an earlier argument come
// first, each argument's in its own order.
func Merge(traces ...Trace) Trace {
	n := 0
	for _, tr := range traces {
		n += len(tr)
	}
	out := make(Trace, 0, n)
	next := make([]int, len(traces))
	for len(out) < n {
		k := -1
		for j, tr := range traces {
			if next[j] < len(tr) && (k < 0 || tr[next[j]].At < traces[k][next[k]].At) {
				k = j
			}
		}
		out = append(out, traces[k][next[k]])
		next[k]++
	}
	return out
}

// UserStreamConfig parameterizes per-user traffic for the rate limiter:
// a fixed user set, each sending at its own constant rate.
type UserStreamConfig struct {
	Duration sim.Duration
	// Users is the number of distinct users (distinct source IPs).
	Users int
	// PacketsPerSecPerUser is each user's send rate; user 0 optionally
	// exceeds it by HogFactor to exercise enforcement.
	PacketsPerSecPerUser float64
	// HogFactor multiplies user 0's rate (default 1: no hog).
	HogFactor float64
}

// userPayloadLen is a rate-limiter packet's payload size (rate limiting is
// byte-oriented).
const userPayloadLen = 512

// GenUserStreams builds the rate-limiter workload.
func GenUserStreams(rng *rand.Rand, cfg UserStreamConfig) (Trace, error) {
	if cfg.Duration <= 0 || cfg.Users <= 0 || cfg.PacketsPerSecPerUser <= 0 {
		return nil, fmt.Errorf("workload: need positive Duration, Users, and rate")
	}
	if cfg.HogFactor <= 0 {
		cfg.HogFactor = 1
	}
	tr := presized(cfg.PacketsPerSecPerUser*(float64(cfg.Users-1)+cfg.HogFactor), cfg.Duration)
	for u := 0; u < cfg.Users; u++ {
		rate := cfg.PacketsPerSecPerUser
		if u == 0 {
			rate *= cfg.HogFactor
		}
		meanGap := float64(sim.Duration(1e9)) / rate
		key := packet.FlowKey{
			Src:     packet.AddrU32(clientBase + uint32(u)),
			Dst:     packet.AddrU32(serverBase),
			SrcPort: uint16(20000 + u),
			DstPort: 443,
			Proto:   packet.ProtoUDP,
		}
		var at sim.Duration
		for {
			at += sim.Duration(rng.ExpFloat64() * meanGap)
			if at >= cfg.Duration {
				break
			}
			tr = append(tr, TimedPacket{At: at, Pkt: packet.ForFlow(key, 0, userPayloadLen)})
		}
	}
	sortByArrival(tr)
	return tr, nil
}

// sortByArrival orders a trace by arrival time, keeping the generation order
// of packets that arrive at one instant.
func sortByArrival(tr Trace) {
	slices.SortStableFunc(tr, func(a, b TimedPacket) int { return cmp.Compare(a.At, b.At) })
}

// presized returns an empty trace with room for the packets a generator
// expects to emit at perSec over d, plus headroom for a count above its mean:
// four standard deviations of a Poisson count, and a sixteenth more for the
// spread of a churn trace's flow lengths. It is an estimate: append still
// grows the trace past it.
func presized(perSec float64, d sim.Duration) Trace {
	n := perSec * d.Seconds()
	n += n/16 + 4*math.Sqrt(n)
	return make(Trace, 0, int(n))
}

// Replay schedules a trace into the simulation, delivering each packet via
// deliver at its arrival time (offset from now).
func Replay(eng *sim.Engine, tr Trace, deliver func(*packet.Packet)) {
	for i := range tr {
		pkt := tr[i].Pkt
		eng.ScheduleAfter(tr[i].At+1, func() { deliver(pkt) })
	}
}
