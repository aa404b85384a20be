package netem

import (
	"math/rand"

	"swishmem/internal/sim"
)

// Fate is what a fabric does with one message.
type Fate uint8

// Fates. Deliver is the zero value; every other fate is a drop decided at
// send time, and its String is the fabric trace instant the drop emits.
const (
	Deliver Fate = iota
	// DropPartition is never returned by Decide: partition groups belong to
	// the fabric, not to a link, so the transports check them first and
	// account the drop under this fate.
	DropPartition
	DropBlackhole
	DropReject
	DropNth
	// DropCorrupt condemns the message to fail its integrity check at the
	// receiver. The simulator drops it at send time (after offering it to
	// the CorruptionChecker); the live transport flips payload bits and
	// transmits it so the receiver's CRC rejects it. Either consumer draws
	// the bit positions from Shaper.Rand right after the verdict.
	DropCorrupt
	DropLoss
)

var fateNames = [...]string{
	Deliver:       "deliver",
	DropPartition: "drop.partition",
	DropBlackhole: "drop.blackhole",
	DropReject:    "drop.reject",
	DropNth:       "drop.nth",
	DropCorrupt:   "drop.corrupt",
	DropLoss:      "drop.loss",
}

func (f Fate) String() string { return fateNames[f] }

// Verdict is the fault model's decision for one message.
type Verdict struct {
	Fate Fate
	// Delay is the send-to-arrival delay of a delivered message:
	// serialization and queueing behind earlier sends, propagation, jitter
	// and reorder lag. A corrupted message carries the bare propagation
	// delay (it still crosses the link to be rejected at the far end).
	Delay sim.Duration
	// DupLag, when nonzero, delivers a second copy at Delay+DupLag.
	DupLag sim.Duration
}

// Shaper is the mutable state of one link direction that the fault model
// advances per message: the link's private random stream, the every-Nth
// counter and the FIFO serialization horizon. The sender owns it.
type Shaper struct {
	seed int64
	// rng is created on first stochastic use, so deterministic links (the
	// common case) never pay for it.
	rng *rand.Rand
	// nth counts messages that reached the every-Nth check. It survives
	// profile changes so back-to-back bursts keep the periodic phase.
	nth       uint64
	busyUntil sim.Time
}

// NewShaper returns the shaping state of the from->to direction. Its random
// stream depends only on (seed, from, to): it is identical no matter when
// the link first draws, what other links do, how nodes are sharded, or
// whether the simulator or a live node owns the link.
func NewShaper(seed int64, from, to Addr) Shaper {
	// splitmix64 finalizer, same family as the deterministic HashIndex.
	z := uint64(seed) ^ 0x9e3779b97f4a7c15 ^ uint64(from)<<32 ^ uint64(to)<<16
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return Shaper{seed: int64(z)}
}

// Rand returns the link's random stream.
func (s *Shaper) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	return s.rng
}

// Decide is the link fault model — the one implementation both fabrics run.
// It decides the fate of a message of size bytes sent at now under profile
// p, in a fixed order: deny, every-Nth, corruption draw, loss draw, then
// for a survivor serialization, jitter draw, reorder draws, duplication
// draw. Every draw is gated on its knob, so a profile draws exactly the
// sequence its set fields imply, and a drop draws nothing after it.
func (s *Shaper) Decide(p *LinkProfile, now sim.Time, size int) Verdict {
	switch p.Deny {
	case DenyBlackhole:
		return Verdict{Fate: DropBlackhole}
	case DenyReject:
		return Verdict{Fate: DropReject}
	}
	if p.LossEveryN >= 1 {
		s.nth++
		if s.nth%uint64(p.LossEveryN) == 0 {
			return Verdict{Fate: DropNth}
		}
	}
	if p.CorruptRate > 0 && s.Rand().Float64() < p.CorruptRate {
		return Verdict{Fate: DropCorrupt, Delay: p.Latency}
	}
	if p.LossRate > 0 && s.Rand().Float64() < p.LossRate {
		return Verdict{Fate: DropLoss}
	}

	// Serialization delay with FIFO queueing at the sender side of the link.
	depart := now
	if p.BandwidthBps > 0 {
		ser := sim.Duration(float64(size*8) / p.BandwidthBps * 1e9)
		if s.busyUntil > now {
			depart = s.busyUntil
		}
		depart = depart.Add(ser)
		s.busyUntil = depart
	}
	v := Verdict{Delay: depart.Sub(now) + p.Latency}
	if p.Jitter > 0 {
		v.Delay += sim.Duration(s.Rand().Int63n(int64(p.Jitter) + 1))
	}
	if p.ReorderRate > 0 && s.Rand().Float64() < p.ReorderRate {
		// Up to four propagation delays of extra lag lets later messages
		// overtake this one.
		v.Delay += sim.Duration(s.Rand().Int63n(int64(4*p.Latency) + 1))
	}
	if p.DupRate > 0 && s.Rand().Float64() < p.DupRate {
		// Half a propagation delay, plus one tick so the duplicate never
		// ties with the original.
		v.DupLag = p.Latency/2 + 1
	}
	return v
}
