// Package topology models the ingress side of the multi-switch deployment
// scenarios of §3.2 (NF processing on every switch of a fabric tier, or on a
// dedicated NF-accelerator cluster): the routing policies that decide which
// NF switch processes a flow — the mechanism whose re-routing behaviour
// (ECMP rehash on failure, adaptive/multipath routing) breaks sharded state
// and motivates SwiShmem's replicated global state.
package topology

import (
	"sort"

	"swishmem/internal/netem"
	"swishmem/internal/packet"
)

// Policy selects how an ingress maps a flow to an NF switch.
type Policy int

// Routing policies.
const (
	// ECMPMod hashes the 5-tuple modulo the number of live switches: the
	// classic ECMP behaviour whose mapping shifts for most flows when the
	// live set changes size (worst case for sharded state).
	ECMPMod Policy = iota
	// HRW uses highest-random-weight (rendezvous) hashing: only flows
	// mapped to a failed switch move.
	HRW
	// RandomPerPacket picks a random live switch for every packet —
	// adaptive/multipath routing's worst case, where even steady state
	// spreads one flow over all switches.
	RandomPerPacket
)

func (p Policy) String() string {
	switch p {
	case HRW:
		return "HRW"
	case RandomPerPacket:
		return "RandomPerPacket"
	default:
		return "ECMPMod"
	}
}

// Ingress routes arriving flows to NF switches under a policy.
type Ingress struct {
	policy Policy
	live   []netem.Addr // sorted for deterministic iteration
	rand   func(n int) int
}

// NewIngress creates a router over the given NF switches. rnd supplies
// randomness for RandomPerPacket (pass eng.Rand().Intn).
func NewIngress(policy Policy, switches []netem.Addr, rnd func(n int) int) *Ingress {
	ing := &Ingress{policy: policy, rand: rnd}
	for _, a := range switches {
		ing.live = append(ing.live, a)
	}
	sort.Slice(ing.live, func(i, j int) bool { return ing.live[i] < ing.live[j] })
	return ing
}

// Live returns the live switch set.
func (ing *Ingress) Live() []netem.Addr { return append([]netem.Addr(nil), ing.live...) }

// Fail removes a switch from the live set.
func (ing *Ingress) Fail(addr netem.Addr) {
	out := ing.live[:0]
	for _, a := range ing.live {
		if a != addr {
			out = append(out, a)
		}
	}
	ing.live = out
}

// Heal re-adds a switch to the live set.
func (ing *Ingress) Heal(addr netem.Addr) {
	for _, a := range ing.live {
		if a == addr {
			return
		}
	}
	ing.live = append(ing.live, addr)
	sort.Slice(ing.live, func(i, j int) bool { return ing.live[i] < ing.live[j] })
}

// flowHash folds a 5-tuple into a uint64 deterministically.
func flowHash(k packet.FlowKey) uint64 {
	h := uint64(packet.U32Addr(k.Src))<<32 | uint64(packet.U32Addr(k.Dst))
	h ^= uint64(k.SrcPort)<<48 | uint64(k.DstPort)<<32 | uint64(k.Proto)
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Route picks the NF switch for a flow. ok is false when no switch is live.
func (ing *Ingress) Route(k packet.FlowKey) (netem.Addr, bool) {
	if len(ing.live) == 0 {
		return 0, false
	}
	switch ing.policy {
	case HRW:
		var best netem.Addr
		var bestW uint64
		for _, a := range ing.live {
			w := flowHash(k) ^ (uint64(a) * 0x9e3779b97f4a7c15)
			w ^= w >> 33
			w *= 0xff51afd7ed558ccd
			w ^= w >> 33
			if w >= bestW {
				bestW, best = w, a
			}
		}
		return best, true
	case RandomPerPacket:
		return ing.live[ing.rand(len(ing.live))], true
	default:
		return ing.live[int(flowHash(k)%uint64(len(ing.live)))], true
	}
}
