// Package timesync provides the clock primitive SwiShmem's EWO protocol
// uses for last-writer-wins ordering: a model of data-plane time
// synchronization with bounded skew (per DPTP, which the paper cites as
// achieving tens-of-nanoseconds synchronization between switches).
//
// It produces Stamp values — a (time, switch ID) pair totally ordered with
// the switch ID as tie breaker, exactly the uniqueness construction §6.2
// describes.
package timesync

import (
	"fmt"

	"swishmem/internal/sim"
)

// NodeID identifies a switch for tie-breaking.
type NodeID uint16

// Stamp is a globally unique, totally ordered version stamp.
type Stamp struct {
	Time sim.Time
	Node NodeID
}

// Less reports whether s orders strictly before o.
func (s Stamp) Less(o Stamp) bool {
	if s.Time != o.Time {
		return s.Time < o.Time
	}
	return s.Node < o.Node
}

func (s Stamp) String() string { return fmt.Sprintf("%v@n%d", s.Time, s.Node) }

// Synced models a hardware-synchronized real-time clock with bounded skew:
// reads return engine time plus a fixed per-switch offset drawn from
// [-maxSkew, +maxSkew]. This matches the paper's citation of data-plane time
// sync achieving tens-of-nanoseconds accuracy between switches.
type Synced struct {
	node   NodeID
	eng    *sim.Engine
	offset sim.Duration
	last   sim.Time // strictly-increasing floor for monotonicity
}

// NewSynced creates a synchronized clock for node with a random constant
// offset bounded by maxSkew. The offset is a pure function of the engine
// seed and the node id — not a draw from the engine's shared stream — so it
// does not depend on construction order.
func NewSynced(eng *sim.Engine, node NodeID, maxSkew sim.Duration) *Synced {
	var off sim.Duration
	if maxSkew > 0 {
		// splitmix64 finalizer over (seed, node); reduce to [-maxSkew, +maxSkew].
		z := uint64(eng.Seed()) ^ 0x9e3779b97f4a7c15 ^ uint64(node)<<40
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		off = sim.Duration(z%uint64(2*maxSkew+1)) - maxSkew
	}
	return &Synced{node: node, eng: eng, offset: off}
}

// Now returns a unique stamp: skewed engine time, node as tie breaker.
// Successive calls on the same node are guaranteed strictly monotonic by
// bumping a strictly-increasing floor.
func (s *Synced) Now() Stamp {
	t := s.eng.Now().Add(s.offset)
	if t <= s.last {
		t = s.last + 1
	}
	s.last = t
	return Stamp{Time: t, Node: s.node}
}

// Offset returns the clock's constant skew (for tests and experiments).
func (s *Synced) Offset() sim.Duration { return s.offset }
