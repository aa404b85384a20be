package timesync

import (
	"testing"
	"testing/quick"
	"time"

	"swishmem/internal/sim"
)

func TestStampOrdering(t *testing.T) {
	a := Stamp{Time: 1, Node: 2}
	b := Stamp{Time: 2, Node: 1}
	c := Stamp{Time: 1, Node: 3}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("time ordering broken")
	}
	if !a.Less(c) || c.Less(a) {
		t.Fatal("node tie-break broken")
	}
	if a.Less(a) {
		t.Fatal("irreflexivity broken")
	}
}

func TestStampTotalOrderProperty(t *testing.T) {
	f := func(t1, t2 int64, n1, n2 uint16) bool {
		a := Stamp{Time: sim.Time(t1), Node: NodeID(n1)}
		b := Stamp{Time: sim.Time(t2), Node: NodeID(n2)}
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		// Exactly one direction must hold for distinct stamps.
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStampZeroAndString(t *testing.T) {
	s := Stamp{Time: 5, Node: 3}
	if s.String() == "" {
		t.Fatal("empty string")
	}
}

func TestSyncedBoundedSkew(t *testing.T) {
	eng := sim.NewEngine(9)
	maxSkew := 50 * time.Nanosecond
	for n := 0; n < 64; n++ {
		c := NewSynced(eng, NodeID(n), maxSkew)
		if off := c.Offset(); off < -maxSkew || off > maxSkew {
			t.Fatalf("offset %v out of bound %v", off, maxSkew)
		}
	}
	// Zero skew means zero offset.
	if c := NewSynced(eng, 0, 0); c.Offset() != 0 {
		t.Fatal("zero skew should give zero offset")
	}
}

func TestSyncedMonotonicDespiteSkew(t *testing.T) {
	eng := sim.NewEngine(9)
	c := NewSynced(eng, 1, 100*time.Nanosecond)
	prev := c.Now()
	for i := 0; i < 1000; i++ {
		// Same engine time: stamps must still strictly increase.
		cur := c.Now()
		if !prev.Less(cur) {
			t.Fatalf("non-monotone synced clock: %v then %v", prev, cur)
		}
		prev = cur
	}
	eng.RunFor(time.Microsecond)
	cur := c.Now()
	if !prev.Less(cur) {
		t.Fatal("non-monotone after time advance")
	}
}

func TestSyncedTracksEngineTime(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewSynced(eng, 1, 0)
	eng.RunFor(time.Millisecond)
	s := c.Now()
	if s.Time != sim.Time(time.Millisecond) {
		t.Fatalf("synced time = %v, want 1ms", s.Time)
	}
}

func TestSyncedCrossNodeSkewBound(t *testing.T) {
	// Two synced clocks read at the same instant differ by at most 2*maxSkew
	// (+1 monotonicity bump).
	eng := sim.NewEngine(4)
	maxSkew := 30 * time.Nanosecond
	a := NewSynced(eng, 1, maxSkew)
	b := NewSynced(eng, 2, maxSkew)
	eng.RunFor(time.Millisecond)
	sa, sb := a.Now(), b.Now()
	diff := int64(sa.Time) - int64(sb.Time)
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(2*maxSkew)+1 {
		t.Fatalf("cross-node skew %dns exceeds bound", diff)
	}
}
