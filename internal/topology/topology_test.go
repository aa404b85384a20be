package topology

import (
	"math/rand"
	"testing"

	"swishmem/internal/netem"
	"swishmem/internal/packet"
)

func flows(n int) []packet.FlowKey {
	out := make([]packet.FlowKey, n)
	for i := range out {
		out[i] = packet.FlowKey{
			Src:     packet.AddrU32(0x0a000000 + uint32(i)),
			Dst:     packet.Addr4(10, 1, 0, 1),
			SrcPort: uint16(1024 + i),
			DstPort: 80,
			Proto:   packet.ProtoTCP,
		}
	}
	return out
}

func TestIngressDeterministicAndBalanced(t *testing.T) {
	for _, pol := range []Policy{ECMPMod, HRW} {
		ing := NewIngress(pol, []netem.Addr{1, 2, 3, 4}, nil)
		counts := map[netem.Addr]int{}
		for _, f := range flows(4000) {
			a, ok := ing.Route(f)
			if !ok {
				t.Fatal("no route")
			}
			b, _ := ing.Route(f)
			if a != b {
				t.Fatalf("%v: routing not deterministic", pol)
			}
			counts[a]++
		}
		for a, c := range counts {
			if c < 700 || c > 1300 {
				t.Fatalf("%v: switch %d got %d/4000 flows (imbalanced)", pol, a, c)
			}
		}
	}
}

func TestECMPModRehashMovesManyFlows(t *testing.T) {
	ing := NewIngress(ECMPMod, []netem.Addr{1, 2, 3, 4}, nil)
	fl := flows(2000)
	before := make([]netem.Addr, len(fl))
	for i, f := range fl {
		before[i], _ = ing.Route(f)
	}
	ing.Fail(4)
	moved := 0
	for i, f := range fl {
		after, _ := ing.Route(f)
		if after == 4 {
			t.Fatal("routed to failed switch")
		}
		if after != before[i] && before[i] != 4 {
			moved++
		}
	}
	// mod-N rehash moves most surviving flows.
	if moved < 800 {
		t.Fatalf("ECMPMod moved only %d flows; expected mass reshuffle", moved)
	}
}

func TestHRWMinimalDisruption(t *testing.T) {
	ing := NewIngress(HRW, []netem.Addr{1, 2, 3, 4}, nil)
	fl := flows(2000)
	before := make([]netem.Addr, len(fl))
	for i, f := range fl {
		before[i], _ = ing.Route(f)
	}
	ing.Fail(4)
	moved := 0
	for i, f := range fl {
		after, _ := ing.Route(f)
		if after != before[i] && before[i] != 4 {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("HRW moved %d flows not owned by the failed switch", moved)
	}
	// Heal restores the original mapping.
	ing.Heal(4)
	for i, f := range fl {
		if got, _ := ing.Route(f); got != before[i] {
			t.Fatalf("flow %d not restored after heal", i)
		}
	}
}

func TestHealIdempotent(t *testing.T) {
	ing := NewIngress(HRW, []netem.Addr{1, 2}, nil)
	ing.Heal(2)
	if len(ing.Live()) != 2 {
		t.Fatalf("live = %v", ing.Live())
	}
}

func TestRandomPerPacketSpreads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ing := NewIngress(RandomPerPacket, []netem.Addr{1, 2, 3}, rng.Intn)
	f := flows(1)[0]
	seen := map[netem.Addr]bool{}
	for i := 0; i < 100; i++ {
		a, _ := ing.Route(f)
		seen[a] = true
	}
	if len(seen) != 3 {
		t.Fatalf("one flow should touch all switches under random routing: %v", seen)
	}
}

func TestEmptyLiveSet(t *testing.T) {
	ing := NewIngress(ECMPMod, nil, nil)
	if _, ok := ing.Route(flows(1)[0]); ok {
		t.Fatal("route with no live switches")
	}
}

func TestPolicyString(t *testing.T) {
	if ECMPMod.String() != "ECMPMod" || HRW.String() != "HRW" || RandomPerPacket.String() != "RandomPerPacket" {
		t.Fatal("policy strings")
	}
}
