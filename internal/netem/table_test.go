package netem

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"swishmem/internal/sim"
)

// The addresses a table must tell apart: both ends of a page, the page
// boundary, the controller, the top of the range.
var tableAddrs = []Addr{0, 1, 2, 7, 0xff, 0x100, 0x101, 0x1ff, 0x7f00, 0xfffe, 0xffff}

func TestAddrTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab AddrTable[int]
	ref := map[Addr]int{}
	for i := 0; i < 2000; i++ {
		a := tableAddrs[rng.Intn(len(tableAddrs))]
		if v := rng.Intn(4); v == 0 {
			tab.Set(a, 0) // storing the zero value unsets
			delete(ref, a)
		} else {
			tab.Set(a, v)
			ref[a] = v
		}
		for _, a := range tableAddrs {
			if got := tab.Get(a); got != ref[a] {
				t.Fatalf("step %d: Get(%#x) = %d, want %d", i, a, got, ref[a])
			}
		}
		var seen []Addr
		tab.Each(func(a Addr, v int) {
			if v != ref[a] {
				t.Fatalf("step %d: Each(%#x) = %d, want %d", i, a, v, ref[a])
			}
			seen = append(seen, a)
		})
		if len(seen) != len(ref) || !slices.IsSorted(seen) {
			t.Fatalf("step %d: Each visited %v, want the %d set addresses ascending", i, seen, len(ref))
		}
	}
}

// The link table against the map it replaced: random SetLink /
// SetOneWayLink / Attach on a two-shard network, checking every directed
// pair's profile, the (from, to) order of the stats walk, and the lookahead
// contribution after each step.
func TestLinkTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := sim.NewGroup(seed, 2)
		def := LinkProfile{Latency: 900}
		shardOf := func(a Addr) int { return int(a) % 2 }
		nw := NewSharded(g, def, shardOf)
		ref := map[[2]Addr]LinkProfile{} // materialized links
		var attached []Addr
		pick := func() Addr { return tableAddrs[rng.Intn(len(tableAddrs))] }
		for step := 0; step < 300; step++ {
			a, b := pick(), pick()
			p := LinkProfile{Latency: sim.Duration(100 + rng.Intn(1000))}
			switch rng.Intn(3) {
			case 0:
				nw.SetLink(a, b, p)
				ref[[2]Addr{a, b}], ref[[2]Addr{b, a}] = p, p
			case 1:
				nw.SetOneWayLink(a, b, p)
				ref[[2]Addr{a, b}] = p
			case 2:
				nw.Attach(a, func(Addr, any, int) {})
				if !slices.Contains(attached, a) {
					attached = append(attached, a)
				}
				for _, o := range attached {
					for _, k := range [][2]Addr{{a, o}, {o, a}} {
						if _, ok := ref[k]; !ok && o != a {
							ref[k] = def
						}
					}
				}
			}

			min := def.MinDelay()
			for _, x := range tableAddrs {
				for _, y := range tableAddrs {
					want, ok := ref[[2]Addr{x, y}]
					if !ok {
						want = def
					} else if shardOf(x) != shardOf(y) && want.MinDelay() < min {
						min = want.MinDelay()
					}
					if got := nw.Profile(x, y); got != want {
						t.Fatalf("seed %d step %d: Profile(%#x, %#x) = %+v, want %+v", seed, step, x, y, got, want)
					}
				}
			}
			if got := nw.MinCrossShardLatency(); got != min {
				t.Fatalf("seed %d step %d: MinCrossShardLatency = %v, want %v", seed, step, got, min)
			}
			var walk [][2]Addr
			nw.EachLink(func(from, to Addr, _ LinkStats) { walk = append(walk, [2]Addr{from, to}) })
			want := make([][2]Addr, 0, len(ref))
			for k := range ref {
				want = append(want, k)
			}
			slices.SortFunc(want, func(x, y [2]Addr) int { return slices.Compare(x[:], y[:]) })
			if !slices.Equal(walk, want) {
				t.Fatalf("seed %d step %d: EachLink walked %v, want %v", seed, step, walk, want)
			}
		}
		g.Close()
	}
}

// In sharded mode a send may only use a link Attach materialized: creating
// one on the send path would mutate the table under the other shards.
func TestShardedSendOnUnmaterializedLinkPanics(t *testing.T) {
	g := sim.NewGroup(1, 2)
	defer g.Close()
	nw := NewSharded(g, LinkProfile{Latency: 100}, func(a Addr) int { return int(a) % 2 })
	nw.Attach(1, func(Addr, any, int) {})
	nw.Attach(2, func(Addr, any, int) {})
	if !nw.Send(1, 2, "materialized by Attach", 8) {
		t.Fatal("send on an attached pair refused")
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "never materialized") {
			t.Fatalf("send to a never-attached address: recovered %q, want the materialization panic", msg)
		}
	}()
	nw.Send(1, 9, "no such link", 8)
}
