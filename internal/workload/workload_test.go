package workload

import (
	"math/rand"
	"testing"
	"time"

	"swishmem/internal/packet"
	"swishmem/internal/sim"
)

func TestGenTraceShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr, err := GenTrace(rng, TraceConfig{
		Duration:           100 * time.Millisecond,
		FlowsPerSec:        10000,
		MeanPacketsPerFlow: 8,
		Clients:            500,
		Servers:            8,
	})
	if err != nil {
		t.Fatal(err)
	}
	flows := tr.Flows()
	if flows < 700 || flows > 1300 {
		t.Fatalf("flows = %d, want ~1000 (10k/s x 100ms)", flows)
	}
	// Mean packets per flow ~8.
	ratio := float64(len(tr)) / float64(flows)
	if ratio < 5 || ratio > 12 {
		t.Fatalf("mean packets/flow = %.1f, want ~8", ratio)
	}
	// Sorted by time; SYN/FIN bracketing per flow.
	starts, ends := 0, 0
	for i := range tr {
		if i > 0 && tr[i].At < tr[i-1].At {
			t.Fatal("trace not time-sorted")
		}
		if tr[i].FlowStart {
			starts++
			if !tr[i].Pkt.TCP.Flags.Has(packet.FlagSYN) {
				t.Fatal("flow start without SYN")
			}
		}
		if tr[i].FlowEnd {
			ends++
			if !tr[i].Pkt.TCP.Flags.Has(packet.FlagFIN) {
				t.Fatal("flow end without FIN")
			}
		}
	}
	if starts != ends {
		t.Fatalf("starts %d != ends %d", starts, ends)
	}
}

func TestGenTraceZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, err := GenTrace(rng, TraceConfig{
		Duration: 50 * time.Millisecond, FlowsPerSec: 40000, Clients: 1000, Servers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint32]int{}
	for i := range tr {
		if tr[i].FlowStart {
			counts[packet.U32Addr(tr[i].Pkt.IP.Src)]++
		}
	}
	// Zipf: the hottest client should have far more flows than the median.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 50 {
		t.Fatalf("hottest client only %d flows; zipf skew missing", max)
	}
}

func TestGenTraceValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenTrace(rng, TraceConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestGenAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr, err := GenAttack(rng, AttackConfig{
		Duration: 10 * time.Millisecond, PacketsPerSec: 1e6, Sources: 5000, Victim: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) < 8000 || len(tr) > 12000 {
		t.Fatalf("attack packets = %d, want ~10000", len(tr))
	}
	victim := tr[0].Pkt.IP.Dst
	srcs := map[uint32]bool{}
	for i := range tr {
		if tr[i].Pkt.IP.Dst != victim {
			t.Fatal("attack not single-victim")
		}
		srcs[packet.U32Addr(tr[i].Pkt.IP.Src)] = true
	}
	if len(srcs) < 1000 {
		t.Fatalf("only %d distinct sources", len(srcs))
	}
	if _, err := GenAttack(rng, AttackConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// TestGenAttackAllocBudget: an attack trace costs one allocation a packet
// (the packet with its headers; payloads share packet.ForFlow's zeros), plus
// a constant for the generator and the trace, which is presized from the
// configured rate. It measures 3.
func TestGenAttackAllocBudget(t *testing.T) {
	const constant = 4
	var packets int
	allocs := testing.AllocsPerRun(5, func() {
		tr, err := GenAttack(rand.New(rand.NewSource(7)), AttackConfig{
			Duration: 10 * time.Millisecond, PacketsPerSec: 1e6, Sources: 5000})
		if err != nil {
			t.Fatal(err)
		}
		packets = len(tr)
	})
	if budget := float64(packets + constant); allocs > budget {
		t.Fatalf("%.0f allocs for %d packets, budget %.0f", allocs, packets, budget)
	}
}

func TestMergeOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, _ := GenTrace(rng, TraceConfig{Duration: 5 * time.Millisecond, FlowsPerSec: 5000})
	b, _ := GenAttack(rng, AttackConfig{Duration: 5 * time.Millisecond, PacketsPerSec: 1e5})
	m := Merge(a, b)
	if len(m) != len(a)+len(b) {
		t.Fatalf("merge lost packets: %d != %d+%d", len(m), len(a), len(b))
	}
	for i := 1; i < len(m); i++ {
		if m[i].At < m[i-1].At {
			t.Fatal("merge not sorted")
		}
	}
}

func TestGenUserStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, err := GenUserStreams(rng, UserStreamConfig{
		Duration: 100 * time.Millisecond, Users: 10,
		PacketsPerSecPerUser: 1000, HogFactor: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	perUser := map[uint32]int{}
	for i := range tr {
		perUser[UserOf(tr[i].Pkt)]++
	}
	if len(perUser) != 10 {
		t.Fatalf("users = %d", len(perUser))
	}
	// User 0 is the hog: ~10x the others.
	if perUser[0] < 5*perUser[1] {
		t.Fatalf("hog factor not visible: user0=%d user1=%d", perUser[0], perUser[1])
	}
	if _, err := GenUserStreams(rng, UserStreamConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestReplayDeliversInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr, _ := GenTrace(rng, TraceConfig{Duration: 2 * time.Millisecond, FlowsPerSec: 100000})
	eng := sim.NewEngine(1)
	var got []sim.Time
	Replay(eng, tr, func(p *packet.Packet) { got = append(got, eng.Now()) })
	eng.Run()
	if len(got) != len(tr) {
		t.Fatalf("delivered %d of %d", len(got), len(tr))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatal("replay out of order")
		}
	}
}

func TestDeterministicTraces(t *testing.T) {
	gen := func() Trace {
		rng := rand.New(rand.NewSource(42))
		tr, _ := GenTrace(rng, TraceConfig{Duration: 5 * time.Millisecond, FlowsPerSec: 20000})
		return tr
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		ka, _ := a[i].Pkt.Flow()
		kb, _ := b[i].Pkt.Flow()
		if a[i].At != b[i].At || ka != kb {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func BenchmarkGenTrace(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenTrace(rng, TraceConfig{Duration: time.Millisecond, FlowsPerSec: 100000}); err != nil {
			b.Fatal(err)
		}
	}
}
