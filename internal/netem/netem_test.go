package netem

import (
	"testing"
	"time"

	"swishmem/internal/sim"
)

type recorder struct {
	msgs  []any
	froms []Addr
	times []sim.Time
}

func (r *recorder) handler(eng *sim.Engine) Handler {
	return func(from Addr, payload any, size int) {
		r.msgs = append(r.msgs, payload)
		r.froms = append(r.froms, from)
		r.times = append(r.times, eng.Now())
	}
}

func setup(seed int64, p LinkProfile, nodes ...Addr) (*sim.Engine, *Network, map[Addr]*recorder) {
	eng := sim.NewEngine(seed)
	net := New(eng, p)
	return eng, net, attachRecorders(eng, net, nodes)
}

// attachRecorders attaches a recorder at every address in nodes.
func attachRecorders(eng *sim.Engine, net *Network, nodes []Addr) map[Addr]*recorder {
	recs := make(map[Addr]*recorder)
	for _, a := range nodes {
		r := &recorder{}
		recs[a] = r
		net.Attach(a, r.handler(eng))
	}
	return recs
}

func TestBasicDelivery(t *testing.T) {
	eng, net, recs := setup(1, LinkProfile{Latency: 100}, 1, 2)
	if !net.Send(1, 2, "hi", 50) {
		t.Fatal("send refused")
	}
	eng.Run()
	r := recs[2]
	if len(r.msgs) != 1 || r.msgs[0] != "hi" || r.froms[0] != 1 {
		t.Fatalf("delivery = %+v", r)
	}
	if r.times[0] != 100 {
		t.Fatalf("delivered at %v, want latency 100", r.times[0])
	}
}

func TestSendFromUnknownOrDownNode(t *testing.T) {
	eng, net, _ := setup(1, LinkProfile{}, 1, 2)
	if net.Send(99, 2, "x", 1) {
		t.Fatal("unknown sender accepted")
	}
	net.SetNodeUp(1, false)
	if net.Send(1, 2, "x", 1) {
		t.Fatal("down sender accepted")
	}
	net.SetNodeUp(1, true)
	if !net.Send(1, 2, "x", 1) {
		t.Fatal("healed sender refused")
	}
	eng.Run()
}

func TestDownReceiverDrops(t *testing.T) {
	eng, net, recs := setup(1, LinkProfile{Latency: 10}, 1, 2)
	net.SetNodeUp(2, false)
	net.Send(1, 2, "x", 1)
	eng.Run()
	if len(recs[2].msgs) != 0 {
		t.Fatal("down receiver got message")
	}
	if net.Totals().MsgsDropped != 1 {
		t.Fatalf("drops = %d, want 1", net.Totals().MsgsDropped)
	}
}

func TestReceiverFailsInFlight(t *testing.T) {
	// A message already in flight when the receiver dies must be dropped:
	// delivery checks happen at arrival time, not send time.
	eng, net, recs := setup(1, LinkProfile{Latency: 100}, 1, 2)
	net.Send(1, 2, "x", 1)
	eng.After(50*time.Nanosecond, func() { net.SetNodeUp(2, false) })
	eng.Run()
	if len(recs[2].msgs) != 0 {
		t.Fatal("message delivered to node that died in flight")
	}
}

func TestLossRate(t *testing.T) {
	eng, net, recs := setup(7, LinkProfile{Latency: 1, LossRate: 0.3}, 1, 2)
	const N = 10000
	for i := 0; i < N; i++ {
		net.Send(1, 2, i, 10)
	}
	eng.Run()
	got := len(recs[2].msgs)
	if got < 6500 || got > 7500 {
		t.Fatalf("delivered %d of %d at 30%% loss", got, N)
	}
	st := net.Stats(1, 2)
	if st.MsgsSent != N || st.MsgsDeliv != uint64(got) || st.MsgsDropped != N-uint64(got) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDuplication(t *testing.T) {
	eng, net, recs := setup(3, LinkProfile{Latency: 10, DupRate: 0.5}, 1, 2)
	const N = 1000
	for i := 0; i < N; i++ {
		net.Send(1, 2, i, 10)
	}
	eng.Run()
	got := len(recs[2].msgs)
	if got < N+400 || got > N+600 {
		t.Fatalf("delivered %d, want ~1500 with 50%% dup", got)
	}
}

func TestBandwidthSerializationAndQueueing(t *testing.T) {
	// 8 Gbps link: 1000-byte message takes 1000ns to serialize.
	eng, net, recs := setup(1, LinkProfile{Latency: 0, BandwidthBps: 8e9}, 1, 2)
	net.Send(1, 2, "a", 1000)
	net.Send(1, 2, "b", 1000)
	eng.Run()
	r := recs[2]
	if len(r.times) != 2 {
		t.Fatalf("delivered %d", len(r.times))
	}
	if r.times[0] != 1000 {
		t.Fatalf("first delivery at %v, want 1000ns", r.times[0])
	}
	if r.times[1] != 2000 {
		t.Fatalf("second delivery at %v, want 2000ns (queued)", r.times[1])
	}
}

func TestInfiniteBandwidthNoQueueing(t *testing.T) {
	eng, net, recs := setup(1, LinkProfile{Latency: 5}, 1, 2)
	for i := 0; i < 10; i++ {
		net.Send(1, 2, i, 1<<20)
	}
	eng.Run()
	for _, at := range recs[2].times {
		if at != 5 {
			t.Fatalf("delivery at %v, want 5 for all", at)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	eng, net, recs := setup(5, LinkProfile{Latency: 100, Jitter: 50}, 1, 2)
	for i := 0; i < 1000; i++ {
		net.Send(1, 2, i, 1)
	}
	eng.Run()
	for _, at := range recs[2].times {
		if at < 100 || at > 150 {
			t.Fatalf("delivery at %v outside [100,150]", at)
		}
	}
}

func TestReordering(t *testing.T) {
	eng, net, recs := setup(11, LinkProfile{Latency: 100, ReorderRate: 0.3}, 1, 2)
	const N = 1000
	for i := 0; i < N; i++ {
		net.Send(1, 2, i, 1)
	}
	eng.Run()
	r := recs[2]
	if len(r.msgs) != N {
		t.Fatalf("delivered %d", len(r.msgs))
	}
	outOfOrder := 0
	for i := 1; i < len(r.msgs); i++ {
		if r.msgs[i].(int) < r.msgs[i-1].(int) {
			outOfOrder++
		}
	}
	if outOfOrder == 0 {
		t.Fatal("no reordering observed at 30% reorder rate")
	}
}

func TestPartition(t *testing.T) {
	eng, net, recs := setup(1, LinkProfile{Latency: 1}, 1, 2, 3)
	net.Partition(1, 1)
	net.Partition(2, 2)
	// 3 stays in group 0 and can talk to both.
	net.Send(1, 2, "blocked", 1)
	net.Send(1, 3, "ok13", 1)
	net.Send(3, 2, "ok32", 1)
	eng.Run()
	if len(recs[2].msgs) != 1 || recs[2].msgs[0] != "ok32" {
		t.Fatalf("node2 got %+v", recs[2].msgs)
	}
	if len(recs[3].msgs) != 1 {
		t.Fatalf("node3 got %+v", recs[3].msgs)
	}
	net.HealPartition()
	net.Send(1, 2, "after", 1)
	eng.Run()
	if len(recs[2].msgs) != 2 {
		t.Fatal("healed partition still blocking")
	}
}

func TestPartitionInFlight(t *testing.T) {
	// Partition applied while a message is in flight drops it on arrival.
	eng, net, recs := setup(1, LinkProfile{Latency: 100}, 1, 2)
	net.Send(1, 2, "x", 1)
	eng.After(10*time.Nanosecond, func() {
		net.Partition(1, 1)
		net.Partition(2, 2)
	})
	eng.Run()
	if len(recs[2].msgs) != 0 {
		t.Fatal("partitioned message delivered")
	}
}

// TestMulticast: every member but the sender gets one copy, and copies that
// arrive at one instant on idle links are one engine event.
func TestMulticast(t *testing.T) {
	eng, net, recs := setup(1, LinkProfile{Latency: 1}, 1, 2, 3, 4)
	group := []Addr{1, 2, 3, 4}
	net.Multicast(1, group, "m", 10)
	if n := eng.Run(); n != 1 {
		t.Fatalf("a 3-copy multicast on idle links ran %d engine events, want 1", n)
	}
	if len(recs[1].msgs) != 0 {
		t.Fatal("multicast delivered to sender")
	}
	for _, a := range []Addr{2, 3, 4} {
		if len(recs[a].msgs) != 1 {
			t.Fatalf("node %d got %d messages", a, len(recs[a].msgs))
		}
	}
}

func TestPerLinkProfiles(t *testing.T) {
	eng, net, recs := setup(1, LinkProfile{Latency: 10}, 1, 2, 3)
	net.SetLink(1, 3, LinkProfile{Latency: 500})
	net.Send(1, 2, "fast", 1)
	net.Send(1, 3, "slow", 1)
	eng.Run()
	if recs[2].times[0] != 10 || recs[3].times[0] != 500 {
		t.Fatalf("times: %v %v", recs[2].times, recs[3].times)
	}
	// Symmetric: 3->1 also 500.
	net.SetLink(1, 3, LinkProfile{Latency: 500})
	before := eng.Now()
	net.Send(3, 1, "back", 1)
	eng.Run()
	if recs[1].times[0].Sub(before) != 500 {
		t.Fatal("reverse direction not configured")
	}
}

func TestOneWayLink(t *testing.T) {
	eng, net, recs := setup(1, LinkProfile{Latency: 10}, 1, 2)
	net.SetOneWayLink(1, 2, LinkProfile{Latency: 777})
	net.Send(1, 2, "a", 1)
	net.Send(2, 1, "b", 1)
	eng.Run()
	if recs[2].times[0] != 777 {
		t.Fatalf("one-way profile not applied: %v", recs[2].times[0])
	}
	if recs[1].times[0] != 10 {
		t.Fatalf("reverse should use default: %v", recs[1].times[0])
	}
}

func TestByteAccounting(t *testing.T) {
	eng, net, _ := setup(1, LinkProfile{Latency: 1}, 1, 2)
	net.Send(1, 2, "a", 100)
	net.Send(1, 2, "b", 200)
	eng.Run()
	st := net.Stats(1, 2)
	if st.BytesSent != 300 || st.BytesDeliv != 300 {
		t.Fatalf("bytes = %+v", st)
	}
	tot := net.Totals()
	if tot.BytesSent != 300 {
		t.Fatalf("totals = %+v", tot)
	}
	net.ResetTotals()
	if net.Totals().BytesSent != 0 || net.Stats(1, 2).BytesSent != 0 {
		t.Fatal("reset failed")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	_, net, _ := setup(1, LinkProfile{}, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Send(1, 2, "x", -1)
}

func TestLossyHelper(t *testing.T) {
	p := DataCenter().Lossy(0.25)
	if p.LossRate != 0.25 || p.BandwidthBps != 100e9 {
		t.Fatalf("profile = %+v", p)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []sim.Time {
		eng, net, recs := setup(99, LinkProfile{Latency: 50, Jitter: 30, LossRate: 0.1}, 1, 2)
		for i := 0; i < 500; i++ {
			net.Send(1, 2, i, 64)
		}
		eng.Run()
		return recs[2].times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d", i)
		}
	}
}

func TestCombinedDupReorderBandwidthAccounting(t *testing.T) {
	// Duplication, reordering, and bandwidth queueing together: byte
	// accounting must stay exact when the same message is both duplicated
	// and reordered while sharing a serialization queue.
	const (
		msgs = 2000
		size = 125 // 1000 bits: 1µs serialization at 1 Gbps
	)
	p := LinkProfile{
		Latency:      20 * 1000, // 20µs
		BandwidthBps: 1e9,
		DupRate:      0.3,
		ReorderRate:  0.3,
	}
	eng, net, recs := setup(7, p, 1, 2)
	for i := 0; i < msgs; i++ {
		if !net.Send(1, 2, i, size) {
			t.Fatal("send refused")
		}
	}
	eng.Run()

	st := net.Stats(1, 2)
	if st.MsgsSent != msgs {
		t.Fatalf("MsgsSent = %d, want %d", st.MsgsSent, msgs)
	}
	if st.BytesSent != uint64(msgs)*size {
		t.Fatalf("BytesSent = %d, want %d", st.BytesSent, uint64(msgs)*size)
	}
	if st.MsgsDup == 0 {
		t.Fatal("no duplicates at DupRate 0.3")
	}
	// Lossless link: every original plus every duplicate arrives.
	wantDeliv := uint64(msgs) + st.MsgsDup
	if st.MsgsDeliv != wantDeliv {
		t.Fatalf("MsgsDeliv = %d, want %d (msgs %d + dups %d)", st.MsgsDeliv, wantDeliv, msgs, st.MsgsDup)
	}
	if st.MsgsDropped != 0 {
		t.Fatalf("MsgsDropped = %d on a lossless link", st.MsgsDropped)
	}
	if st.BytesDeliv != wantDeliv*size {
		t.Fatalf("BytesDeliv = %d, want %d (every delivery, duplicates included, accounts its bytes)",
			st.BytesDeliv, wantDeliv*size)
	}
	if got := uint64(len(recs[2].msgs)); got != wantDeliv {
		t.Fatalf("handler saw %d messages, want %d", got, wantDeliv)
	}
	if tot := net.Totals(); tot != st {
		t.Fatalf("single-link totals diverge from link stats:\n  totals %+v\n  link   %+v", tot, st)
	}
	// Reordering actually happened: with 30% reorder on a FIFO-serialized
	// link, arrival order must not be monotone in send order.
	inOrder := true
	for i := 1; i < len(recs[2].msgs); i++ {
		if recs[2].msgs[i].(int) < recs[2].msgs[i-1].(int) {
			inOrder = false
			break
		}
	}
	if inOrder {
		t.Fatal("no reordering observed at ReorderRate 0.3")
	}
	// Serialization queueing was in effect: the last arrival cannot beat
	// the total serialization time of the whole burst.
	minFinish := sim.Time(msgs * 1000) // msgs x 1µs
	last := recs[2].times[len(recs[2].times)-1]
	if last < minFinish {
		t.Fatalf("last delivery at %v, before minimum serialization finish %v", last, minFinish)
	}
}

func TestSendSteadyStateAllocs(t *testing.T) {
	eng, net, _ := setup(1, LinkProfile{Latency: 100, BandwidthBps: 100e9}, 1, 2, 3, 4)
	group := []Addr{1, 2, 3, 4}
	// Warm pools and link records.
	for i := 0; i < 64; i++ {
		net.Multicast(1, group, nil, 64)
	}
	eng.Run()
	if avg := testing.AllocsPerRun(500, func() {
		net.Multicast(1, group, nil, 64)
		eng.Run()
	}); avg != 0 {
		t.Fatalf("steady-state Multicast+deliver allocates %.2f per op, want 0", avg)
	}
}

func BenchmarkSend(b *testing.B) {
	eng, net, _ := setup(1, LinkProfile{Latency: 100}, 1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Send(1, 2, nil, 64)
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
}

func TestEachLink(t *testing.T) {
	eng, net, _ := setup(1, LinkProfile{Latency: 100}, 1, 2, 3)
	net.Send(2, 1, "a", 10)
	net.Send(2, 1, "b", 20)
	net.Send(1, 3, "c", 30)
	eng.Run()

	type row struct {
		from, to Addr
		s        LinkStats
	}
	var got []row
	net.EachLink(func(from, to Addr, s LinkStats) {
		got = append(got, row{from, to, s})
	})
	if len(got) != 2 {
		t.Fatalf("EachLink visited %d links, want 2: %+v", len(got), got)
	}
	// Deterministic ascending (from, to) order.
	if got[0].from != 1 || got[0].to != 3 || got[1].from != 2 || got[1].to != 1 {
		t.Fatalf("EachLink order wrong: %+v", got)
	}
	if got[1].s.MsgsSent != 2 || got[1].s.BytesSent != 30 || got[1].s.MsgsDeliv != 2 {
		t.Fatalf("2->1 stats wrong: %+v", got[1].s)
	}
	// Per-link stats must agree with the global aggregate Totals().
	var sum LinkStats
	net.EachLink(func(_, _ Addr, s LinkStats) {
		sum.MsgsSent += s.MsgsSent
		sum.BytesSent += s.BytesSent
		sum.MsgsDeliv += s.MsgsDeliv
		sum.BytesDeliv += s.BytesDeliv
		sum.MsgsDropped += s.MsgsDropped
		sum.MsgsDup += s.MsgsDup
	})
	if sum != net.Totals() {
		t.Fatalf("EachLink sum %+v != Totals %+v", sum, net.Totals())
	}
	// ResetTotals clears both views symmetrically.
	net.ResetTotals()
	net.EachLink(func(from, to Addr, s LinkStats) {
		if s != (LinkStats{}) {
			t.Fatalf("link %d->%d not reset: %+v", from, to, s)
		}
	})
	if net.Totals() != (LinkStats{}) {
		t.Fatalf("totals not reset: %+v", net.Totals())
	}
}
