package netem

import (
	"testing"

	"swishmem/internal/sim"
)

// TestBurstCoalescesSameTick: a run of same-tick sends on one link queues
// one engine event per arrival, delivers every message in send order at the
// same virtual time, and counts one processed event per message.
func TestBurstCoalescesSameTick(t *testing.T) {
	eng, net, recs := setup(1, LinkProfile{Latency: 100}, 1, 2)
	const k = 8
	for i := 0; i < k; i++ {
		if !net.Send(1, 2, i, 10) {
			t.Fatalf("send %d refused", i)
		}
	}
	if got := eng.Pending(); got != k {
		t.Fatalf("queued %d events for %d same-tick sends, want one per arrival", got, k)
	}
	eng.Run()
	r := recs[2]
	if len(r.msgs) != k {
		t.Fatalf("delivered %d msgs, want %d", len(r.msgs), k)
	}
	for i := 0; i < k; i++ {
		if r.msgs[i] != i {
			t.Fatalf("msg %d = %v: same-tick arrivals reordered the link", i, r.msgs[i])
		}
		if r.times[i] != 100 {
			t.Fatalf("msg %d delivered at %v, want 100", i, r.times[i])
		}
	}
	if got := eng.Processed(); got != k {
		t.Fatalf("processed = %d, want %d (one event per message)", got, k)
	}
}

// TestBurstSplitsAcrossTicks: sends landing on different ticks (bandwidth
// serialization pushes each arrival later) arrive at different times.
func TestBurstSplitsAcrossTicks(t *testing.T) {
	// 1 byte/ns: each 100-byte message serializes 100ns after the previous.
	eng, net, recs := setup(1, LinkProfile{Latency: 50, BandwidthBps: 8e9}, 1, 2)
	net.Send(1, 2, "a", 100)
	net.Send(1, 2, "b", 100)
	if got := eng.Pending(); got != 2 {
		t.Fatalf("queued %d events for two different-tick sends, want 2", got)
	}
	eng.Run()
	if len(recs[2].msgs) != 2 || recs[2].times[0] == recs[2].times[1] {
		t.Fatalf("deliveries = %+v", recs[2])
	}
}

// TestBurstRechecksReceiverPerMessage: a handler that takes the receiver down
// stops the later same-tick arrivals on its link — each arrival checks its
// destination when it runs.
func TestBurstRechecksReceiverPerMessage(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, LinkProfile{Latency: 100})
	var got []any
	net.Attach(1, func(Addr, any, int) {})
	net.Attach(2, func(_ Addr, payload any, _ int) {
		got = append(got, payload)
		if len(got) == 2 {
			net.SetNodeUp(2, false)
		}
	})
	for i := 0; i < 5; i++ {
		net.Send(1, 2, i, 10)
	}
	eng.Run()
	if len(got) != 2 {
		t.Fatalf("delivered %d msgs after the receiver failed, want 2", len(got))
	}
	if net.Totals().MsgsDropped != 3 {
		t.Fatalf("dropped = %d, want 3", net.Totals().MsgsDropped)
	}
}

// TestBurstSendAllocBudget: the same-tick send path allocates nothing once
// the pools are warm — every arrival takes a pooled delivery record and a
// pooled engine event, and running it returns both.
func TestBurstSendAllocBudget(t *testing.T) {
	eng := sim.NewEngine(1)
	net := New(eng, LinkProfile{Latency: 100})
	net.Attach(1, func(Addr, any, int) {})
	net.Attach(2, func(Addr, any, int) {})
	for i := 0; i < 64; i++ {
		net.Send(1, 2, "warm", 10)
	}
	eng.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			net.Send(1, 2, "hot", 10)
		}
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("same-tick send+drain allocates %v per run, want 0", allocs)
	}
}
