package live

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/sim"
	"swishmem/internal/wire"
)

// TestPeerProfileAsymmetric builds a one-way outage on real sockets: node 1
// blackholes its egress to node 2 while node 2's path back stays clean. The
// healthy direction must keep delivering; the dead one must not.
func TestPeerProfileAsymmetric(t *testing.T) {
	nodes := mkMesh(t, 2, Options{})
	var c1, c2 collect
	nodes[0].SetRawHandler(decoded(c1.handler))
	nodes[1].SetRawHandler(decoded(c2.handler))
	nodes[0].SetPeerProfile(2, netem.LinkProfile{Deny: netem.DenyBlackhole})

	msg := &wire.Heartbeat{From: 1, Seq: 1}
	for i := 0; i < 5; i++ {
		if err := nodes[0].Send(2, msg); err != nil {
			t.Fatalf("blackholed send must not error: %v", err)
		}
		if err := nodes[1].Send(1, &wire.Heartbeat{From: 2, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c1.count() == 5 })
	if got := c2.count(); got != 0 {
		t.Fatalf("%d datagrams crossed a blackholed direction", got)
	}
	if s := nodes[0].Stats(); s.TxBlackholed != 5 {
		t.Fatalf("TxBlackholed = %d, want 5", s.TxBlackholed)
	}

	// Clearing the override heals exactly that direction.
	nodes[0].ClearPeerProfile(2)
	if err := nodes[0].Send(2, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c2.count() == 1 })
}

// TestDenyRejectSurfacesToSender: reject mode must hand the sender an error
// (the ICMP-unreachable analog) instead of silently eating the datagram.
func TestDenyRejectSurfacesToSender(t *testing.T) {
	nodes := mkMesh(t, 2, Options{})
	nodes[0].SetPeerProfile(2, netem.LinkProfile{Deny: netem.DenyReject})
	err := nodes[0].Send(2, &wire.Heartbeat{From: 1, Seq: 1})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("Send = %v, want ErrRejected", err)
	}
	if err := nodes[0].SendEncoded(2, wire.Marshal(&wire.Heartbeat{From: 1, Seq: 2})); !errors.Is(err, ErrRejected) {
		t.Fatalf("SendEncoded = %v, want ErrRejected", err)
	}
	if s := nodes[0].Stats(); s.TxRejected != 2 || s.Sent != 0 {
		t.Fatalf("stats = %+v, want 2 rejects and 0 sent", s)
	}
}

// TestLossEveryNDeterministic: every-Nth loss is a counter, not a coin — of
// 9 datagrams at N=3, exactly the 3rd, 6th, and 9th die, every run.
func TestLossEveryNDeterministic(t *testing.T) {
	nodes := mkMesh(t, 2, Options{})
	var c collect
	nodes[1].SetRawHandler(decoded(c.handler))
	nodes[0].SetPeerProfile(2, netem.LinkProfile{LossEveryN: 3})
	for i := 0; i < 9; i++ {
		if err := nodes[0].Send(2, &wire.Heartbeat{From: 1, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return c.count() == 6 })
	if s := nodes[0].Stats(); s.TxDropped != 3 || s.Sent != 6 {
		t.Fatalf("stats = %+v, want exactly 3 dropped / 6 sent", s)
	}
	seen := map[uint64]bool{}
	c.mu.Lock()
	for _, m := range c.msgs {
		seen[m.(*wire.Heartbeat).Seq] = true
	}
	c.mu.Unlock()
	for _, dead := range []uint64{2, 5, 8} { // 0-indexed 3rd/6th/9th
		if seen[dead] {
			t.Fatalf("datagram %d survived; every-Nth cadence broken (saw %v)", dead, seen)
		}
	}
}

// TestCorruptionRejectedCleanly: bit-flipped payloads must be counted as
// decode errors at the receiver — never delivered as a wrong message, never
// a panic — while the frame header keeps attributing the sender.
func TestCorruptionRejectedCleanly(t *testing.T) {
	nodes := mkMesh(t, 2, Options{Seed: 7})
	var c collect
	nodes[1].SetRawHandler(decoded(c.handler))
	nodes[0].SetPeerProfile(2, netem.LinkProfile{CorruptRate: 1.0})
	const sends = 50
	for i := 0; i < sends; i++ {
		if err := nodes[0].Send(2, &wire.Heartbeat{From: 1, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		s := nodes[1].Stats()
		return s.DecodeErr+s.Received >= sends
	})
	tx := nodes[0].Stats()
	if tx.TxCorrupted != sends {
		t.Fatalf("TxCorrupted = %d, want %d", tx.TxCorrupted, sends)
	}
	// The frame CRC makes rejection exact, not probabilistic: every flipped
	// frame fails the integrity check and none reaches the handler — a
	// corrupted counter delta that decoded "successfully" would silently
	// poison replicated state.
	rx := nodes[1].Stats()
	if rx.DecodeErr != sends {
		t.Fatalf("DecodeErr = %d, want all %d corrupted frames rejected (received=%d)",
			rx.DecodeErr, sends, rx.Received)
	}
	if got := c.count(); got != 0 {
		t.Fatalf("%d corrupted frames were delivered to the handler", got)
	}
}

// TestSameSeedSameFate: with loss and corruption both set, a live node and
// the simulated link of the same seed and direction condemn the same
// messages — dropped, corrupted or delivered, index for index. One fault
// model runs on both fabrics; two would drift (they had: the live copy drew
// loss before corruption, from a stream seeded differently).
func TestSameSeedSameFate(t *testing.T) {
	const seed, sends = 11, 200
	p := netem.LinkProfile{LossRate: 0.25, CorruptRate: 0.25}
	beat := func(i int) *wire.Heartbeat { return &wire.Heartbeat{From: 1, Seq: uint64(i)} }

	eng := sim.NewEngine(seed)
	nw := netem.New(eng, netem.LinkProfile{})
	nw.Attach(1, func(netem.Addr, any, int) {})
	simGot := map[uint64]bool{}
	nw.Attach(2, func(_ netem.Addr, payload any, _ int) { simGot[payload.(*wire.Heartbeat).Seq] = true })
	nw.SetOneWayLink(1, 2, p)
	// The facade's decode-proof checker: it draws from the link stream what a
	// live corrupted frame's bit flips draw.
	nw.SetCorruptionChecker(func(_ int, rng *rand.Rand, _, _ netem.Addr, payload any, _ int) {
		netem.FlipBits(rng, wire.Marshal(payload.(wire.Msg)), 1+rng.Intn(3))
	})
	for i := 0; i < sends; i++ {
		nw.Send(1, 2, beat(i), beat(i).Size())
	}
	eng.Run()
	st := nw.Stats(1, 2)
	if st.MsgsCorrupt == 0 || st.MsgsDropped == st.MsgsCorrupt || len(simGot) == 0 {
		t.Fatalf("sim link stats %+v: want corruption, loss and deliveries all present", st)
	}

	nodes := mkMesh(t, 2, Options{Seed: seed, Profile: p})
	var c collect
	nodes[1].SetRawHandler(decoded(c.handler))
	for i := 0; i < sends; i++ {
		if err := nodes[0].Send(2, beat(i)); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			time.Sleep(time.Millisecond) // avoid socket buffer overrun
		}
	}
	tx := nodes[0].Stats()
	waitFor(t, func() bool {
		rx := nodes[1].Stats()
		return rx.Received+rx.DecodeErr == sends-tx.TxDropped
	})
	if tx.TxCorrupted != st.MsgsCorrupt || tx.TxDropped != st.MsgsDropped-st.MsgsCorrupt {
		t.Fatalf("live corrupted/lost %d/%d, sim %d/%d",
			tx.TxCorrupted, tx.TxDropped, st.MsgsCorrupt, st.MsgsDropped-st.MsgsCorrupt)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.msgs) != len(simGot) {
		t.Fatalf("live delivered %d, sim %d", len(c.msgs), len(simGot))
	}
	for _, m := range c.msgs {
		if seq := m.(*wire.Heartbeat).Seq; !simGot[seq] {
			t.Fatalf("message %d survived the live link and not the simulated one", seq)
		}
	}
}
