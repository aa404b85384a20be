package live

import (
	"encoding/binary"
	"hash/crc32"
	"net/netip"
	"sync"
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/wire"
)

// TestCloseConcurrent hammers Close from many goroutines; the sync.Once
// guard must make this safe (the old check-then-close raced to a double
// close panic). Run under -race.
func TestCloseConcurrent(t *testing.T) {
	n, err := Listen(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := n.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := n.Close(); err != nil {
		t.Fatalf("close after close: %v", err)
	}
}

// TestSendZeroAlloc pins the unshaped send path at 0 allocs/op warm
// (DESIGN.md §6 pooling invariants). The peer endpoint is a closed port so
// no receiver goroutine allocates during measurement.
func TestSendZeroAlloc(t *testing.T) {
	sink, err := Listen(99, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dst := sink.AddrPort()
	sink.Close()

	n, err := Listen(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.AddPeerAddrPort(2, dst)

	hb := &wire.Heartbeat{From: 1, Seq: 7}
	for i := 0; i < 64; i++ { // warm the buffer pool
		if err := n.Send(2, hb); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		_ = n.Send(2, hb)
	})
	if allocs > 0 {
		t.Fatalf("Send allocates %.2f/op, want 0", allocs)
	}
}

// TestReceiveZeroAlloc pins the raw receive path at 0 allocs/op warm: with
// a RawHandler installed, processDatagram never decodes and never copies.
func TestReceiveZeroAlloc(t *testing.T) {
	n, err := Listen(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	got := 0
	n.SetRawHandler(func(from netem.Addr, _ netip.AddrPort, payload []byte) {
		got += len(payload)
	})

	frame := []byte{0, 2, 0, 0, 0, 0} // sender header: addr 2 + CRC slot
	frame = (&wire.Heartbeat{From: 2, Seq: 9}).Marshal(frame)
	binary.BigEndian.PutUint32(frame[2:frameHdr], crc32.Checksum(frame[frameHdr:], crcTab))
	src := n.AddrPort()
	for i := 0; i < 64; i++ {
		n.processDatagram(src, frame)
	}
	allocs := testing.AllocsPerRun(200, func() {
		n.processDatagram(src, frame)
	})
	if allocs > 0 {
		t.Fatalf("processDatagram allocates %.2f/op, want 0", allocs)
	}
	if got == 0 {
		t.Fatal("raw handler never ran")
	}
}

// TestSendShapingDupAndLoss verifies deterministic send-side shaping: full
// duplication doubles the datagram count, full loss transmits nothing.
func TestSendShapingDupAndLoss(t *testing.T) {
	recvd := make(chan wire.Msg, 64)
	rx, err := Listen(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	rx.SetRawHandler(decoded(func(_ netem.Addr, msg wire.Msg) { recvd <- msg }))

	tx, err := Listen(1, Options{Seed: 5, Profile: netem.LinkProfile{DupRate: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	tx.AddPeerAddrPort(2, rx.AddrPort())

	const N = 10
	for i := 0; i < N; i++ {
		if err := tx.Send(2, &wire.Heartbeat{From: 1, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(2 * time.Second)
	for seen := 0; seen < 2*N; seen++ {
		select {
		case <-recvd:
		case <-deadline:
			t.Fatalf("saw %d datagrams, want %d (every send duplicated)", seen, 2*N)
		}
	}
	st := tx.Stats()
	if st.TxDup != N || st.Sent != 2*N {
		t.Fatalf("stats = %+v, want TxDup=%d Sent=%d", st, N, 2*N)
	}

	tx.SetProfile(netem.LinkProfile{LossRate: 1})
	for i := 0; i < N; i++ {
		if err := tx.Send(2, &wire.Heartbeat{From: 1, Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st = tx.Stats()
	if st.TxDropped != N || st.Sent != 2*N {
		t.Fatalf("after loss: stats = %+v, want TxDropped=%d and no new sends", st, N)
	}
}

// TestSendShapingDelay verifies latency shaping goes through the delayed
// path and still arrives.
func TestSendShapingDelay(t *testing.T) {
	recvd := make(chan wire.Msg, 8)
	rx, err := Listen(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	rx.SetRawHandler(decoded(func(_ netem.Addr, msg wire.Msg) { recvd <- msg }))

	tx, err := Listen(1, Options{Profile: netem.LinkProfile{Latency: 20 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	tx.AddPeerAddrPort(2, rx.AddrPort())

	start := time.Now()
	if err := tx.Send(2, &wire.Heartbeat{From: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-recvd:
	case <-time.After(2 * time.Second):
		t.Fatal("delayed datagram never arrived")
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("arrived after %v, want >= ~20ms latency", elapsed)
	}
	if st := tx.Stats(); st.TxDelayed != 1 {
		t.Fatalf("stats = %+v, want TxDelayed=1", st)
	}
}

// TestPartition verifies both directions of partition groups, and healing.
func TestPartition(t *testing.T) {
	recvd := make(chan wire.Msg, 8)
	a, err := Listen(1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetRawHandler(decoded(func(_ netem.Addr, msg wire.Msg) { recvd <- msg }))
	mesh([]*Node{a, b})

	// Send-side: a in group 1, knows b is in group 2 -> drop at a.
	a.SetPartition(1)
	a.SetPeerGroup(2, 2)
	if err := a.Send(2, &wire.Heartbeat{From: 1, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.PartDropped != 1 || st.Sent != 0 {
		t.Fatalf("send-side: stats = %+v, want PartDropped=1 Sent=0", st)
	}

	// Receive-side: a healed, b partitioned from a -> drop at b.
	a.HealPartition()
	b.SetPartition(2)
	b.SetPeerGroup(1, 1)
	if err := a.Send(2, &wire.Heartbeat{From: 1, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return b.Stats().PartDropped == 1 })

	// Healed: traffic flows again.
	b.HealPartition()
	if err := a.Send(2, &wire.Heartbeat{From: 1, Seq: 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-recvd:
	case <-time.After(2 * time.Second):
		t.Fatal("message after heal never arrived")
	}
}
