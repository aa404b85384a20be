package live

import (
	"sync"
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/wire"
)

// TestFabricStatsConcurrent hammers FStats, Node.Stats and
// RegisterMetrics-style reads from many goroutines while the fabric moves
// traffic through its egress worker — the fabric and the transport counters
// are atomics, and the race detector holds them to that.
func TestFabricStatsConcurrent(t *testing.T) {
	a := newTestFabric(t, 1)
	b := newTestFabric(t, 2)
	a.Network().Attach(a.Addr(), func(netem.Addr, any, int) {})
	b.Network().Attach(b.Addr(), func(netem.Addr, any, int) {})
	a.AddRemote(b.Addr(), b.AddrPort())
	b.AddRemote(a.Addr(), a.AddrPort())
	a.Start()
	b.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink uint64
			for {
				select {
				case <-stop:
					_ = sink
					return
				default:
					st := b.FStats()
					sink += st.EgressMsgs + st.PumpRounds + st.Posts
					// The sender's egress worker and the receiver's pump
					// are bumping these right now.
					tx, rx := b.Node().Stats(), a.Node().Stats()
					sink += tx.Sent + tx.BytesSent + rx.Received + rx.BytesReceived
				}
			}
		}()
	}
	for round := 0; round < 20; round++ {
		b.Post(func() {
			for i := uint64(0); i < 16; i++ {
				hb := &wire.Heartbeat{From: 2, Seq: i}
				b.Network().Send(b.Addr(), a.Addr(), hb, hb.Size())
			}
		})
		time.Sleep(2 * time.Millisecond)
	}
	waitFor(t, func() bool { return b.FStats().EgressMsgs == 20*16 })
	// Every datagram b's socket took, a's read loop counted, byte for byte.
	waitFor(t, func() bool {
		tx, rx := b.Node().Stats(), a.Node().Stats()
		return tx.Sent > 0 && rx.Received == tx.Sent && rx.BytesReceived == tx.BytesSent
	})
	close(stop)
	wg.Wait()
}

// TestFabricDeliverZeroAllocs pins the zero-copy receive path: once warm, a
// full batch datagram flows through deliver — view decode, system-handler
// consume, reference drain, set recycle — with zero allocations.
func TestFabricDeliverZeroAllocs(t *testing.T) {
	f := newTestFabric(t, 7) // never started: deliver runs on this goroutine
	f.SetSystemHandler(func(netem.Addr, wire.Msg) bool { return true })
	payload := wire.Marshal(&wire.Batch{Msgs: []wire.Msg{
		&wire.Write{Reg: 1, Key: 9, Seq: 4, WriteID: 7, Writer: 2, Epoch: 1, Value: []byte("batched!")},
		&wire.WriteAck{Reg: 1, Key: 9, Seq: 4, WriteID: 7, Writer: 2, Epoch: 1},
		&wire.EWOUpdate{Reg: 2, From: 1, Sync: true, Entries: []wire.EWOEntry{
			{Key: 3, Value: []byte("zig")}, {Key: 4, Value: []byte("zag")}}},
		&wire.Heartbeat{From: 1, Seq: 1},
	}})
	cycle := func() { f.deliver(3, payload) }
	cycle() // warm the view-set pool
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("allocs per delivered datagram = %v, want 0", n)
	}
	if errs := f.FStats().DecodeErr; errs != 0 {
		t.Fatalf("decode errors = %d", errs)
	}
}

// TestFabricPollZeroAllocs pins the receive path end to end: once warm, a
// batch datagram read off the socket by Node.Poll goes through the frame
// checks, the sender lookup and deliver with zero allocations.
func TestFabricPollZeroAllocs(t *testing.T) {
	f := newTestFabric(t, 7) // never started: Poll runs on this goroutine
	f.SetSystemHandler(func(netem.Addr, wire.Msg) bool { return true })
	tx, err := Listen(3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	tx.AddPeerAddrPort(f.Addr(), f.AddrPort())
	payload := wire.Marshal(&wire.Batch{Msgs: []wire.Msg{
		&wire.Write{Reg: 1, Key: 9, Seq: 4, WriteID: 7, Writer: 2, Epoch: 1, Value: []byte("batched!")},
		&wire.WriteAck{Reg: 1, Key: 9, Seq: 4, WriteID: 7, Writer: 2, Epoch: 1},
		&wire.Heartbeat{From: 3, Seq: 1},
	}})
	cycles := uint64(0)
	cycle := func() {
		cycles++
		if err := tx.SendEncoded(f.Addr(), payload); err != nil {
			t.Fatal(err)
		}
		if got, err := f.node.Poll(true); !got {
			t.Fatalf("Poll read nothing: %v", err)
		}
	}
	cycle() // warm the view-set pool and the peer table
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("allocs per polled datagram = %v, want 0", n)
	}
	if st := f.FStats(); st.DecodeErr != 0 || st.SystemConsumed != 3*cycles {
		t.Fatalf("decode errors = %d, consumed = %d, want 0 and %d", st.DecodeErr, st.SystemConsumed, 3*cycles)
	}
}

// TestFabricEgressWorkerZeroAllocs pins the send side: a warm egress worker
// coalescing pooled messages to a known peer writes datagrams without
// allocating per message.
func TestFabricEgressWorkerZeroAllocs(t *testing.T) {
	peer := newTestFabric(t, 1)
	f := newTestFabric(t, 2)
	f.AddRemote(peer.Addr(), peer.AddrPort())

	// Never started: drive the worker directly on this goroutine, the way
	// its loop would after a hand-off.
	w := f.eg
	var free []*wire.Heartbeat
	freeFn := func(h *wire.Heartbeat) { free = append(free, h) }
	for i := 0; i < 4; i++ {
		h := &wire.Heartbeat{}
		h.EnablePool(freeFn)
		free = append(free, h)
	}
	cycle := func() {
		for i := 0; i < 4; i++ {
			h := free[len(free)-1]
			free = free[:len(free)-1]
			h.From, h.Seq = 2, uint64(i)
			h.Ref()
			w.sendOne(peer.Addr(), h)
			w.rel = append(w.rel, h)
		}
		w.flushBatches()
		// The pump releases via collectEgressDone; the free list here is
		// test-owned, so release inline (back through freeFn).
		for i, m := range w.rel {
			m.(*wire.Heartbeat).Release()
			w.rel[i] = nil
		}
		w.rel = w.rel[:0]
	}
	cycle() // warm builders and scratch
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("allocs per worker send cycle = %v, want 0", n)
	}
	if errs := f.FStats().EgressErrs; errs != 0 {
		t.Fatalf("egress errors = %d", errs)
	}
}
