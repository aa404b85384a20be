package live

import (
	"sync"
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/wire"
)

// TestFabricExchangeMatrix runs one burst exchange over coalescing on/off x
// inline/sharded egress — the same worker routine either way, called on the
// pump or on two worker goroutines: same-round sends to two destinations
// (hashing to different workers when sharded) must arrive complete and in
// per-destination order; with Coalesce they cost fewer datagrams than
// messages, without it exactly one each and no batches.
func TestFabricExchangeMatrix(t *testing.T) {
	for _, tc := range []struct {
		name     string
		coalesce bool
		shards   int
	}{
		{"coalesce/inline", true, 0},
		{"coalesce/workers=2", true, 2},
		{"plain/inline", false, 0},
		{"plain/workers=2", false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Addrs 1 and 4 hash to different workers under EgressShards=2.
			a := newTestFabric(t, 1)
			c := newTestFabric(t, 4)
			b, err := NewFabric(FabricConfig{Addr: 2, Seed: 2, Coalesce: tc.coalesce, EgressShards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(b.Stop)

			gotA := make(chan uint64, 64)
			gotC := make(chan uint64, 64)
			a.Network().Attach(a.Addr(), func(_ netem.Addr, payload any, _ int) {
				if hb, ok := payload.(*wire.Heartbeat); ok {
					gotA <- hb.Seq
				}
			})
			c.Network().Attach(c.Addr(), func(_ netem.Addr, payload any, _ int) {
				if hb, ok := payload.(*wire.Heartbeat); ok {
					gotC <- hb.Seq
				}
			})
			b.Network().Attach(b.Addr(), func(netem.Addr, any, int) {})
			a.AddRemote(b.Addr(), b.AddrPort())
			c.AddRemote(b.Addr(), b.AddrPort())
			b.AddRemote(a.Addr(), a.AddrPort())
			b.AddRemote(c.Addr(), c.AddrPort())
			a.Start()
			c.Start()
			b.Start()

			const burst = 40
			b.Post(func() {
				for i := uint64(0); i < burst; i++ {
					hb := &wire.Heartbeat{From: 2, Seq: i}
					to := a.Addr()
					if i%2 == 1 {
						to = c.Addr()
					}
					b.Network().Send(b.Addr(), to, hb, hb.Size())
				}
			})
			for i := uint64(0); i < burst; i++ {
				ch := gotA
				if i%2 == 1 {
					ch = gotC
				}
				select {
				case s := <-ch:
					if s != i {
						t.Fatalf("heartbeat %d arrived out of order (seq %d)", i, s)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("heartbeat %d never arrived", i)
				}
			}
			waitFor(t, func() bool { return b.FStats().EgressMsgs == burst })
			st := b.FStats()
			switch {
			case !tc.coalesce && st.EgressBatches != 0:
				t.Fatalf("uncoalesced fabric counted %d batches", st.EgressBatches)
			case tc.coalesce && st.EgressBatches == 0:
				t.Fatal("coalescing fabric sent no batches")
			case tc.coalesce && st.EgressBatches >= st.EgressMsgs:
				t.Fatalf("EgressBatches=%d not below EgressMsgs=%d: nothing was coalesced",
					st.EgressBatches, st.EgressMsgs)
			}
		})
	}
}

// TestFabricStatsConcurrent hammers FStats, Node.Stats and
// RegisterMetrics-style reads from many goroutines while the fabric moves
// traffic with sharded egress — the fabric and the transport counters are
// atomics now, and the race detector holds them to that.
func TestFabricStatsConcurrent(t *testing.T) {
	a := newTestFabric(t, 1)
	b, err := NewFabric(FabricConfig{Addr: 2, Seed: 2, Coalesce: true, EgressShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)
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
					// The sender's egress workers and the receiver's read
					// loop are bumping these right now.
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

// TestFabricEgressWorkerZeroAllocs pins the send side: a warm egress worker
// coalescing pooled messages to a known peer writes datagrams without
// allocating per message.
func TestFabricEgressWorkerZeroAllocs(t *testing.T) {
	peer := newTestFabric(t, 1)
	f, err := NewFabric(FabricConfig{Addr: 2, Seed: 2, Coalesce: true, EgressShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	f.AddRemote(peer.Addr(), peer.AddrPort())

	// Never started: drive one worker directly on this goroutine, the way
	// its loop would after a hand-off.
	w := f.eworkers[0]
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
