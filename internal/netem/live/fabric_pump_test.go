package live

import (
	"bytes"
	"net/netip"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/sim"
	"swishmem/internal/wire"
)

// TestFabricIdleNoSpin: a started fabric with nothing scheduled and no
// traffic must park on its wake channel instead of polling — the pump runs
// once at Start and then sleeps until signaled.
func TestFabricIdleNoSpin(t *testing.T) {
	f := newTestFabric(t, 9)
	f.Start()
	time.Sleep(250 * time.Millisecond)
	if n := f.FStats().PumpRounds; n > 5 {
		t.Fatalf("idle fabric ran %d pump rounds in 250ms, want <= 5 (pump is spinning)", n)
	}
}

// TestFabricTimerWakesCountDeadlineRounds: TimerWakes counts the rounds an
// engine deadline started and nothing else — ten posts start ten rounds and
// no timer wake, and three deadlines start at most three (a deadline that
// came due while another round ran needs none of its own).
func TestFabricTimerWakesCountDeadlineRounds(t *testing.T) {
	f := newTestFabric(t, 9)
	var fired atomic.Int32
	for i := 1; i <= 3; i++ {
		f.Engine().Schedule(sim.Time(time.Duration(i)*30*time.Millisecond), func() { fired.Add(1) })
	}
	f.Start()
	for i := 0; i < 10; i++ {
		f.Call(func() {})
	}
	waitFor(t, func() bool { return fired.Load() == 3 })
	st := f.FStats()
	if st.TimerWakes < 1 || st.TimerWakes > 3 {
		t.Fatalf("TimerWakes = %d for three engine deadlines, want 1..3", st.TimerWakes)
	}
	if woken := st.PumpRounds - st.TimerWakes; woken < 10 || woken > 12 {
		t.Fatalf("%d signal-started rounds for ten posts, want 10 (plus the round at Start)", woken)
	}
}

// TestFabricIngressArrivalOrder feeds datagrams from interleaved senders
// straight into the raw handler and checks the system handler observes them
// in exact arrival order. The stream includes a coalesced batch (expands in
// frame order at its slot) and a corrupt datagram (counted, injects nothing,
// never stalls what is queued behind it).
func TestFabricIngressArrivalOrder(t *testing.T) {
	f := newTestFabric(t, 1)

	type rx struct {
		from netem.Addr
		seq  uint64
	}
	got := make(chan rx, 256)
	f.SetSystemHandler(func(from netem.Addr, msg wire.Msg) bool {
		hb := msg.(*wire.Heartbeat)
		got <- rx{from: from, seq: hb.Seq}
		return true
	})
	f.Start()

	src := netip.MustParseAddrPort("127.0.0.1:19")
	var want []rx
	seq := uint64(0)
	send := func(from netem.Addr, payload []byte) {
		f.onDatagram(from, src, payload)
	}
	one := func(from netem.Addr) {
		send(from, wire.Marshal(&wire.Heartbeat{From: uint16(from), Seq: seq}))
		want = append(want, rx{from: from, seq: seq})
		seq++
	}

	senders := []netem.Addr{2, 3, 4, 5, 6}
	for i := 0; i < 40; i++ {
		one(senders[i%len(senders)])
	}
	// A corrupt datagram mid-stream: consumes its arrival slot, injects
	// nothing, and must not stall everything queued behind it.
	send(3, []byte{0xff, 0xee, 0xdd})
	// A coalesced batch from one sender: expands in frame order.
	b := &wire.Batch{}
	for k := 0; k < 3; k++ {
		b.Msgs = append(b.Msgs, &wire.Heartbeat{From: 4, Seq: seq})
		want = append(want, rx{from: 4, seq: seq})
		seq++
	}
	send(4, wire.Marshal(b))
	for i := 0; i < 40; i++ {
		one(senders[(i*3)%len(senders)])
	}

	for i, w := range want {
		select {
		case g := <-got:
			if g != w {
				t.Fatalf("message %d: got from=%d seq=%d, want from=%d seq=%d",
					i, g.from, g.seq, w.from, w.seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d (of %d) never arrived", i, len(want))
		}
	}
	waitFor(t, func() bool { return f.FStats().DecodeErr == 1 })
	if n := f.FStats().SystemConsumed; n != uint64(len(want)) {
		t.Fatalf("SystemConsumed = %d, want %d", n, len(want))
	}
}

// TestFabricCoalesceOverflow forces the coalesceLimit flush path: a burst
// whose frames cannot share one datagram must split across several, all of
// which arrive complete and in order.
func TestFabricCoalesceOverflow(t *testing.T) {
	a := newTestFabric(t, 1)
	b, err := NewFabric(FabricConfig{Addr: 2, Seed: 2, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)

	got := make(chan *wire.Write, 64)
	a.Network().Attach(a.Addr(), func(_ netem.Addr, payload any, _ int) {
		if w, ok := payload.(*wire.Write); ok {
			// The view aliases its set; keep an owned copy.
			got <- &wire.Write{Seq: w.Seq, Value: append([]byte(nil), w.Value...)}
		}
	})
	b.Network().Attach(b.Addr(), func(netem.Addr, any, int) {})
	a.AddRemote(b.Addr(), b.AddrPort())
	b.AddRemote(a.Addr(), a.AddrPort())
	a.Start()
	b.Start()

	// Two 546-byte frames fit under the 1200-byte limit, a third does not:
	// 8 writes posted in one round cost exactly 4 datagrams.
	const burst = 8
	value := bytes.Repeat([]byte{0xab}, 500)
	b.Post(func() {
		for i := uint64(0); i < burst; i++ {
			w := &wire.Write{Reg: 1, Key: i, Seq: i, Value: value}
			b.Network().Send(b.Addr(), a.Addr(), w, w.Size())
		}
	})
	for i := uint64(0); i < burst; i++ {
		select {
		case w := <-got:
			if w.Seq != i || !bytes.Equal(w.Value, value) {
				t.Fatalf("write %d arrived as seq %d with %d value bytes", i, w.Seq, len(w.Value))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("write %d never arrived", i)
		}
	}
	waitFor(t, func() bool { return b.FStats().EgressBatches == burst/2 })
	if n := b.Node().Stats().Sent; n != burst/2 {
		t.Fatalf("sent %d datagrams, want %d", n, burst/2)
	}
}

// TestFabricInlineEgressStartsNoGoroutines: with EgressShards 0 a running
// fabric is the pump plus the socket reader and nothing else.
func TestFabricInlineEgressStartsNoGoroutines(t *testing.T) {
	f, err := NewFabric(FabricConfig{Addr: 9, Seed: 9, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	f.Start()
	f.Call(func() {}) // the pump is up
	buf := make([]byte, 1<<20)
	var ours []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "netem/live.") && !strings.Contains(g, "testing.tRunner") {
			ours = append(ours, g)
		}
	}
	if len(ours) != 2 {
		t.Fatalf("%d package goroutines running, want 2 (pump + socket reader):\n%s",
			len(ours), strings.Join(ours, "\n\n"))
	}
}

// TestFabricCallAfterStop: once the pump has exited nothing drains the post
// queue, so a late Call must run on its caller instead of blocking forever
// (swishd's /metrics handler racing SIGTERM), and a late Post is dropped and
// counted.
func TestFabricCallAfterStop(t *testing.T) {
	for _, started := range []bool{true, false} {
		f := newTestFabric(t, 9)
		if started {
			f.Start()
		}
		f.Stop()
		ran := make(chan struct{})
		go f.Call(func() { close(ran) })
		select {
		case <-ran:
		case <-time.After(5 * time.Second):
			t.Fatalf("started=%v: Call after Stop never ran", started)
		}
		f.Post(func() { t.Error("Post after Stop ran") })
		if n := f.FStats().PostsDropped; n != 1 {
			t.Fatalf("started=%v: PostsDropped = %d, want 1", started, n)
		}
	}
}
