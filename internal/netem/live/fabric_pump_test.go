package live

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swishmem/internal/chain"
	"swishmem/internal/netem"
	"swishmem/internal/obs"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/wire"
)

// TestFabricIdleNoSpin: a started fabric with nothing scheduled and no
// traffic must park in its socket read instead of polling — the pump runs
// once at Start and then sleeps until a datagram or a kick.
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

// TestFabricIngressArrivalOrder sends datagrams from interleaved senders to
// a running fabric's socket and checks the system handler observes them in
// exact arrival order across the pump's rounds. The stream includes a
// coalesced batch (expands in frame order at its slot) and a corrupt datagram
// (counted, injects nothing, never stalls what is queued behind it).
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

	senders := []netem.Addr{2, 3, 4, 5, 6}
	nodes := map[netem.Addr]*Node{}
	for _, a := range senders {
		n, err := Listen(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		n.AddPeerAddrPort(f.Addr(), f.AddrPort())
		nodes[a] = n
	}
	var want []rx
	seq := uint64(0)
	send := func(from netem.Addr, payload []byte) {
		if err := nodes[from].SendEncoded(f.Addr(), payload); err != nil {
			t.Fatal(err)
		}
	}
	one := func(from netem.Addr) {
		send(from, wire.Marshal(&wire.Heartbeat{From: uint16(from), Seq: seq}))
		want = append(want, rx{from: from, seq: seq})
		seq++
	}

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
	b := newTestFabric(t, 2)

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

// packageGoroutines lists the running goroutines in this package's code,
// the test's own excepted.
func packageGoroutines() []string {
	buf := make([]byte, 1<<20)
	var ours []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "netem/live.") && !strings.Contains(g, "testing.tRunner") {
			ours = append(ours, g)
		}
	}
	return ours
}

// TestFabricStopLeavesNoGoroutines: a running fabric is two goroutines, the
// pump — which reads its own socket — and the egress worker; after Stop
// neither is left, whether the fabric was started or not.
func TestFabricStopLeavesNoGoroutines(t *testing.T) {
	for _, started := range []bool{true, false} {
		f := newTestFabric(t, 9)
		if started {
			f.Start()
			f.Call(func() {}) // the pump is up
			if ours := packageGoroutines(); len(ours) != 2 {
				t.Fatalf("%d package goroutines running, want 2 (the pump and the egress worker):\n%s",
					len(ours), strings.Join(ours, "\n\n"))
			}
		}
		f.Stop()
		// Stop returns once both have run their last statement; give them
		// the moment it takes to exit.
		ours := packageGoroutines()
		for deadline := time.Now().Add(time.Second); len(ours) > 0 && time.Now().Before(deadline); ours = packageGoroutines() {
			time.Sleep(time.Millisecond)
		}
		if len(ours) != 0 {
			t.Fatalf("started=%v: %d package goroutines left after Stop:\n%s",
				started, len(ours), strings.Join(ours, "\n\n"))
		}
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

// isParked reports whether the pump is waiting in its socket read.
func (f *Fabric) isParked() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.parked
}

// TestFabricPostWakesParkedPump: a pump parked with no engine deadline waits
// in a socket read that only a datagram or a kick ends. Eight goroutines
// hammering Post and Call must never lose a kick — every Call returns, every
// post runs — and Stop while parked must return at once. Run under -race.
func TestFabricPostWakesParkedPump(t *testing.T) {
	f := newTestFabric(t, 9) // nothing scheduled: no read deadline
	f.Start()
	waitFor(t, f.isParked)

	const workers, each = 8, 500
	var ran atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i%2 == 0 {
					f.Post(func() { ran.Add(1) })
				} else {
					f.Call(func() { ran.Add(1) })
				}
			}
		}()
	}
	returned := make(chan struct{})
	go func() {
		wg.Wait()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("a Call never returned: a kick was lost")
	}
	waitFor(t, func() bool { return ran.Load() == workers*each })

	waitFor(t, f.isParked)
	stopped := make(chan struct{})
	go func() {
		f.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("Stop of a parked pump did not return within 1s")
	}
}

// TestFabricRoundReadsBeforeItsTimers: a round reads what queued in the
// socket before it runs the timers that came due meanwhile. A writer's ack
// waits in the socket while the clock jumps 300 ms, past the write's 100 ms
// retry; the round must commit the write, and the retry must not fire.
func TestFabricRoundReadsBeforeItsTimers(t *testing.T) {
	f := newTestFabric(t, 1) // never started: the test runs its pump rounds
	sw := newTestSwitch(f)
	cn, err := chain.NewNode(sw, chain.Config{Reg: 1, Capacity: 4, ValueWidth: 8, RetryTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cn.SetChain(wire.ChainConfig{Epoch: 1, Members: []uint16{2}}) // a remote head and tail
	sw.SetMsgHandler(func(_ *pisa.Switch, from netem.Addr, msg wire.Msg) { cn.Handle(from, msg) })

	tail := listen(t, 2, Options{})
	writes := make(chan wire.Write, 1)
	tail.SetRawHandler(decoded(func(_ netem.Addr, msg wire.Msg) {
		if w, ok := msg.(*wire.Write); ok {
			writes <- *w
		}
	}))
	tail.AddPeerAddrPort(1, f.AddrPort())
	f.AddRemote(2, tail.AddrPort())

	committed := false
	f.startWall = time.Now()
	cn.Write(5, []byte("12345678"), func(ok bool) { committed = ok })
	f.round() // submit: the write leaves for the tail, the retry is armed
	var w wire.Write
	select {
	case w = <-writes:
	case <-time.After(5 * time.Second):
		t.Fatal("the write never reached the tail")
	}
	if err := tail.Send(1, &wire.WriteAck{Reg: 1, Key: w.Key, Seq: 1, WriteID: w.WriteID, Writer: 1, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	f.startWall = f.startWall.Add(-300 * time.Millisecond) // a whole-process stall
	f.round()
	if !committed {
		t.Fatal("the round did not commit the write its queued ack acknowledges")
	}
	if n := cn.Counters().Retries.Value(); n != 0 {
		t.Fatalf("%d retries: the retry timer fired before the round read the ack", n)
	}
}

// TestFabricTimerLateReported: a fabric with a 1 ms engine timer reports one
// live.fabric.timer_late sample per timer wake.
func TestFabricTimerLateReported(t *testing.T) {
	f := newTestFabric(t, 9)
	f.Engine().Every(time.Millisecond, func() {})
	reg := obs.NewRegistry()
	f.RegisterMetrics(reg, "")
	f.Start()
	waitFor(t, func() bool {
		var samples float64
		var wakes uint64
		f.Call(func() {
			samples, _ = reg.Snapshot().Value("live.fabric.timer_late", "")
			wakes = f.FStats().TimerWakes
		})
		if samples != float64(wakes) {
			t.Fatalf("%v timer_late samples for %d timer wakes", samples, wakes)
		}
		return samples > 0
	})
}
