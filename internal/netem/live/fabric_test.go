package live

import (
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/wire"
)

func newTestFabric(t testing.TB, addr netem.Addr) *Fabric {
	t.Helper()
	f, err := NewFabric(FabricConfig{Addr: addr, Seed: int64(addr)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

// round runs one pump round on a fabric that was never started, then the
// egress worker's drain and the pump's collection of what it finished with:
// the round's sends are on the wire and their payloads released on return.
func (f *Fabric) round() {
	f.pump(false)
	f.eg.drain()
	f.collectEgressDone()
}

// TestFabricExchange wires three fabrics together and routes protocol
// messages from B's local network through the relays, over UDP, into
// handlers attached on A's and C's local networks — the full live data
// path (see exchangeBurst).
func TestFabricExchange(t *testing.T) {
	exchangeBurst(t, FabricConfig{Addr: 2, Seed: 2})
}

// TestFabricExchangeMatrix runs the same burst exchange from senders built
// with the deprecated egress knobs set: coalescing with inline egress, and
// coalescing on two workers (what the bench probe asks for). Both are
// ignored, so each sender must behave as the default one.
func TestFabricExchangeMatrix(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"coalesce/inline", 0},
		{"coalesce/workers=2", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exchangeBurst(t, FabricConfig{Addr: 2, Seed: 2, Coalesce: true, EgressShards: tc.shards})
		})
	}
}

// exchangeBurst starts fabrics A (addr 1) and C (addr 4) and a sender B
// built from bcfg, then has B send one round of heartbeats interleaved
// between A and C. Each must arrive complete and in per-destination order,
// in fewer datagrams than messages.
func exchangeBurst(t *testing.T, bcfg FabricConfig) {
	t.Helper()
	a := newTestFabric(t, 1)
	c := newTestFabric(t, 4)
	b, err := NewFabric(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)

	gotA := make(chan *wire.Heartbeat, 64)
	gotC := make(chan *wire.Heartbeat, 64)
	for _, x := range []struct {
		f   *Fabric
		got chan *wire.Heartbeat
	}{{a, gotA}, {c, gotC}} {
		x.f.Network().Attach(x.f.Addr(), func(_ netem.Addr, payload any, _ int) {
			if hb, ok := payload.(*wire.Heartbeat); ok {
				x.got <- &wire.Heartbeat{From: hb.From, Seq: hb.Seq}
			}
		})
		x.f.AddRemote(b.Addr(), b.AddrPort())
		b.AddRemote(x.f.Addr(), x.f.AddrPort())
		x.f.Start()
	}
	// The sender's own address must be attached locally for netem.Send.
	b.Network().Attach(b.Addr(), func(netem.Addr, any, int) {})
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
		case hb := <-ch:
			if hb.From != 2 || hb.Seq != i {
				t.Fatalf("heartbeat %d arrived as %+v", i, hb)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("heartbeat %d never crossed the fabric", i)
		}
	}
	// Counters are bumped just after the socket write; wait rather than race.
	waitFor(t, func() bool { return a.FStats().Injected == burst/2 && c.FStats().Injected == burst/2 })
	waitFor(t, func() bool { return b.FStats().EgressMsgs == burst })
	switch st := b.FStats(); {
	case st.EgressBatches == 0:
		t.Fatal("the fabric sent no batches")
	case st.EgressBatches >= st.EgressMsgs:
		t.Fatalf("EgressBatches=%d not below EgressMsgs=%d: nothing was coalesced",
			st.EgressBatches, st.EgressMsgs)
	}
}

// startDirectory starts a "controller" fabric whose system handler answers
// every Hello with a PeerList naming a third (started) fabric, and returns
// the controller and the channel the Hello senders are reported on.
func startDirectory(t *testing.T) (*Fabric, <-chan uint16) {
	ctrl := newTestFabric(t, 0xfffe)
	third := newTestFabric(t, 3)

	hellos := make(chan uint16, 16) // more than any test's Hello count; overflow is dropped
	ctrl.SetSystemHandler(func(from netem.Addr, msg wire.Msg) bool {
		if h, ok := msg.(*wire.Hello); ok {
			select {
			case hellos <- h.From:
			default:
			}
			ep, _ := ctrl.Node().Peer(from)
			tp := third.AddrPort()
			ctrl.AddRemote(from, ep)
			ctrl.Node().Send(from, &wire.PeerList{Epoch: 1, Peers: []wire.PeerEntry{
				{Addr: 3, IP: tp.Addr().Unmap().As4(), Port: tp.Port()},
			}})
		}
		return true
	})
	ctrl.Start()
	third.Start()
	return ctrl, hellos
}

// TestFabricBootstrap has a member fabric Hello the directory; the member
// must apply the PeerList, learn the third peer, and stop sending Hellos.
func TestFabricBootstrap(t *testing.T) {
	ctrl, hellos := startDirectory(t)
	member := newTestFabric(t, 1)

	member.Bootstrap(0xfffe, ctrl.AddrPort(), 5*time.Millisecond)
	member.Start()
	select {
	case from := <-hellos:
		if from != 1 {
			t.Fatalf("hello from %d, want 1", from)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("controller never saw a Hello")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !member.Bootstrapped() {
		if time.Now().After(deadline) {
			t.Fatal("member never applied the PeerList")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := member.Node().Peer(3); !ok {
		t.Fatal("member did not learn peer 3 from the PeerList")
	}
}

// TestFabricBootstrapFirstHelloAtStart: the first Hello leaves when the
// fabric starts, not one period later — with a 500 ms period the member is
// bootstrapped within 100 ms of Start.
func TestFabricBootstrapFirstHelloAtStart(t *testing.T) {
	ctrl, _ := startDirectory(t)
	member := newTestFabric(t, 1)

	member.Bootstrap(0xfffe, ctrl.AddrPort(), 500*time.Millisecond)
	start := time.Now()
	member.Start()
	waitFor(t, member.Bootstrapped)
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("member bootstrapped %v after Start, want under 100 ms: the first Hello waited for the period", d)
	}
}

// TestMulticast: a multicast issued on a fabric's local network — the path
// an EWO update takes — crosses real sockets to every group member but the
// sender.
func TestMulticast(t *testing.T) {
	group := []netem.Addr{1, 2, 3, 4}
	fabs := make([]*Fabric, len(group))
	got := make([]chan uint64, len(group))
	for i, addr := range group {
		f, ch := newTestFabric(t, addr), make(chan uint64, 1)
		f.Network().Attach(addr, func(_ netem.Addr, payload any, _ int) {
			if hb, ok := payload.(*wire.Heartbeat); ok {
				ch <- hb.Seq
			}
		})
		fabs[i], got[i] = f, ch
	}
	for _, a := range fabs {
		for _, b := range fabs {
			if a != b {
				a.AddRemote(b.Addr(), b.AddrPort())
			}
		}
	}
	for _, f := range fabs {
		f.Start()
	}
	fabs[0].Post(func() {
		hb := &wire.Heartbeat{From: 1, Seq: 5}
		fabs[0].Network().Multicast(1, group, hb, hb.Size())
	})
	for i := 1; i < len(group); i++ {
		select {
		case seq := <-got[i]:
			if seq != 5 {
				t.Fatalf("member %d got seq %d, want 5", group[i], seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("multicast never reached member %d", group[i])
		}
	}
	select {
	case <-got[0]:
		t.Fatal("multicast delivered to sender")
	default:
	}
}
