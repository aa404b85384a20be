package live

import (
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/wire"
)

func newTestFabric(t *testing.T, addr netem.Addr) *Fabric {
	t.Helper()
	f, err := NewFabric(FabricConfig{Addr: addr, Seed: int64(addr)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

// TestFabricExchange wires two fabrics together and routes a protocol
// message from B's local network through the relay, over UDP, into a
// handler attached on A's local network — the full live data path.
func TestFabricExchange(t *testing.T) {
	a := newTestFabric(t, 1)
	b := newTestFabric(t, 2)

	got := make(chan wire.Msg, 1)
	a.Network().Attach(a.Addr(), func(_ netem.Addr, payload any, _ int) {
		if m, ok := payload.(wire.Msg); ok {
			select {
			case got <- m:
			default:
			}
		}
	})
	// The sender's own address must be attached locally for netem.Send.
	b.Network().Attach(b.Addr(), func(netem.Addr, any, int) {})
	a.AddRemote(b.Addr(), b.AddrPort())
	b.AddRemote(a.Addr(), a.AddrPort())
	a.Start()
	b.Start()

	b.Post(func() {
		hb := &wire.Heartbeat{From: 2, Seq: 77}
		b.Network().Send(b.Addr(), a.Addr(), hb, hb.Size())
	})
	select {
	case m := <-got:
		hb, ok := m.(*wire.Heartbeat)
		if !ok || hb.From != 2 || hb.Seq != 77 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never crossed the fabric")
	}
	// Counters are bumped just after the socket write; wait rather than race.
	waitFor(t, func() bool { return a.FStats().Injected > 0 })
	waitFor(t, func() bool { return b.FStats().EgressMsgs > 0 })
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
