package live

import (
	"net/netip"
	"testing"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/obs"
	"swishmem/internal/pisa"
	"swishmem/internal/wire"
)

// The fabric's local network delivers in the Send call (netem.NewLocal).
// These tests hold what that must not change: no handler is re-entered, a
// message nobody can take is counted and its pooled payload given back, and
// a relay's messages leave in send order.

// heartbeatPool hands out pooled heartbeats and counts the ones at large.
type heartbeatPool struct {
	free []*wire.Heartbeat
	out  int
}

func (p *heartbeatPool) get(from netem.Addr, seq uint64) *wire.Heartbeat {
	var hb *wire.Heartbeat
	if n := len(p.free); n > 0 {
		hb, p.free = p.free[n-1], p.free[:n-1]
	} else {
		hb = &wire.Heartbeat{}
		hb.EnablePool(func(h *wire.Heartbeat) { p.free = append(p.free, h); p.out-- })
	}
	p.out++
	hb.From, hb.Seq = uint16(from), seq
	hb.Ref()
	return hb
}

// newTestSwitch attaches a switch at host timing to an unstarted fabric; the
// test drives the fabric's engine itself.
func newTestSwitch(f *Fabric) *pisa.Switch {
	return pisa.New(f.Engine(), f.Network(), pisa.Config{Addr: f.Addr(), PipelineLatency: 1, CtrlLatency: 1, CtrlOpsPerSec: 1e9})
}

// TestFabricSelfSendIsNotReentered: a handler that sends to its own switch
// address (a writer that is its own chain head) gets that message after it
// has returned, as one more pipeline task — delivery in the call reaches
// pisa's receive, which only claims a slot — and every hop is one engine
// event.
func TestFabricSelfSendIsNotReentered(t *testing.T) {
	f := newTestFabric(t, 1)
	sw := newTestSwitch(f)
	const hops = 4
	depth, handled := 0, []uint64{}
	sw.SetMsgHandler(func(sw *pisa.Switch, from netem.Addr, msg wire.Msg) {
		if depth++; depth > 1 {
			t.Errorf("handler re-entered at depth %d", depth)
		}
		hb := msg.(*wire.Heartbeat)
		handled = append(handled, hb.Seq)
		if hb.Seq+1 < hops {
			sw.Send(sw.Addr(), &wire.Heartbeat{From: 1, Seq: hb.Seq + 1})
			if got := len(handled); got != int(hb.Seq)+1 {
				t.Errorf("a self-send ran the handler before its sender returned (%d handled)", got)
			}
		}
		depth--
	})
	f.deliver(2, wire.Marshal(&wire.Heartbeat{From: 2, Seq: 0}))
	if len(handled) != 0 || f.Engine().Pending() != 1 {
		t.Fatalf("after the inject: %d handled, %d events pending, want the one pipeline task", len(handled), f.Engine().Pending())
	}
	if ran := f.Engine().Run(); ran != hops {
		t.Fatalf("%d engine events for %d hops, want one each", ran, hops)
	}
	if len(handled) != hops || handled[hops-1] != hops-1 {
		t.Fatalf("handled %v, want 0..%d in order", handled, hops-1)
	}
}

// TestFabricLocalDropCountsAndReleases: a message for a failed switch, and
// one for an address with no relay, is dropped in the call — counted in the
// local network's MsgsDropped, which live.fabric.local_dropped exports — and
// its pooled payload is back in its pool when the send returns.
func TestFabricLocalDropCountsAndReleases(t *testing.T) {
	f := newTestFabric(t, 1)
	sw := newTestSwitch(f)
	sw.SetMsgHandler(func(*pisa.Switch, netem.Addr, wire.Msg) {})
	reg := obs.NewRegistry()
	f.RegisterMetrics(reg, "")
	localDropped := func() float64 {
		for _, s := range reg.Snapshot().Samples {
			if s.Name == "live.fabric.local_dropped" {
				return s.Value
			}
		}
		t.Fatal("live.fabric.local_dropped is not exported")
		return 0
	}

	var pool heartbeatPool
	hb := pool.get(1, 1)
	sw.Send(9, hb) // nobody at 9: no relay was ever attached
	hb.Release()
	if pool.out != 0 || localDropped() != 1 {
		t.Fatalf("send to an unknown address: %d payloads at large, local_dropped %v, want 0 and 1", pool.out, localDropped())
	}

	// An inbound message for a switch that has failed: the view it was
	// decoded into goes back to the fabric's pool with the datagram's walk.
	sw.Fail()
	f.deliver(2, wire.Marshal(&wire.Heartbeat{From: 2, Seq: 5}))
	if len(f.viewFree) != 1 || localDropped() != 2 {
		t.Fatalf("inject to a failed switch: %d view sets home, local_dropped %v, want 1 and 2", len(f.viewFree), localDropped())
	}
	if f.Engine().Pending() != 0 {
		t.Fatalf("%d events queued by two dropped messages", f.Engine().Pending())
	}
}

// TestFabricPostedSendBeforeItsRelay pins the one ordering delivery in the
// call moves: a Post-ed closure that sends straight to a peer whose relay an
// inbound PeerList attaches later in the same pump round. The queued network
// delivered it at the end of the instant, relay in place; now it is dropped
// on the spot, counted, its payload released — and the sender's retry, one
// round later, goes out.
func TestFabricPostedSendBeforeItsRelay(t *testing.T) {
	const ctrl = netem.Addr(0xfffe)
	peer := newTestFabric(t, 3)
	got := make(chan uint64, 2)
	peer.Network().Attach(peer.Addr(), func(_ netem.Addr, payload any, _ int) {
		got <- payload.(*wire.Heartbeat).Seq
	})
	peer.Start()

	f := newTestFabric(t, 1) // never started: the test runs its pump rounds
	f.Network().Attach(f.Addr(), func(netem.Addr, any, int) {})
	f.bootCtrl, f.startWall = ctrl, time.Now()
	var pool heartbeatPool
	send := func(seq uint64) func() {
		return func() {
			hb := pool.get(1, seq)
			f.Network().Send(f.Addr(), peer.Addr(), hb, hb.Size())
			hb.Release()
		}
	}
	ep := peer.AddrPort()
	f.Post(send(1))
	f.onDatagram(ctrl, netip.MustParseAddrPort("127.0.0.1:9"), wire.Marshal(&wire.PeerList{Epoch: 1,
		Peers: []wire.PeerEntry{{Addr: 3, IP: ep.Addr().Unmap().As4(), Port: ep.Port()}}}))
	f.pump(false)
	if tot := f.Network().Totals(); tot.MsgsDropped != 1 || pool.out != 0 {
		t.Fatalf("first send: %d dropped, %d payloads at large, want 1 and 0", tot.MsgsDropped, pool.out)
	}
	if !f.relays.Get(3) {
		t.Fatal("the round's PeerList attached no relay for peer 3")
	}
	f.Post(send(2)) // the retry
	f.pump(false)
	select {
	case seq := <-got:
		if seq != 2 {
			t.Fatalf("peer got heartbeat %d, want the retry (2): the dropped one was delivered", seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the retry never reached the peer")
	}
	if tot := f.Network().Totals(); tot.MsgsDropped != 1 || pool.out != 0 {
		t.Fatalf("after the retry: %d dropped, %d payloads at large, want 1 and 0", tot.MsgsDropped, pool.out)
	}
}

// TestFabricRelayOrderAcrossHandoff: 300 messages sent to one relay in one
// pump round cross the mid-round egressHandoff four times (the relay hands a
// worker its queue from inside the sender's Send now) and still leave — and
// arrive — in send order.
func TestFabricRelayOrderAcrossHandoff(t *testing.T) {
	a := newTestFabric(t, 1)
	b, err := NewFabric(FabricConfig{Addr: 2, Seed: 2, Coalesce: true, EgressShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)
	const n = 300
	got := make(chan uint64, n) // never blocks a's pump
	a.Network().Attach(a.Addr(), func(_ netem.Addr, payload any, _ int) {
		got <- payload.(*wire.Heartbeat).Seq
	})
	b.Network().Attach(b.Addr(), func(netem.Addr, any, int) {})
	a.AddRemote(b.Addr(), b.AddrPort())
	b.AddRemote(a.Addr(), a.AddrPort())
	a.Start()
	b.Start()
	b.Post(func() {
		for i := uint64(0); i < n; i++ {
			hb := &wire.Heartbeat{From: 2, Seq: i}
			b.Network().Send(b.Addr(), a.Addr(), hb, hb.Size())
			if i == egressHandoff-1 && len(b.epend[int(a.Addr())%len(b.eworkers)]) != 0 {
				t.Errorf("send %d left %d records pending: the hand-off did not run inside the send", i, egressHandoff)
			}
		}
	})
	for i := uint64(0); i < n; i++ {
		select {
		case seq := <-got:
			if seq != i {
				t.Fatalf("message %d arrived as seq %d", i, seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}
	var ev uint64
	b.Call(func() { ev = b.Engine().Processed() })
	if ev != 0 {
		t.Fatalf("%d engine events on the sender for %d relayed messages, want 0", ev, n)
	}
}
