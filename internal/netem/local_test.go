package netem

import (
	"reflect"
	"testing"

	"swishmem/internal/obs"
	"swishmem/internal/sim"
)

// setupLocal is setup on a NewLocal network.
func setupLocal(nodes ...Addr) (*sim.Engine, *Network, map[Addr]*recorder) {
	eng := sim.NewEngine(1)
	net := NewLocal(eng)
	return eng, net, attachRecorders(eng, net, nodes)
}

// refCounted is a pooled payload stand-in: the balance of Ref and Release.
type refCounted struct{ refs int }

func (r *refCounted) Ref()     { r.refs++ }
func (r *refCounted) Release() { r.refs-- }

// TestLocalDeliversInTheCall: on a local network a send has reached its
// handler when Send returns, in send order and at the send's own instant,
// with nothing queued and no event processed — and the books read exactly as
// a queued network's do once its engine has run.
func TestLocalDeliversInTheCall(t *testing.T) {
	eng, net, recs := setupLocal(1, 2, 3)
	eng.RunUntil(500)
	for i := 0; i < 5; i++ {
		if !net.Send(1, Addr(2+i%2), i, 10+i) {
			t.Fatalf("send %d refused", i)
		}
		if got := len(recs[2].msgs) + len(recs[3].msgs); got != i+1 {
			t.Fatalf("%d delivered when send %d returned, want %d", got, i, i+1)
		}
	}
	if eng.Pending() != 0 || eng.Processed() != 0 {
		t.Fatalf("pending %d, processed %d after five local sends, want 0 and 0", eng.Pending(), eng.Processed())
	}
	if want := []any{0, 2, 4}; !reflect.DeepEqual(recs[2].msgs, want) {
		t.Fatalf("node 2 got %v, want %v", recs[2].msgs, want)
	}
	for _, at := range recs[2].times {
		if at != 500 {
			t.Fatalf("delivered at %v, want the send's instant 500", at)
		}
	}

	qeng, qnet, _ := setup(1, LinkProfile{}, 1, 2, 3)
	qeng.RunUntil(500)
	for i := 0; i < 5; i++ {
		qnet.Send(1, Addr(2+i%2), i, 10+i)
	}
	qeng.Run()
	if got, want := net.Totals(), qnet.Totals(); got != want {
		t.Fatalf("local totals %+v, queued totals %+v", got, want)
	}
	if got, want := net.Stats(1, 2), qnet.Stats(1, 2); got != want {
		t.Fatalf("local 1->2 %+v, queued 1->2 %+v", got, want)
	}
}

// TestLocalDropReleasesPayload: a message to a down node or to an address
// nothing is attached to is counted MsgsDropped in the call and gives back
// the reference Send took; a delivered one passes that reference on.
func TestLocalDropReleasesPayload(t *testing.T) {
	_, net, recs := setupLocal(1, 2, 3)
	net.SetNodeUp(3, false)
	down, nobody, delivered := &refCounted{}, &refCounted{}, &refCounted{}
	net.Send(1, 3, down, 8)
	net.Send(1, 9, nobody, 8)
	net.Send(1, 2, delivered, 8)
	if down.refs != 0 || nobody.refs != 0 {
		t.Fatalf("dropped payloads hold %d and %d references, want 0", down.refs, nobody.refs)
	}
	if delivered.refs != 1 || len(recs[2].msgs) != 1 {
		t.Fatalf("delivered payload holds %d references (want 1, the receiver's), %d delivered", delivered.refs, len(recs[2].msgs))
	}
	tot := net.Totals()
	if tot.MsgsSent != 3 || tot.MsgsDropped != 2 || tot.MsgsDeliv != 1 {
		t.Fatalf("totals %+v, want 3 sent, 2 dropped, 1 delivered", tot)
	}
	if s := net.Stats(1, 9); s.MsgsDropped != 1 {
		t.Fatalf("1->9 counts %+v, want the drop", s)
	}
}

// TestLocalDelayedStillQueues: only an arrival due now is delivered in the
// call. A local link given a latency delivers through the queue at its time,
// and a duplicating one delivers the original in the call and the copy later.
func TestLocalDelayedStillQueues(t *testing.T) {
	eng, net, recs := setupLocal(1, 2, 3)
	net.SetOneWayLink(1, 2, LinkProfile{Latency: 100})
	net.SetOneWayLink(1, 3, LinkProfile{DupRate: 1})
	net.Send(1, 2, "late", 8)
	net.Send(1, 2, "late too", 8)
	if len(recs[2].msgs) != 0 || eng.Pending() != 1 {
		t.Fatalf("%d delivered, %d queued after two sends on a 100 ns link, want 0 and one burst", len(recs[2].msgs), eng.Pending())
	}
	net.Send(1, 3, "twice", 8)
	if len(recs[3].msgs) != 1 || eng.Pending() != 2 {
		t.Fatalf("%d delivered, %d queued after a duplicated send, want the original in the call and its copy queued", len(recs[3].msgs), eng.Pending())
	}
	eng.Run()
	if want := []sim.Time{100, 100}; !reflect.DeepEqual(recs[2].times, want) {
		t.Fatalf("delayed deliveries at %v, want %v", recs[2].times, want)
	}
	if want := []sim.Time{0, 1}; !reflect.DeepEqual(recs[3].times, want) {
		t.Fatalf("duplicated deliveries at %v, want %v", recs[3].times, want)
	}
	if s := net.Stats(1, 3); s.MsgsDup != 1 || s.MsgsDeliv != 2 {
		t.Fatalf("1->3 counts %+v, want one duplicate, two delivered", s)
	}
}

// TestLocalSendBehindAnOpenBurstQueues: a link that had a latency and lost it
// keeps its order. A send due at the very instant the link's open burst lands
// joins that burst instead of overtaking it in the call.
func TestLocalSendBehindAnOpenBurstQueues(t *testing.T) {
	eng, net, recs := setupLocal(1, 2)
	net.SetOneWayLink(1, 2, LinkProfile{Latency: 100})
	net.Send(1, 2, "first", 8)
	eng.Schedule(100, func() { // a local event: runs before the burst due at 100
		net.SetOneWayLink(1, 2, LinkProfile{})
		net.Send(1, 2, "second", 8)
		if len(recs[2].msgs) != 0 {
			t.Errorf("%v delivered in the call, ahead of the burst due at this instant", recs[2].msgs)
		}
	})
	eng.Run()
	if want := []any{"first", "second"}; !reflect.DeepEqual(recs[2].msgs, want) {
		t.Fatalf("delivered %v, want %v", recs[2].msgs, want)
	}
	net.Send(1, 2, "third", 8) // the burst has fired: in the call again
	if len(recs[2].msgs) != 3 {
		t.Fatalf("%d delivered after a send on the drained link, want 3", len(recs[2].msgs))
	}
}

// TestLocalEmitsTheSameFlightSpan: with a tracer on, a local send leaves the
// `net msg` span a queued one does — and, a dropped one, the same drop
// instant — so a member's trace does not change shape with the delivery mode.
func TestLocalEmitsTheSameFlightSpan(t *testing.T) {
	fabricEvents := func(eng *sim.Engine, net *Network) []obs.Event {
		tr := obs.NewTracer(64)
		eng.SetTracer(tr)
		eng.RunUntil(40)
		net.Send(1, 2, "x", 33)
		net.Send(1, 9, "nobody home", 7)
		eng.Run()
		var out []obs.Event
		for _, ev := range tr.Events() {
			if ev.Pid == obs.PidFabric {
				ev.Seq = 0 // engine "event" instants interleave on the queued side only
				out = append(out, ev)
			}
		}
		return out
	}
	leng, lnet, _ := setupLocal(1, 2)
	qeng, qnet, _ := setup(1, LinkProfile{}, 1, 2)
	local, queued := fabricEvents(leng, lnet), fabricEvents(qeng, qnet)
	if len(local) != 3 || !reflect.DeepEqual(local, queued) {
		t.Fatalf("local network traced\n%+v\nqueued network traced\n%+v\nwant the same two spans and one drop", local, queued)
	}
	if sp := local[0]; sp.Name != "msg" || sp.Ph != obs.PhaseSpan || sp.TS != 40 || sp.Dur != 0 || sp.V3 != 33 {
		t.Fatalf("first fabric record %+v, want the 33-byte msg span at 40", sp)
	}
}
