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
// with nothing queued and no event processed — and the totals read exactly
// as a queued network's do once its engine has run.
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
	if s := net.Stats(1, 2); s != (LinkStats{}) {
		t.Fatalf("local 1->2 books %+v, want none: a local network keeps only totals", s)
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
}

// TestLocalCarriesNoModel: a local network has no links, so shaping or
// splitting one is a mistake that panics, not a setting that is ignored.
func TestLocalCarriesNoModel(t *testing.T) {
	for name, op := range map[string]func(*Network){
		"SetLink":       func(n *Network) { n.SetLink(1, 2, DataCenter()) },
		"SetOneWayLink": func(n *Network) { n.SetOneWayLink(1, 2, LinkProfile{Latency: 100}) },
		"Partition":     func(n *Network) { n.Partition(1, 2) },
	} {
		t.Run(name, func(t *testing.T) {
			_, net, _ := setupLocal(1, 2)
			defer func() {
				if r := recover(); r != "netem: a local network carries no model" {
					t.Fatalf("%s on a local network: recovered %v", name, r)
				}
			}()
			op(net)
		})
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
