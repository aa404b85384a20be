package netem

import (
	"reflect"
	"testing"

	"swishmem/internal/sim"
)

// everyKnob sets every stochastic and periodic fault at once, so one stream
// exercises the whole draw order.
var everyKnob = LinkProfile{
	Latency: 1000, Jitter: 100, BandwidthBps: 8e9, // 1 byte per ns
	LossRate: 0.2, CorruptRate: 0.15, LossEveryN: 4, DupRate: 0.25, ReorderRate: 0.3,
}

// everyKnobVerdicts is what the 1->2 link of a seed-7 network decides for 24
// messages of 100 bytes sent 50 ns apart under everyKnob. It was recorded
// from Network.Send's trace before the fault model moved into Decide, so it
// pins the draw order (deny, nth, corrupt, loss, jitter, reorder, dup), not
// just today's output: swapping any two draws changes it.
var everyKnobVerdicts = []Verdict{
	{Delay: 1129},
	{Delay: 1150, DupLag: 501},
	{Delay: 1225, DupLag: 501},
	{Fate: DropNth},
	{Delay: 1212},
	{Delay: 2834}, // reordered
	{Delay: 1343},
	{Fate: DropNth},
	{Delay: 1395, DupLag: 501},
	{Delay: 1383, DupLag: 501},
	{Delay: 1402},
	{Fate: DropNth},
	{Delay: 1424},
	{Delay: 3143}, // reordered
	{Delay: 1781},
	{Fate: DropNth},
	{Delay: 1548},
	{Fate: DropLoss},
	{Delay: 4253}, // reordered
	{Fate: DropNth},
	{Fate: DropLoss},
	{Fate: DropCorrupt, Delay: 1000},
	{Fate: DropCorrupt, Delay: 1000},
	{Fate: DropNth},
}

func TestDecideSequence(t *testing.T) {
	blackhole, reject := everyKnob, everyKnob
	blackhole.Deny, reject.Deny = DenyBlackhole, DenyReject
	for _, tc := range []struct {
		name string
		// denied, when set, judges three messages under this profile before
		// each everyKnob message: a denied message must consume no draw, no
		// every-Nth tick and no link time, so the stream is undisturbed.
		denied *LinkProfile
		want   Fate
	}{
		{name: "every knob"},
		{name: "blackhole interleaved", denied: &blackhole, want: DropBlackhole},
		{name: "reject interleaved", denied: &reject, want: DropReject},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh := NewShaper(7, 1, 2)
			for i, want := range everyKnobVerdicts {
				now := sim.Time(i * 50)
				for j := 0; tc.denied != nil && j < 3; j++ {
					if got := sh.Decide(tc.denied, now, 100); got != (Verdict{Fate: tc.want}) {
						t.Fatalf("message %d, denied copy %d: %+v, want bare %v", i, j, got, tc.want)
					}
				}
				if got := sh.Decide(&everyKnob, now, 100); got != want {
					t.Fatalf("message %d: %+v, want %+v", i, got, want)
				}
			}
		})
	}
}

// TestSendFollowsDecide: the simulated fabric adds nothing to the verdict —
// what Network.Send does to a message is what a Shaper of the same seed and
// direction decides, message for message.
func TestSendFollowsDecide(t *testing.T) {
	eng, net, recs := setup(7, LinkProfile{}, 1, 2)
	net.SetOneWayLink(1, 2, everyKnob)
	for i := range everyKnobVerdicts {
		i := i
		eng.Schedule(sim.Time(i*50), func() { net.Send(1, 2, i, 100) })
	}
	eng.Run()

	// Arrivals come in time order, not send order: compare as multisets of
	// (message, arrival time).
	type arrival struct {
		msg int
		at  sim.Time
	}
	want := map[arrival]int{}
	var dropped, corrupt, dup uint64
	for i, v := range everyKnobVerdicts {
		sent := sim.Time(i * 50)
		switch v.Fate {
		case Deliver:
			want[arrival{i, sent.Add(v.Delay)}]++
			if v.DupLag > 0 {
				dup++
				want[arrival{i, sent.Add(v.Delay + v.DupLag)}]++
			}
		case DropCorrupt:
			corrupt++
			fallthrough
		default:
			dropped++
		}
	}
	got := map[arrival]int{}
	for k, m := range recs[2].msgs {
		got[arrival{m.(int), recs[2].times[k]}]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("arrivals %v, want %v", got, want)
	}
	if st := net.Stats(1, 2); st.MsgsDropped != dropped || st.MsgsCorrupt != corrupt || st.MsgsDup != dup {
		t.Fatalf("stats %+v, want %d dropped (%d corrupt), %d dup", st, dropped, corrupt, dup)
	}
}
