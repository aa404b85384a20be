package netem

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"swishmem/internal/obs"
	"swishmem/internal/sim"
)

// A Multicast is held to the per-target Send loop it replaced: one program
// of network operations runs on two networks, one multicasting through
// Multicast and the other through refMulticast, and everything a node or an
// operator can observe must agree — each destination's arrivals (time,
// sender, payload) in order, every LinkStats, the totals, the reject
// notifications, each payload's Ref/Release balance and each destination's
// fabric trace records. Only the interleaving of different receivers within
// one instant may change, and the fan-out record may only save engine
// events, never add them.

// refMulticast is Multicast as a loop of Sends, one engine event per copy.
func refMulticast(n *Network, from Addr, group []Addr, payload any, size int) {
	for _, to := range group {
		if to == from {
			continue
		}
		n.Send(from, to, payload, size)
	}
}

// mcNodes is the number of attached nodes; their addresses are 1..mcNodes.
const mcNodes = 5

// mcProfiles are the link profiles a program picks from: plain latencies
// that line arrivals up at one instant, serialization, every drop and delay
// knob of Shaper.Decide, zero delay and both deny modes.
var mcProfiles = []LinkProfile{
	{Latency: 100},
	{Latency: 50},
	{Latency: 100, BandwidthBps: 8e9},
	{Latency: 100, Jitter: 50},
	{Latency: 100, LossRate: 0.3},
	{Latency: 100, DupRate: 0.5},
	{Latency: 100, ReorderRate: 0.5},
	{Latency: 100, LossEveryN: 3},
	{Latency: 100, CorruptRate: 0.3},
	{Latency: 100, Deny: DenyBlackhole},
	{Latency: 100, Deny: DenyReject},
	{},
	{BandwidthBps: 8e9},
}

// mcDelays are the clock advances a program picks from.
var mcDelays = []sim.Duration{0, 1, 50, 99, 100, 150, 1000}

type mcKind uint8

const (
	mcSetLink   mcKind = iota // one-way profile a -> b
	mcUnicast                 // Send a -> b
	mcMulticast               // a to the group in arg
	mcAdvance                 // RunUntil(now + mcDelays[a])
	mcNodeUp                  // SetNodeUp(a, arg&1 == 1)
	mcPartition               // Partition(arg%3, a), or heal when arg%4 == 3
	mcKinds
)

// mcOp is one operation. a and b are node indexes, arg is the profile, the
// group or the flag, size the message size.
type mcOp struct {
	kind      mcKind
	a, b, arg uint8
	size      uint8
}

// mcOpBytes is the size of one encoded operation: kind, a, b, arg, size.
const mcOpBytes = 5

// decodeMC turns fuzz bytes into (local, program): the first byte picks a
// queued (New) or a local (NewLocal) network. A local program skips link
// and partition operations: a local network carries no model.
func decodeMC(data []byte) (bool, []mcOp) {
	if len(data) == 0 {
		return false, nil
	}
	local := data[0]&1 == 1
	var prog []mcOp
	for data = data[1:]; len(data) >= mcOpBytes && len(prog) < 128; data = data[mcOpBytes:] {
		o := mcOp{kind: mcKind(data[0]) % mcKinds, a: data[1], b: data[2], arg: data[3], size: data[4]}
		if local && (o.kind == mcSetLink || o.kind == mcPartition) {
			continue
		}
		prog = append(prog, o)
	}
	return local, prog
}

func encodeMC(local bool, prog []mcOp) []byte {
	out := []byte{0}
	if local {
		out[0] = 1
	}
	for _, o := range prog {
		out = append(out, byte(o.kind), o.a, o.b, o.arg, o.size)
	}
	return out
}

func mcAddr(i uint8) Addr { return Addr(i%mcNodes + 1) }

// mcGroup decodes a group: the low five bits pick members, bit 5 reverses
// their order, bits 6-7 rotate it, so groups come unsorted too.
func mcGroup(arg uint8) []Addr {
	var g []Addr
	for i := uint8(0); i < mcNodes; i++ {
		if arg>>i&1 == 1 {
			g = append(g, mcAddr(i))
		}
	}
	if arg&0x20 != 0 {
		for i, j := 0, len(g)-1; i < j; i, j = i+1, j-1 {
			g[i], g[j] = g[j], g[i]
		}
	}
	if len(g) > 0 {
		r := int(arg>>6) % len(g)
		g = append(g[r:], g[:r]...)
	}
	return g
}

// mcPayload is a pooled payload stand-in with an identity.
type mcPayload struct {
	id, refs int
}

func (p *mcPayload) Ref()     { p.refs++ }
func (p *mcPayload) Release() { p.refs-- }

// mcWorld is everything one network run leaves to compare.
type mcWorld struct {
	Arrivals  map[Addr][]string
	Rejects   []string
	Links     []string
	Totals    LinkStats
	Refs      []int
	Fabric    map[Addr][]obs.Event // by destination
	processed uint64
}

// runMC runs prog on a fresh network, multicasting with mc.
func runMC(local bool, prog []mcOp, mc func(n *Network, from Addr, group []Addr, payload any, size int)) mcWorld {
	eng := sim.NewEngine(7)
	// Room for every record a program can leave: an op sends at most
	// mcNodes copies, and a copy leaves fewer than eight records.
	tr := obs.NewTracer(64 + 8*mcNodes*len(prog))
	eng.SetTracer(tr)
	var net *Network
	if local {
		net = NewLocal(eng)
	} else {
		net = New(eng, LinkProfile{Latency: 100})
	}
	w := mcWorld{Arrivals: make(map[Addr][]string), Fabric: make(map[Addr][]obs.Event)}
	for i := uint8(0); i < mcNodes; i++ {
		a := mcAddr(i)
		net.Attach(a, func(from Addr, payload any, size int) {
			p := payload.(*mcPayload)
			w.Arrivals[a] = append(w.Arrivals[a], fmt.Sprintf("t=%d from=%d id=%d size=%d", eng.Now(), from, p.id, size))
			p.Release()
		})
		net.SetRejectHandler(a, func(to Addr) {
			w.Rejects = append(w.Rejects, fmt.Sprintf("t=%d %d->%d", eng.Now(), a, to))
		})
	}
	var payloads []*mcPayload
	payload := func() *mcPayload {
		p := &mcPayload{id: len(payloads)}
		payloads = append(payloads, p)
		return p
	}
	for _, o := range prog {
		switch o.kind {
		case mcSetLink:
			net.SetOneWayLink(mcAddr(o.a), mcAddr(o.b), mcProfiles[int(o.arg)%len(mcProfiles)])
		case mcUnicast:
			net.Send(mcAddr(o.a), mcAddr(o.b), payload(), int(o.size))
		case mcMulticast:
			mc(net, mcAddr(o.a), mcGroup(o.arg), payload(), int(o.size))
		case mcAdvance:
			eng.RunUntil(eng.Now().Add(mcDelays[int(o.a)%len(mcDelays)]))
		case mcNodeUp:
			net.SetNodeUp(mcAddr(o.a), o.arg&1 == 1)
		case mcPartition:
			if o.arg%4 == 3 {
				net.HealPartition()
			} else {
				net.Partition(int(o.arg%3), mcAddr(o.a))
			}
		}
	}
	eng.Run()
	net.EachLink(func(from, to Addr, s LinkStats) {
		w.Links = append(w.Links, fmt.Sprintf("%d->%d %+v", from, to, s))
	})
	w.Totals = net.Totals()
	for _, p := range payloads {
		w.Refs = append(w.Refs, p.refs)
	}
	if tr.Total() > uint64(tr.Cap()) {
		panic("multicast program overflowed its tracer")
	}
	for _, ev := range tr.Events() {
		if ev.Pid == obs.PidFabric {
			// Engine "event" instants interleave differently, and so do the
			// arrival-time records of different receivers at one instant.
			ev.Seq = 0
			w.Fabric[Addr(ev.V2)] = append(w.Fabric[Addr(ev.V2)], ev)
		}
	}
	w.processed = eng.Processed()
	return w
}

// diffMC runs prog through Multicast and through the Send loop and fails on
// the first difference.
func diffMC(t testing.TB, local bool, prog []mcOp) {
	t.Helper()
	got := runMC(local, prog, (*Network).Multicast)
	want := runMC(local, prog, refMulticast)
	if got.processed > want.processed {
		t.Fatalf("Multicast processed %d events, the Send loop %d", got.processed, want.processed)
	}
	for i := uint8(0); i < mcNodes; i++ {
		a := mcAddr(i)
		if !reflect.DeepEqual(got.Arrivals[a], want.Arrivals[a]) {
			t.Fatalf("node %d arrivals differ:\nMulticast %q\nSend loop %q", a, got.Arrivals[a], want.Arrivals[a])
		}
	}
	for _, r := range got.Refs {
		if r != 0 {
			t.Fatalf("payload refs %v, want every one balanced", got.Refs)
		}
	}
	got.processed, want.processed = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("networks differ:\nMulticast %+v\nSend loop %+v", got, want)
	}
}

// mcScenarios are hand-written programs; they run as plain tests and seed
// the fuzz corpus.
var mcScenarios = map[string]struct {
	local bool
	prog  []mcOp
}{
	// Node 3 has a unicast due at the record's instant: its copy must not
	// join a record keyed by node 2, which would run it first.
	"queued arrival at the record's instant": {prog: []mcOp{
		{kind: mcUnicast, a: 0, b: 2, size: 10},
		{kind: mcMulticast, a: 0, arg: 0b00110, size: 20},
		{kind: mcAdvance, a: 6},
	}},
	// A later unicast to node 2 at the same instant must sort after the
	// record, so the record carries its least member's key.
	"later unicast on a member link": {prog: []mcOp{
		{kind: mcMulticast, a: 0, arg: 0b00110, size: 20},
		{kind: mcUnicast, a: 0, b: 1, size: 10},
		{kind: mcUnicast, a: 0, b: 2, size: 10},
		{kind: mcAdvance, a: 6},
	}},
	// The same, with the group walked in descending address order.
	"unsorted group": {prog: []mcOp{
		{kind: mcUnicast, a: 0, b: 4, size: 10},
		{kind: mcMulticast, a: 0, arg: 0b111111, size: 20},
		{kind: mcUnicast, a: 0, b: 1, size: 10},
		{kind: mcMulticast, a: 2, arg: 0b10011111, size: 20},
		{kind: mcUnicast, a: 2, b: 4, size: 10},
		{kind: mcAdvance, a: 6},
	}},
	// An arrival already queued on a member link, due earlier than the
	// multicast's: the copy may join, and must still arrive after it.
	"earlier arrival queued on a member link": {prog: []mcOp{
		{kind: mcSetLink, a: 0, b: 2, arg: 0},
		{kind: mcUnicast, a: 0, b: 2, size: 10},
		{kind: mcAdvance, a: 2},
		{kind: mcUnicast, a: 0, b: 1, size: 10},
		{kind: mcMulticast, a: 0, arg: 0b11111, size: 20},
		{kind: mcUnicast, a: 0, b: 2, size: 10},
		{kind: mcAdvance, a: 5},
		{kind: mcMulticast, a: 0, arg: 0b11111, size: 20},
		{kind: mcAdvance, a: 6},
	}},
	// Mixed delays: the first joiner's 50 ns link fixes the record's
	// instant, so the copies due later each take an event of their own, and
	// a serializing link delays the second multicast's copy further.
	"copies across instants": {prog: []mcOp{
		{kind: mcSetLink, a: 0, b: 1, arg: 1},
		{kind: mcSetLink, a: 0, b: 3, arg: 2},
		{kind: mcUnicast, a: 0, b: 2, size: 10},
		{kind: mcAdvance, a: 2},
		{kind: mcMulticast, a: 0, arg: 0b11111, size: 64},
		{kind: mcMulticast, a: 0, arg: 0b11111, size: 64},
		{kind: mcAdvance, a: 6},
	}},
	// Every drop and delay knob on one fan-out, sent twice.
	"faulty links": {prog: []mcOp{
		{kind: mcSetLink, a: 0, b: 1, arg: 4},
		{kind: mcSetLink, a: 0, b: 2, arg: 5},
		{kind: mcSetLink, a: 0, b: 3, arg: 7},
		{kind: mcSetLink, a: 0, b: 4, arg: 8},
		{kind: mcMulticast, a: 0, arg: 0b11111, size: 30},
		{kind: mcMulticast, a: 0, arg: 0b11111, size: 30},
		{kind: mcSetLink, a: 0, b: 1, arg: 3},
		{kind: mcSetLink, a: 0, b: 2, arg: 6},
		{kind: mcSetLink, a: 0, b: 3, arg: 9},
		{kind: mcSetLink, a: 0, b: 4, arg: 10},
		{kind: mcMulticast, a: 0, arg: 0b11111, size: 30},
		{kind: mcAdvance, a: 3},
		{kind: mcMulticast, a: 0, arg: 0b11111, size: 30},
		{kind: mcAdvance, a: 6},
	}},
	// A receiver down and a partition, each formed while copies fly.
	"down node and partition in flight": {prog: []mcOp{
		{kind: mcPartition, a: 3, arg: 1},
		{kind: mcPartition, a: 0, arg: 2},
		{kind: mcMulticast, a: 0, arg: 0b11111, size: 30},
		{kind: mcPartition, a: 3, arg: 3},
		{kind: mcMulticast, a: 0, arg: 0b11111, size: 30},
		{kind: mcNodeUp, a: 2, arg: 0},
		{kind: mcAdvance, a: 6},
		{kind: mcNodeUp, a: 2, arg: 1},
		{kind: mcNodeUp, a: 0, arg: 0},
		{kind: mcMulticast, a: 0, arg: 0b11111, size: 30},
		{kind: mcAdvance, a: 6},
	}},
	// A local network delivers every copy in the call, and drops the one
	// for a node that is down.
	"local network": {local: true, prog: []mcOp{
		{kind: mcUnicast, a: 0, b: 1, size: 10},
		{kind: mcNodeUp, a: 3, arg: 0},
		{kind: mcMulticast, a: 0, arg: 0b11111, size: 20},
		{kind: mcUnicast, a: 0, b: 2, size: 10},
		{kind: mcAdvance, a: 6},
		{kind: mcMulticast, a: 2, arg: 0b10011111, size: 20},
	}},
}

func TestMulticastMatchesSendsScenarios(t *testing.T) {
	for name, sc := range mcScenarios {
		t.Run(name, func(t *testing.T) {
			local, prog := decodeMC(encodeMC(sc.local, sc.prog))
			if local != sc.local || !reflect.DeepEqual(prog, sc.prog) {
				t.Fatal("scenario does not survive the fuzz encoding")
			}
			diffMC(t, sc.local, sc.prog)
		})
	}
}

// TestMulticastMatchesSendsRandom is the fuzz target's tier-1 stand-in.
func TestMulticastMatchesSendsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 1500; i++ {
		data := make([]byte, 1+mcOpBytes*(1+rng.Intn(4+i%60)))
		rng.Read(data)
		local, prog := decodeMC(data)
		diffMC(t, local, prog)
	}
}

func FuzzMulticastMatchesSends(f *testing.F) {
	for _, sc := range mcScenarios {
		f.Add(encodeMC(sc.local, sc.prog))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		local, prog := decodeMC(data)
		diffMC(t, local, prog)
	})
}
