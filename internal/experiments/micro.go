package experiments

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"swishmem"
	"swishmem/internal/ewo"
	"swishmem/internal/netem"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/timesync"
	"swishmem/internal/wire"
	"swishmem/internal/workload"
)

// The Micro* functions are the hot-path microbenchmark bodies the repo-root
// bench_test.go runs under `go test -bench` (Benchmark<Name> calls
// Micro<Name>); the root alloc-budget tests measure on the same fixtures.

// DeepQueue builds an engine whose pending set has the shape of a trace
// replay (sim-ddos-8sw in the repo benchmark): ~1k events pre-scheduled up to
// 10 ms ahead, and ~50 in flight that re-arm themselves at the two constant
// delays of the models, a 400 ns pipeline stage (local events) and a 10 us
// link (keyed deliveries), about half the pushes each. The far events re-arm
// 10 ms out as they fire (0.2 % of the events run) so the depth holds. The
// returned run schedules and pops ops in-flight events and lets their chains
// end; the root alloc-budget test measures on the same fixture.
func DeepQueue() (run func(ops int)) {
	const (
		farEvents = 1024
		farSpan   = 10 * time.Millisecond
		stage     = 400 * time.Nanosecond
		link      = 10 * time.Microsecond
	)
	eng := sim.NewEngine(1)
	left := 0
	var far, local, deliver func()
	far = func() { eng.ScheduleAfter(farSpan, far) }
	local = func() {
		if left > 0 {
			left--
			eng.ScheduleAfter(stage, local)
		}
	}
	var klo uint64
	deliver = func() {
		if left > 0 {
			left--
			klo++
			eng.ScheduleKeyed(eng.Now().Add(link), sim.KeyClassDeliver|1, klo, deliver)
		}
	}
	for i := 1; i <= farEvents; i++ {
		eng.ScheduleAfter(farSpan*sim.Duration(i)/farEvents, far)
	}
	return func(ops int) {
		left = ops
		// Two local chains keep 2 events inside the next 400 ns; 48 delivery
		// chains spread over the link delay push as often as the two together.
		for i := 0; i < 2; i++ {
			eng.ScheduleAfter(stage*sim.Duration(i+1)/2, local)
		}
		for i := 0; i < 48; i++ {
			eng.ScheduleAfter(link*sim.Duration(i+1)/48, deliver)
		}
		for left > 0 {
			eng.RunFor(link)
		}
		eng.RunFor(2 * link) // let the chains end
	}
}

// MicroEngineDeepQueue measures one event's schedule and pop on the DeepQueue
// engine; an op is one in-flight event.
func MicroEngineDeepQueue(b *testing.B) {
	run := DeepQueue()
	run(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// MicroEngineScheduleRun is the degenerate shape for a timing wheel: 1024
// events inside 100 ns, so everything shares one tick or two and the sorted
// run under the clock does all the ordering, nearly every insert by binary
// search. A change to the pending set must leave it no slower than its
// parent commit. Same body as BenchmarkEngineScheduleRun in internal/sim.
func MicroEngineScheduleRun(b *testing.B) {
	e := sim.NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(sim.Duration(i%100)+1, func() {})
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// Fanout builds an engine running the shape an EWO multicast gives the
// pending set on sim-ddos-8sw: a local event on one of 8 switches (its flush)
// schedules 7 keyed arrivals, one per peer, at one instant 10 µs later, and
// each arrival schedules a local event 400 ns after it (its pipeline stage).
// A flush fires every µs, so ~10 multicasts are in flight. The returned run
// sends ops multicasts and lets them land; the root alloc-budget test
// measures on the same fixture.
func Fanout() (run func(ops int)) {
	const (
		switches = 8
		gap      = time.Microsecond
		link     = 10 * time.Microsecond
		stage    = 400 * time.Nanosecond
	)
	eng := sim.NewEngine(1)
	var seq [switches + 1][switches + 1]uint64 // per-link delivery sequence
	nop := func() {}
	arrive := func() { eng.ScheduleAfter(stage, nop) }
	left, from := 0, uint64(0)
	var flush func()
	flush = func() {
		if left == 0 {
			return
		}
		left--
		from = from%switches + 1
		at := eng.Now().Add(link)
		for to := uint64(1); to <= switches; to++ {
			if to != from {
				eng.ScheduleKeyed(at, sim.KeyClassDeliver|from<<16|to, seq[from][to], arrive)
				seq[from][to]++
			}
		}
		eng.ScheduleAfter(gap, flush)
	}
	return func(ops int) {
		left = ops
		eng.ScheduleAfter(gap, flush)
		eng.Run()
	}
}

// MicroEngineFanout measures the Fanout engine; an op is one multicast, the
// 15 events of a flush, its 7 arrivals and their stages (steady-state
// target: 0 allocs/op).
func MicroEngineFanout(b *testing.B) {
	run := Fanout()
	run(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// The repo benchmark's sim-ddos-8sw workload: its trace mix, its cluster,
// its chunking and its warm-up.
const (
	replaySwitches   = 8
	replayTraceLen   = time.Second // looped with a 1 s offset per pass
	replayChunk      = 10 * time.Millisecond
	replayWarmChunks = 25
)

// DDoSReplay is the sim-ddos-8sw replay: the ddos mix (background
// connection churn plus a flood, seed 3) through 8 simulated switches
// running DeployDDoS, in 10 ms chunks that each pre-schedule their packets'
// injections and then run the cluster over them, as the repo benchmark does.
type DDoSReplay struct {
	C    *swishmem.Cluster
	Dets []*swishmem.DDoSDetector
	// Injected counts the packets scheduled so far.
	Injected int

	trace  workload.Trace
	inject []func()
	pass   sim.Duration
	cursor int
}

// NewDDoSReplay builds the replay and runs its 25 warm-up chunks.
func NewDDoSReplay() (*DDoSReplay, error) {
	rng := rand.New(rand.NewSource(3))
	bg, err := workload.GenTrace(rng, workload.TraceConfig{Duration: replayTraceLen, FlowsPerSec: 10_000, Servers: 64})
	if err != nil {
		return nil, err
	}
	atk, err := workload.GenAttack(rng, workload.AttackConfig{
		Duration: replayTraceLen, PacketsPerSec: 120_000, Sources: 4000, Victim: 3})
	if err != nil {
		return nil, err
	}
	trace := workload.Merge(bg, atk)
	c, err := swishmem.New(swishmem.Config{Switches: replaySwitches, Seed: 3})
	if err != nil {
		return nil, err
	}
	dets, err := c.DeployDDoS("ddos", swishmem.DDoSOptions{Threshold: 2000, Window: 50 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	c.RunFor(2 * time.Millisecond)
	r := &DDoSReplay{C: c, Dets: dets, trace: trace, inject: make([]func(), len(trace)), pass: sim.Duration(c.Now())}
	for i := range trace {
		sw, pkt := c.Switch(i%replaySwitches), trace[i].Pkt
		r.inject[i] = func() { sw.InjectPacket(pkt) }
	}
	for i := 0; i < replayWarmChunks; i++ {
		r.Chunk(math.MaxInt)
	}
	return r, nil
}

// Chunk schedules the next chunk's packets, at most limit of them, runs the
// cluster over the chunk and returns the packets scheduled.
func (r *DDoSReplay) Chunk(limit int) int {
	end := r.C.Now() + replayChunk
	n := 0
	for ; n < limit; n++ {
		if r.cursor == len(r.trace) {
			r.cursor, r.pass = 0, r.pass+replayTraceLen
		}
		at := r.pass + r.trace[r.cursor].At
		if at >= end {
			break
		}
		r.C.Switch(r.cursor%replaySwitches).Engine().Schedule(sim.Time(at), r.inject[r.cursor])
		r.cursor++
	}
	r.C.RunFor(replayChunk)
	r.Injected += n
	return n
}

// Accounted is the number of packets the detectors counted.
func (r *DDoSReplay) Accounted() int {
	n := 0
	for _, d := range r.Dets {
		n += int(d.Stats.Updated.Value())
	}
	return n
}

// MicroDDoSReplay measures a packet of the DDoSReplay: an op is one injected
// packet, so ns/op is the simulator's whole cost of a packet, and a CPU
// profile of it (`go test -run '^$' -bench DDoSReplay -cpuprofile cpu.out
// .`) splits that cost by layer. It fails if a packet goes unaccounted.
func MicroDDoSReplay(b *testing.B) {
	r, err := NewDDoSReplay()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; {
		left -= r.Chunk(left)
	}
	b.StopTimer()
	r.Chunk(0) // the last packets are still in a pipeline
	if got := r.Accounted(); got != r.Injected {
		b.Fatalf("%d of %d injected packets accounted", got, r.Injected)
	}
}

// MicroSROWriteCommit measures the replicated write path on a 3-switch
// chain. The timed region covers write submission (control-plane buffering,
// head send); the simulator drains that complete the commits run off the
// clock so ns/op tracks the per-write cost rather than the batch-drain
// schedule.
func MicroSROWriteCommit(b *testing.B) {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	regs, err := c.DeclareStrong("b", swishmem.StrongOptions{Capacity: 1 << 16, ValueWidth: 8})
	if err != nil {
		b.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	committed := 0
	for i := 0; i < b.N; i++ {
		regs[0].Write(uint64(i%(1<<15)), []byte("12345678"), func(ok bool) {
			if ok {
				committed++
			}
		})
		if i%256 == 255 {
			b.StopTimer()
			c.RunFor(50 * time.Millisecond)
			b.StartTimer()
		}
	}
	b.StopTimer()
	c.RunFor(time.Second)
	if committed == 0 {
		b.Fatal("no writes committed")
	}
}

// MicroEWOCounterAdd measures the EWO fast path one add at a time: local
// apply plus the multicast of a one-entry update (steady-state target: 0
// allocs/op). The loop never advances the clock between adds, so each add is
// flushed by hand — one add, one multicast, what a lone add in its own
// instant costs; the deliveries drain off the clock.
func MicroEWOCounterAdd(b *testing.B) {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	regs, err := c.DeclareCounter("b", swishmem.EventualOptions{Capacity: 1 << 16, DisableSync: true})
	if err != nil {
		b.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	node := regs[0].Node()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regs[0].Add(uint64(i%(1<<15)), 1)
		node.Flush()
		if i%1024 == 1023 {
			b.StopTimer()
			c.RunFor(time.Millisecond)
			b.StartTimer()
		}
	}
}

// MicroEWOBurstAdd measures the same path the way a busy switch drives it:
// 32 adds over 16 keys land in one instant and leave as one 16-entry update.
// An op is one add; the flush event, both deliveries and the merges run on
// the clock, so ns/op is the whole cost of an add amortized over its burst
// (steady-state target: 0 allocs/op).
func MicroEWOBurstAdd(b *testing.B) {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	regs, err := c.DeclareCounter("b", swishmem.EventualOptions{Capacity: 1 << 16, DisableSync: true})
	if err != nil {
		b.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regs[0].Add(uint64(i%16), 1)
		if i%32 == 31 {
			c.RunFor(100 * time.Microsecond)
		}
	}
	b.StopTimer()
	c.RunFor(time.Millisecond)
	if got, want := regs[1].Sum(0), regs[0].Sum(0); got != want {
		b.Fatalf("a peer reads %d on key 0, the writer %d: the bursts were not delivered", got, want)
	}
}

// microWarmKeys is the key range MicroEWOMerge and MicroEWOSum work over.
const microWarmKeys = 4096

// WarmCounter builds a 3-switch counter register on which every member has
// added to every one of microWarmKeys keys and all of it has been delivered,
// and returns the first member's handle: each key's row holds three owners.
// The root alloc-budget tests measure on the same fixture.
func WarmCounter(b testing.TB) *swishmem.CounterRegister {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	regs, err := c.DeclareCounter("b", swishmem.EventualOptions{Capacity: 1 << 16, DisableSync: true})
	if err != nil {
		b.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	for k := uint64(0); k < microWarmKeys; k++ {
		for _, r := range regs {
			r.Add(k, 1)
		}
		if k%256 == 255 {
			c.RunFor(time.Millisecond)
		}
	}
	c.RunFor(10 * time.Millisecond)
	if got := regs[0].Sum(microWarmKeys - 1); got != 3 {
		b.Fatalf("warm-up did not converge: key sums to %d, want 3", got)
	}
	return regs[0]
}

// MicroEWOMerge measures the EWO receive path: one op is an 8-entry update
// from a peer — eight keys, each slot value newer than the stored one, so
// every entry is merged rather than discarded as stale — handed to a warm
// node (steady-state target: 0 allocs/op).
func MicroEWOMerge(b *testing.B) {
	node := WarmCounter(b).Node()
	u := &wire.EWOUpdate{Reg: node.Config().Reg, From: 2, Entries: make([]wire.EWOEntry, 8)}
	inc := []byte{0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range u.Entries {
			u.Entries[j] = wire.EWOEntry{
				Key:   uint64(i*8+j) % microWarmKeys,
				Stamp: timesync.Stamp{Time: sim.Time(i + 2), Node: 2},
				Value: inc,
			}
		}
		node.Handle(2, u)
	}
	if got := node.Stats.EntriesMerged.Value(); got < uint64(8*b.N) {
		b.Fatalf("%d entries merged over %d updates, want all 8 of each", got, b.N)
	}
}

// The sync fixture's shape: sim-ddos-8sw's replica group of 8, the key
// window one periodic sync round walks (the default SyncEntriesPerPacket),
// and 12 such windows, about the 748 keys a sim-ddos-8sw walk holds.
const (
	microSyncOwners   = 8
	microSyncKeys     = 64
	microSyncWarmKeys = 12 * microSyncKeys
	microSyncPeriod   = 10 * time.Microsecond
)

// WarmSyncNode builds a counter node with periodic sync on, in a group of
// microSyncOwners members whose other seven drop what they are sent, and
// merges sync-shaped updates into it until each of microSyncWarmKeys keys holds
// a slot of every member. It returns the node and the sync update of the
// first microSyncKeys keys — one key's slots back to back, in the sender's
// column order — which it has already merged, so every entry of it is stale
// (as sync entries mostly are on sim-ddos-8sw). The clock has not run: the
// first sync round is one period away. The root alloc-budget test measures
// on the same fixture.
func WarmSyncNode(tb testing.TB) (*ewo.Node, *wire.EWOUpdate) {
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	sw := pisa.New(eng, nw, pisa.Config{Addr: 1})
	n, err := ewo.NewNode(sw, ewo.Config{Reg: 1, Capacity: microSyncWarmKeys, Kind: ewo.Counter, SyncPeriod: microSyncPeriod})
	if err != nil {
		tb.Fatal(err)
	}
	members := []uint16{1}
	for a := netem.Addr(2); a <= microSyncOwners; a++ {
		members = append(members, uint16(a))
		nw.Attach(a, func(_ netem.Addr, payload any, _ int) { payload.(*wire.EWOUpdate).Release() })
	}
	if err := n.SetGroup(wire.GroupConfig{Epoch: 1, Members: members}); err != nil {
		tb.Fatal(err)
	}
	inc := []byte{0}
	window := func(first uint64) *wire.EWOUpdate {
		u := &wire.EWOUpdate{Reg: 1, From: 2, Sync: true}
		for k := first; k < first+microSyncKeys; k++ {
			for o := uint64(1); o <= microSyncOwners; o++ {
				u.Entries = append(u.Entries, wire.EWOEntry{
					Key:   k,
					Stamp: timesync.Stamp{Time: sim.Time(k*microSyncOwners + o), Node: timesync.NodeID(o)},
					Value: inc,
				})
			}
		}
		return u
	}
	for k := uint64(0); k < microSyncWarmKeys; k += microSyncKeys {
		n.Handle(2, window(k))
	}
	if got, want := n.Stats.EntriesMerged.Value(), uint64(microSyncWarmKeys*microSyncOwners); got != want {
		tb.Fatalf("warm-up merged %d entries, want %d", got, want)
	}
	return n, window(0)
}

// MicroEWOSyncMerge measures the EWO receive path on a periodic-sync packet:
// one op is a 64-key x 8-owner sync update (512 entries) merged into a warm
// node, every entry stale (steady-state target: 0 allocs/op).
func MicroEWOSyncMerge(b *testing.B) {
	node, u := WarmSyncNode(b)
	merged, stale := node.Stats.EntriesMerged.Value(), node.Stats.EntriesStale.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.Handle(2, u)
	}
	b.StopTimer()
	if got := node.Stats.EntriesMerged.Value() - merged; got != 0 {
		b.Fatalf("%d entries of an already-merged sync update merged again", got)
	}
	if got, want := node.Stats.EntriesStale.Value()-stale, uint64(b.N*len(u.Entries)); got != want {
		b.Fatalf("%d entries counted stale over %d updates, want %d", got, b.N, want)
	}
}

// MicroEWOSyncRound measures the periodic-sync walk: one op is one round of
// the packet generator on WarmSyncNode's node, which wrote none of its rows
// itself. Its delta rounds find nothing to send; every eighth walk is a
// floor walk, whose 64-key windows of 512 entries leave as MTU-shaped
// updates. So ns/op is a round's cost averaged over the walk's own mix
// (steady-state target: 0 allocs/op). The clock runs one sync period per op.
func MicroEWOSyncRound(b *testing.B) {
	node, _ := WarmSyncNode(b)
	eng := node.Switch().Engine()
	eng.RunFor(microSyncWarmKeys / microSyncKeys * microSyncPeriod) // one whole walk
	packets, bytes := node.Stats.SyncPackets.Value(), node.Stats.SyncBytes.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.RunFor(microSyncPeriod)
	}
	b.StopTimer()
	p, by := node.Stats.SyncPackets.Value()-packets, node.Stats.SyncBytes.Value()-bytes
	if floorRounds := 8 * microSyncWarmKeys / microSyncKeys; b.N >= floorRounds && p == 0 {
		b.Fatalf("no sync packet over %d rounds, a floor walk's worth", b.N)
	}
	if p > 0 && by/p > wire.MaxUpdateBytes {
		b.Fatalf("%d sync bytes in %d packets: past wire.MaxUpdateBytes", by, p)
	}
}

// microSink keeps MicroEWOSum's reads from being optimized away.
var microSink uint64

// MicroEWOSum measures a counter read on a warm node whose rows hold three
// owners' slots (steady-state target: 0 allocs/op).
func MicroEWOSum(b *testing.B) {
	reg := WarmCounter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		microSink += reg.Sum(uint64(i) % microWarmKeys)
	}
}

// MicroSROLocalRead measures the clean-key local read path (steady-state
// target: 0 allocs/op).
func MicroSROLocalRead(b *testing.B) {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	regs, err := c.DeclareStrong("b", swishmem.StrongOptions{Capacity: 1024, ValueWidth: 8})
	if err != nil {
		b.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	regs[0].Write(1, []byte("12345678"), nil)
	c.RunFor(10 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		regs[1].Read(1, func(v []byte, ok bool) {})
	}
}

// MicroNetemSendDeliver measures one message over a simulated link, the body
// of the repo benchmark's netem.send_deliver probe: Send on a datacenter
// link, then the queued event that delivers it. The engine runs after every
// 256 sends, which share an instant and one link (steady-state target:
// 0 allocs/op).
func MicroNetemSendDeliver(b *testing.B) {
	eng := sim.NewEngine(1)
	microSendDeliver(b, eng, netem.New(eng, netem.DataCenter()), 256)
}

// MicroNetemLocalSend measures that message on a live fabric's local network
// as it is now (netem.NewLocal): the handler runs inside Send and the engine
// sees no event (steady-state target: 0 allocs/op).
func MicroNetemLocalSend(b *testing.B) {
	eng := sim.NewEngine(1)
	microSendDeliver(b, eng, netem.NewLocal(eng), 1)
}

// microSendDeliver sends b.N heartbeats 1 -> 2 on nw, running the engine
// after every drainEvery of them.
func microSendDeliver(b *testing.B, eng *sim.Engine, nw *netem.Network, drainEvery int) {
	delivered := 0
	sink := func(netem.Addr, any, int) { delivered++ }
	nw.Attach(1, sink)
	nw.Attach(2, sink)
	hb := &wire.Heartbeat{From: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Send(1, 2, hb, hb.Size())
		if i%drainEvery == drainEvery-1 {
			eng.Run()
		}
	}
	eng.Run()
	if delivered != b.N {
		b.Fatalf("%d of %d messages delivered", delivered, b.N)
	}
}
