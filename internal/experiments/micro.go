package experiments

import (
	"testing"
	"time"

	"swishmem"
	"swishmem/internal/netem"
	"swishmem/internal/sim"
	"swishmem/internal/timesync"
	"swishmem/internal/wire"
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
// events inside 100 ns, so everything shares one bucket or two and the
// bottom-tier heap does all the ordering. It must stay level with a plain
// heap. Same body as BenchmarkEngineScheduleRun in internal/sim.
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
