// Benchmarks regenerating the paper's tables and claims: one benchmark per
// experiment in the DESIGN.md index (E1–E18), plus microbenchmarks of the
// protocol hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark reports the wall time of one full experiment
// run; the regenerated rows themselves are printed by cmd/benchtab.
package swishmem_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"swishmem"
	"swishmem/internal/experiments"
	"swishmem/internal/sim"
	"swishmem/internal/timesync"
	"swishmem/internal/wire"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := e.Run(int64(i + 1))
		for _, n := range res.Notes {
			if strings.Contains(n, "SHAPE VIOLATION") || strings.Contains(n, "MISMATCH") {
				b.Fatalf("%s: %s", id, n)
			}
		}
	}
}

// BenchmarkTable1_NFAccessPatterns regenerates Table 1 (E1).
func BenchmarkTable1_NFAccessPatterns(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2_SwitchVsServer regenerates the §3.1 throughput claim.
func BenchmarkE2_SwitchVsServer(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3_SyncBandwidth regenerates the §6.2 bandwidth math.
func BenchmarkE3_SyncBandwidth(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4_SROLatency regenerates the §6.1 latency characterization.
func BenchmarkE4_SROLatency(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5_ProtocolMatrix regenerates the §5 cost matrix.
func BenchmarkE5_ProtocolMatrix(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6_EWOConvergence regenerates the §6.2 convergence-under-loss sweep.
func BenchmarkE6_EWOConvergence(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7_Failover regenerates the §6.3 failover/recovery measurements.
func BenchmarkE7_Failover(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8_LWWvsCRDT regenerates the §6.2 merge comparison.
func BenchmarkE8_LWWvsCRDT(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9_PCCViolations regenerates the §3.2 sharded-vs-replicated LB comparison.
func BenchmarkE9_PCCViolations(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10_Memory regenerates the §7 SRAM overhead tables.
func BenchmarkE10_Memory(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11_Batching regenerates the §7 batching trade-off.
func BenchmarkE11_Batching(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12_DataVsControlPlane regenerates the §3.3 comparison.
func BenchmarkE12_DataVsControlPlane(b *testing.B) { benchExperiment(b, "E12") }

// --- protocol hot-path microbenchmarks ---
//
// The benchmark bodies live in internal/experiments/micro.go (`make bench`
// runs them). They are for measuring while you work; the gated numbers are
// the repo benchmark's (`bash bench/run.sh`, BENCHMARK.json), and the
// allocation counts are pinned by the budget tests below.

// BenchmarkSROWriteCommit measures the replicated write path on a 3-switch
// chain; commit drains run off the clock (see MicroSROWriteCommit).
func BenchmarkSROWriteCommit(b *testing.B) { experiments.MicroSROWriteCommit(b) }

// BenchmarkEWOCounterAdd measures the EWO fast path one add at a time: local
// apply plus the multicast of a one-entry update.
func BenchmarkEWOCounterAdd(b *testing.B) { experiments.MicroEWOCounterAdd(b) }

// BenchmarkEWOBurstAdd measures it in bursts: 32 adds over 16 keys in one
// instant, their one update flushed and delivered on the clock.
func BenchmarkEWOBurstAdd(b *testing.B) { experiments.MicroEWOBurstAdd(b) }

// BenchmarkEWOMerge measures the EWO receive path: an 8-entry update merged
// into a warm 3-member counter.
func BenchmarkEWOMerge(b *testing.B) { experiments.MicroEWOMerge(b) }

// BenchmarkEWOSyncMerge measures it on a periodic-sync packet: a 64-key x
// 8-owner sync update, every entry stale, merged into a warm node.
func BenchmarkEWOSyncMerge(b *testing.B) { experiments.MicroEWOSyncMerge(b) }

// BenchmarkEWOSyncRound measures one periodic-sync round of a warm 8-owner
// node's walk, delta and floor rounds in the walk's own mix.
func BenchmarkEWOSyncRound(b *testing.B) { experiments.MicroEWOSyncRound(b) }

// BenchmarkEWOSum measures a counter read on a warm 3-member counter.
func BenchmarkEWOSum(b *testing.B) { experiments.MicroEWOSum(b) }

// BenchmarkSROLocalRead measures the clean-key local read path.
func BenchmarkSROLocalRead(b *testing.B) { experiments.MicroSROLocalRead(b) }

// BenchmarkEngineDeepQueue measures a simulator event's schedule+pop with
// ~1k far-future events pending (the trace-replay shape).
func BenchmarkEngineDeepQueue(b *testing.B) { experiments.MicroEngineDeepQueue(b) }

// BenchmarkEngineScheduleRun measures schedule+pop with 1024 events inside
// 100 ns: the shape a timing wheel cannot help, which must not get slower.
func BenchmarkEngineScheduleRun(b *testing.B) { experiments.MicroEngineScheduleRun(b) }

// BenchmarkEngineFanout measures an EWO multicast's 15 engine events: a flush
// scheduling 7 same-instant keyed arrivals, each with a +400 ns stage.
func BenchmarkEngineFanout(b *testing.B) { experiments.MicroEngineFanout(b) }

// BenchmarkDDoSReplay measures a packet of the sim-ddos-8sw replay end to
// end in the simulator; profile it to split the packet's cost by layer.
func BenchmarkDDoSReplay(b *testing.B) { experiments.MicroDDoSReplay(b) }

// BenchmarkNetemSendDeliver measures a message over a simulated link: Send
// plus the queued event that delivers it, 256 same-instant sends per drain.
func BenchmarkNetemSendDeliver(b *testing.B) { experiments.MicroNetemSendDeliver(b) }

// BenchmarkNetemLocalSend measures it on a live fabric's local network now:
// Send runs the handler itself and the engine sees no event.
func BenchmarkNetemLocalSend(b *testing.B) { experiments.MicroNetemLocalSend(b) }

// --- steady-state allocation budgets ---
//
// These tests pin the zero-allocation guarantees the pooled hot paths
// provide; a regression that reintroduces per-op garbage fails here long
// before it shows up in benchmark noise.

// TestEWOCounterAddAllocBudget: after warmup, an EWO counter increment
// (local apply + multicast enqueue + pooled flush) allocates nothing.
func TestEWOCounterAddAllocBudget(t *testing.T) {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	regs, err := c.DeclareCounter("b", swishmem.EventualOptions{Capacity: 64, DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	// Warm pools (events, deliveries, tasks, updates) and the slot maps.
	for i := 0; i < 512; i++ {
		regs[0].Add(uint64(i%64), 1)
	}
	c.RunFor(10 * time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		regs[0].Add(3, 1)
		// Drain the multicast deliveries so pooled events, network
		// deliveries, and updates cycle back to their free lists.
		c.RunFor(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("EWO counter Add+deliver allocates %v per op, want 0", allocs)
	}
}

// TestEWOBurstAddAllocBudget: the same path the way a busy switch drives it —
// 32 adds over 16 keys in one instant leave as one 16-entry update, and the
// whole burst (flush event, both deliveries, the merges) allocates nothing.
func TestEWOBurstAddAllocBudget(t *testing.T) {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	regs, err := c.DeclareCounter("b", swishmem.EventualOptions{Capacity: 64, DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	burst := func() {
		for i := 0; i < 32; i++ {
			regs[0].Add(uint64(i%16), 1)
		}
		c.RunFor(100 * time.Microsecond)
	}
	for i := 0; i < 64; i++ {
		burst()
	}
	sent := regs[0].Node().Stats.UpdatesSent.Value()
	if allocs := testing.AllocsPerRun(1000, burst); allocs != 0 {
		t.Fatalf("a 32-add burst + deliver allocates %v per burst, want 0", allocs)
	}
	if got := regs[0].Node().Stats.UpdatesSent.Value() - sent; got != 1001 {
		t.Fatalf("%d updates over 1001 bursts, want one each; the budget did not measure the burst path", got)
	}
	if got, want := regs[1].Sum(0), regs[0].Sum(0); got != want {
		t.Fatalf("a peer reads %d on key 0, the writer %d: the bursts were not delivered", got, want)
	}
}

// TestEWOLWWWriteAllocBudget: an LWW write copies the caller's value into its
// cell and once more for the update entry, the one allocation — the cell may
// be overwritten while the update is in flight — and over its whole life
// (flush, delivery, merge) nothing else allocates: each receiving replica
// copies the value into its own cell.
func TestEWOLWWWriteAllocBudget(t *testing.T) {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	regs, err := c.DeclareEventual("b", swishmem.EventualOptions{Capacity: 64, ValueWidth: 8, DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	val := []byte("12345678")
	for i := 0; i < 512; i++ {
		regs[0].Write(uint64(i%64), val)
		c.RunFor(10 * time.Microsecond)
	}
	c.RunFor(10 * time.Millisecond)
	if allocs := testing.AllocsPerRun(1000, func() { regs[0].Write(3, val) }); allocs != 1 {
		t.Fatalf("LWW Write allocates %v per op, want 1 (the value copy)", allocs)
	}
	c.RunFor(time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		regs[0].Write(3, val)
		c.RunFor(time.Millisecond)
	})
	if allocs != 1 {
		t.Fatalf("LWW Write+deliver allocates %v per op, want 1 (the entry's copy)", allocs)
	}
}

// TestEWOLWWMergeAllocBudget: merging an 8-entry LWW update into warm keys
// allocates nothing, whether its stamps are fresh (every value copied into
// its cell) or stale.
func TestEWOLWWMergeAllocBudget(t *testing.T) {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	regs, err := c.DeclareEventual("b", swishmem.EventualOptions{Capacity: 64, ValueWidth: 8, DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	node := regs[0].Node()
	u := &wire.EWOUpdate{Reg: node.Config().Reg, From: 2, Entries: make([]wire.EWOEntry, 8)}
	val, stamp := []byte("12345678"), sim.Time(0)
	fill := func() {
		for j := range u.Entries {
			u.Entries[j] = wire.EWOEntry{Key: uint64(j), Stamp: timesync.Stamp{Time: stamp, Node: 2}, Value: val}
		}
	}
	stamp++
	fill()
	node.Handle(2, u) // warm: the first touch of each key
	merged, stale := node.Stats.EntriesMerged.Value(), node.Stats.EntriesStale.Value()
	if allocs := testing.AllocsPerRun(1000, func() { stamp++; fill(); node.Handle(2, u) }); allocs != 0 {
		t.Fatalf("LWW merge of an 8-entry update with fresh stamps allocates %v per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { node.Handle(2, u) }); allocs != 0 {
		t.Fatalf("LWW merge of an 8-entry stale update allocates %v per op, want 0", allocs)
	}
	if got, want := node.Stats.EntriesMerged.Value()-merged, uint64(8*1001); got != want {
		t.Fatalf("%d entries merged over 1001 fresh updates, want %d", got, want)
	}
	if got, want := node.Stats.EntriesStale.Value()-stale, uint64(8*1001); got != want {
		t.Fatalf("%d entries stale over 1001 repeated updates, want %d", got, want)
	}
}

// TestEWOMergeAllocBudget: merging a received update into warm keys — a
// newer slot value for each of 8 keys — allocates nothing.
func TestEWOMergeAllocBudget(t *testing.T) {
	node := experiments.WarmCounter(t).Node()
	u := &wire.EWOUpdate{Reg: node.Config().Reg, From: 2, Entries: make([]wire.EWOEntry, 8)}
	val, inc := uint64(1), []byte{0}
	allocs := testing.AllocsPerRun(1000, func() {
		val++
		for j := range u.Entries {
			u.Entries[j] = wire.EWOEntry{Key: uint64(j), Stamp: timesync.Stamp{Time: sim.Time(val), Node: 2}, Value: inc}
		}
		node.Handle(2, u)
	})
	if allocs != 0 {
		t.Fatalf("EWO merge of an 8-entry update allocates %v per op, want 0", allocs)
	}
	if merged := node.Stats.EntriesMerged.Value(); merged < 8*1000 {
		t.Fatalf("only %d entries merged; the budget did not measure the merge path", merged)
	}
}

// TestEWOSyncMergeAllocBudget: merging a 512-entry sync update whose entries
// are all stale into a warm node allocates nothing.
func TestEWOSyncMergeAllocBudget(t *testing.T) {
	node, u := experiments.WarmSyncNode(t)
	stale := node.Stats.EntriesStale.Value()
	if allocs := testing.AllocsPerRun(100, func() { node.Handle(2, u) }); allocs != 0 {
		t.Fatalf("EWO merge of a %d-entry sync update allocates %v per op, want 0", len(u.Entries), allocs)
	}
	if got := node.Stats.EntriesStale.Value() - stale; got != uint64(101*len(u.Entries)) {
		t.Fatalf("%d entries counted stale over 101 updates; the budget did not measure the sync merge path", got)
	}
}

// TestEWOSumAllocBudget: reading a warm counter allocates nothing.
func TestEWOSumAllocBudget(t *testing.T) {
	reg := experiments.WarmCounter(t)
	var total uint64
	allocs := testing.AllocsPerRun(1000, func() { total += reg.Sum(3) })
	if allocs != 0 || total == 0 {
		t.Fatalf("EWO Sum allocates %v per op (total %d), want 0", allocs, total)
	}
}

// TestEventSchedulingAllocBudget: scheduling and running a pooled simulator
// event allocates nothing once the free list is warm.
func TestEventSchedulingAllocBudget(t *testing.T) {
	eng := sim.NewEngine(1)
	fn := func() {}
	eng.ScheduleAfter(1, fn)
	eng.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		eng.ScheduleAfter(1, fn)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("event scheduling allocates %v per op, want 0", allocs)
	}
}

// TestEngineDeepQueueAllocBudget: schedule+pop through all three tiers of the
// pending set — the sorted run under the clock, the timing wheel, the outer
// wheel — with ~1k far-future events pending allocates nothing.
func TestEngineDeepQueueAllocBudget(t *testing.T) {
	run := experiments.DeepQueue()
	run(1 << 16)
	if allocs := testing.AllocsPerRun(100, func() { run(1024) }); allocs != 0 {
		t.Fatalf("1024 deep-queue events allocate %v, want 0", allocs)
	}
}

// TestEngineFanoutAllocBudget: an EWO multicast's shape on the engine — a
// flush, 7 same-instant keyed arrivals, their stages — allocates nothing.
func TestEngineFanoutAllocBudget(t *testing.T) {
	run := experiments.Fanout()
	run(1 << 12)
	if allocs := testing.AllocsPerRun(100, func() { run(64) }); allocs != 0 {
		t.Fatalf("64 multicasts allocate %v, want 0", allocs)
	}
}

// TestSROWriteLifecycleAllocBudget: an SRO write's whole life on a 3-switch
// chain — submit, forward hop by hop, tail commit, acks, the caller's done
// callback, with the retry timer running through the drain that commits —
// allocates nothing: the Write the writer sends (sendWrite) and the WriteAck
// the tail answers with (commitAtTail) come from the writer's and the tail's
// free lists. BenchmarkSROWriteCommit stops its timer
// before the drain and so covers submission only; the per-message handlers
// run here.
func TestSROWriteLifecycleAllocBudget(t *testing.T) {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	regs, err := c.DeclareStrong("b", swishmem.StrongOptions{Capacity: 1024, ValueWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	val := []byte("12345678")
	committed := 0
	done := func(ok bool) {
		if ok {
			committed++
		}
	}
	write := func() {
		regs[0].Write(3, val, done)
		c.RunFor(time.Millisecond)
	}
	for i := 0; i < 512; i++ {
		write()
	}
	committed = 0
	if allocs := testing.AllocsPerRun(1000, write); allocs != 0 {
		t.Fatalf("an SRO write, submit to commit callback, allocates %v, want 0", allocs)
	}
	if committed != 1001 {
		t.Fatalf("%d of 1001 writes committed; the budget did not measure the commit path", committed)
	}
}

// TestSROLocalReadAllocBudget: a clean-key local read allocates nothing.
func TestSROLocalReadAllocBudget(t *testing.T) {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	regs, err := c.DeclareStrong("b", swishmem.StrongOptions{Capacity: 1024, ValueWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	regs[0].Write(1, []byte("12345678"), nil)
	c.RunFor(10 * time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		regs[1].Read(1, func(v []byte, ok bool) {})
	})
	if allocs != 0 {
		t.Fatalf("SRO local read allocates %v per op, want 0", allocs)
	}
}

// BenchmarkE13_ReadPathAblation regenerates the local-read ablation.
func BenchmarkE13_ReadPathAblation(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14_GroupSharing regenerates the §7 group-sharing ablation.
func BenchmarkE14_GroupSharing(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15_LossAnomaly regenerates the §9 anomaly-window measurement.
func BenchmarkE15_LossAnomaly(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE18_NthLossAnomaly compares the anomaly rate under deterministic
// every-Nth loss vs random loss at matched long-run rates.
func BenchmarkE18_NthLossAnomaly(b *testing.B) { benchExperiment(b, "E18") }

// TestDocsCiteNoDeletedSnapshot: the BENCH_<n>.json snapshots, cmd/benchdiff
// and benchtab's -json/-pps half are gone (bench/ is the one perf gate), and
// so are the second SRO node type and the interface over the two (ISSUE 22:
// *chain.Node is the only one) and what ISSUE 23 deleted, so no document may
// send a reader to them. Neither may one cite the deleted parallel (sharded)
// simulator, netem's deleted delivery bursts or the pending set's heaps.
// CHANGES.md, ROADMAP.md and ISSUE.md are history and planning and may name
// what was deleted. bench/ is frozen outside benchmark PRs and its README
// still names the deleted interface where it means (*chain.Node).Counters/Get:
// the identifiers of ISSUE 22 are not checked there until a benchmark PR
// fixes that line and drops the exemption.
//
// The same walk holds every `make <target>` a document cites in backticks to
// the Makefile's targets and every backticked dotted flag (`-explore.seed=N`,
// `-live.loss`) to the flags some flag.* call of the module or bench/
// defines, and rejects a ROADMAP item cited by number ("ROADMAP item 3",
// "ROADMAP 2(c)"): the numbers change at every re-anchor, so a document
// cites an item by its title (bench/ excepted as above).
func TestDocsCiteNoDeletedSnapshot(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	citedTarget := regexp.MustCompile("`make ([A-Za-z0-9_-]+)[^`]*`")
	citedItem := regexp.MustCompile(`ROADMAP (items? )?[0-9]`)
	flags := definedFlags(t)
	citedFlag := regexp.MustCompile("(?:^|[\\s(`])-((?:explore|live|soak|wire)\\.[A-Za-z0-9_-]+)")
	// A backticked `Type.Field` or `pkg.Type.Field` on a *Config/*Options type
	// must name a field or method the type has (callerCensus knows them all).
	backticked := regexp.MustCompile("`[^`]*`")
	citedField := regexp.MustCompile(`\b(?:([a-z]\w*)\.)?([A-Z]\w*(?:Config|Options))\.([A-Z]\w*)`)
	members := callerCensus(t).members
	gone := []string{"BENCH_", "benchdiff", "make snapshot", "make pps", "-pps"}
	goneOutsideBench := []string{"Replicator", "RetransmitNode", "NewRetransmitNode", "chain.New(", "replicator.go",
		// ISSUE 23: the second copies of what sim and live both run, and
		// exported code only tests called.
		"startHeartbeats", "sendRng", "linkRand", "DupLag", "ReorderLagMax", "WriteLatency(",
		"SetHandler(", "live.Mesh", "Node.Multicast", ".AddPeer(",
		"pisa.Table", "NewMeter", "NewCounterArray", "U64Add", "VerifyIPChecksum", "NodeUp(",
		"Directory.Migrate", "RemoveReplica", "Directory.Holds", "Directory.Registers",
		// The parallel (sharded) simulator.
		"NewSharded", "sim.Group", "ShardGroup", "SetShards", "benchtab -shards", "SHARDS=",
		"RemotePooled", "CloneRemote", "MinCrossShardLatency",
		// The socket read loop and inbox, and the Lamport clock.
		"readLoop", "inboxSpare", "sleepFor", "NewLamport", "timesync.Lamport",
		// netem's delivery bursts and what made them look like one event per
		// arrival, and the stats helpers only tests called.
		"SetCoalesce", "DisableCoalescing", "CreditEvents", "EmitEventInstant", "deliverEach",
		"arriveUnbursted", "stats.Percentiles",
		// The sketch code only tests called.
		"HeavyHitters", "CountMin.Marshal", "UnmarshalCountMin", "NewCountMinForError",
		// The pending set's heaps.
		"eventHeap", "tierFar",
		// Inline, uncoalesced and destination-sharded live egress.
		"TestFabricInlineEgressStartsNoGoroutines", "eworkers",
		// The LWW map beside the EWO register table, and the example that
		// Example functions replaced.
		"lwwCell", "syncKeys", "examples/quickstart",
		// The per-register sync packing knob and the window's old name.
		"SyncPacketBytes", "syncPacketBytes", "SyncEntriesPerPacket",
		// The map-backed SRO/ERO store the keyed register resource replaced.
		"KVStore", "NewKVStore",
		// What the caller gate found: live partition injection, egress
		// mirroring and the switch's other send paths, functions nothing
		// called, the example programs, and options nothing set.
		"SetPartition", "SetPeerGroup", "PartDropped", "live.part.dropped", "partitionedLocked",
		"Switch.Mirror", "taskMirror", "Meta.Mirrored", "PuntMsg", "SendPacket",
		"Live.Present", "Live.Configured", "AddPending", "Tracer.Span", "examples/",
		"SyncDisabled:", "`SyncDisabled`", "Config.SyncDisabled", "BatchTimeout", "batchTimer",
		"ControlPlaneBacked", "StrongOptions.Groups", "StrongOptions.RetransmitDepth", "EventualOptions.PN",
		"SwitchMemory", "PortsPerSwitch", "PortBase", "MaxWindows", "FirewallOptions.Inside",
		"ClockSkew", "ConfigDelay", "FailureTimeout", "MeanPacketGap",
		// The packet pool and the PN-counter, which only tests drove.
		"PacketPool", "packet.Pool", "Recycle()", "PNCounter",
		// The controller-less cluster and the wiring helpers it needed.
		"WithoutController", "noController", "wireChain", "wireGroup",
		// The local network's queued arrivals and per-link books.
		"TestLocalDelayedStillQueues", "TestLocalSendBehindAnOpenBurstQueues"}
	history := map[string]bool{"CHANGES.md": true, "ROADMAP.md": true, "ISSUE.md": true}
	docs := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == ".bench_build" {
				return fs.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".md" || history[path] {
			return nil
		}
		docs++
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		names := gone
		outsideBench := !strings.HasPrefix(path, "bench"+string(filepath.Separator))
		if outsideBench {
			names = append(names[:len(names):len(names)], goneOutsideBench...)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, g := range names {
				if strings.Contains(line, g) {
					t.Errorf("%s:%d cites %q, which no longer exists", path, i+1, g)
				}
			}
			if !outsideBench {
				continue
			}
			for _, span := range backticked.FindAllString(line, -1) {
				for _, m := range citedField.FindAllStringSubmatch(span, -1) {
					typ := m[2]
					if m[1] != "" {
						typ = m[1] + "." + typ
					}
					if has, ok := members[typ]; ok && !has[m[3]] {
						t.Errorf("%s:%d cites %s.%s, which %s does not have", path, i+1, typ, m[3], typ)
					}
				}
				for _, m := range citedFlag.FindAllStringSubmatch(span, -1) {
					if !flags[m[1]] {
						t.Errorf("%s:%d cites -%s, which no flag.* call defines", path, i+1, m[1])
					}
				}
			}
			if m := citedItem.FindString(line); m != "" {
				t.Errorf("%s:%d cites %q…; cite a ROADMAP item by its title", path, i+1, m)
			}
			for _, m := range citedTarget.FindAllStringSubmatch(line, -1) {
				if !targets[m[1]] {
					t.Errorf("%s:%d cites `make %s`, which the Makefile does not have", path, i+1, m[1])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if docs < 5 {
		t.Fatalf("checked %d documents; the walk did not start at the repo root", docs)
	}
}

// definedFlags returns the name of every flag a flag.* call in a .go file of
// the module or bench/ defines.
func definedFlags(t *testing.T) map[string]bool {
	t.Helper()
	def := regexp.MustCompile(`flag\.[A-Z]\w*\(\s*(?:&[\w.]+,\s*)?"([^"]+)"`)
	flags := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir
		}
		if filepath.Ext(path) != ".go" {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range def.FindAllSubmatch(src, -1) {
			flags[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return flags
}

// TestChangesEntriesAreShort: every CHANGES.md entry below the cap marker is
// one paragraph of at most 1 500 bytes, so the file stays a log a reader can
// scan. Entries above the marker predate the cap.
func TestChangesEntriesAreShort(t *testing.T) {
	text, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	const marker = "<!-- Entries below: one paragraph each, at most 1 500 bytes. -->"
	_, below, ok := strings.Cut(string(text), marker)
	if !ok {
		t.Fatalf("CHANGES.md has no cap marker %q", marker)
	}
	entries := 0
	for i, para := range strings.Split(strings.TrimSpace(below), "\n") {
		switch {
		case para == "":
			continue
		case strings.HasPrefix(para, " ") || strings.HasPrefix(para, "\t"):
			t.Errorf("CHANGES.md entry %d runs to a second line; keep an entry to one paragraph on one line", entries)
		case len(para) > 1500:
			t.Errorf("CHANGES.md entry %d (line %d below the marker) is %d bytes, over the 1 500-byte cap: %.60s…", entries+1, i+1, len(para), para)
		}
		entries++
	}
	if entries == 0 {
		t.Fatal("no CHANGES.md entry below the cap marker")
	}
}

// rootDocs are the root markdown documents the project keeps from change to
// change; rootDocsCap is the most bytes they may hold together. The cap may
// only fall: a change that adds to one document removes as many bytes
// elsewhere, and a change that cuts lowers the cap to the new total.
var rootDocs = []string{
	"CHANGES.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "PAPERS.md",
	"README.md", "ROADMAP.md", "SNIPPETS.md", "TESTING.md",
}

const rootDocsCap = 393269

// TestRootDocsUnderCap holds the kept root markdown to rootDocsCap.
func TestRootDocsUnderCap(t *testing.T) {
	total := 0
	for _, p := range rootDocs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%v: the test runs at the repo root, where every kept document is", err)
		}
		total += int(fi.Size())
	}
	if total > rootDocsCap {
		t.Errorf("root markdown is %d bytes, over the %d-byte cap by %d: remove as many bytes elsewhere",
			total, rootDocsCap, total-rootDocsCap)
	}
}
