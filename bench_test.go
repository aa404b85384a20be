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

// BenchmarkEWOSum measures a counter read on a warm 3-member counter.
func BenchmarkEWOSum(b *testing.B) { experiments.MicroEWOSum(b) }

// BenchmarkSROLocalRead measures the clean-key local read path.
func BenchmarkSROLocalRead(b *testing.B) { experiments.MicroSROLocalRead(b) }

// BenchmarkShardedCounterAdd measures the EWO fast path with the cluster
// sharded across 3 engines, windowed drain included in the timed region.
func BenchmarkShardedCounterAdd(b *testing.B) { experiments.MicroShardedCounterAdd(b) }

// BenchmarkEngineDeepQueue measures a simulator event's schedule+pop with
// ~1k far-future events pending (the trace-replay shape).
func BenchmarkEngineDeepQueue(b *testing.B) { experiments.MicroEngineDeepQueue(b) }

// BenchmarkEngineScheduleRun measures schedule+pop with 1024 events inside
// 100 ns: the shape a timing wheel cannot help, which must not get slower.
func BenchmarkEngineScheduleRun(b *testing.B) { experiments.MicroEngineScheduleRun(b) }

// BenchmarkNetemSendDeliver measures a message over a simulated link: Send
// plus its share of the queued burst event that delivers 256 at once.
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

// TestEWOBatchTimeoutAllocBudget: the batching path whose flush comes from
// the BatchTimeout timer — arm the timer, fire it, flush, deliver — allocates
// nothing either: the timer handle is a value and its callback is the node's
// one bound-once flush closure.
func TestEWOBatchTimeoutAllocBudget(t *testing.T) {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1})
	regs, err := c.DeclareCounter("b", swishmem.EventualOptions{
		Capacity: 64, DisableSync: true, Batch: 16, BatchTimeout: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	for i := 0; i < 512; i++ {
		regs[0].Add(uint64(i%64), 1)
		c.RunFor(10 * time.Microsecond)
	}
	c.RunFor(10 * time.Millisecond)
	sent := regs[0].Node().Stats.UpdatesSent.Value()
	allocs := testing.AllocsPerRun(1000, func() {
		regs[0].Add(3, 1) // 1 of 16: only the timer can flush it
		c.RunFor(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("EWO Add + batch-timeout flush allocates %v per op, want 0", allocs)
	}
	if got := regs[0].Node().Stats.UpdatesSent.Value() - sent; got < 1000 {
		t.Fatalf("%d updates over 1000 timed-out batches; the budget did not measure the timer path", got)
	}
}

// TestEWOLWWWriteAllocBudget: an LWW write copies the caller's value once —
// the replica cell and the update entry share that copy — and over its whole
// life (flush, delivery, merge) the only other allocations are the one copy
// each receiving replica keeps.
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
	if allocs != 3 {
		t.Fatalf("LWW Write+deliver allocates %v per op, want 3 (the writer's copy and one per receiving replica)", allocs)
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

// TestEWOSumAllocBudget: reading a warm counter allocates nothing.
func TestEWOSumAllocBudget(t *testing.T) {
	reg := experiments.WarmCounter(t)
	var total uint64
	allocs := testing.AllocsPerRun(1000, func() { total += reg.Sum(3) })
	if allocs != 0 || total == 0 {
		t.Fatalf("EWO Sum allocates %v per op (total %d), want 0", allocs, total)
	}
}

// TestShardedCounterAddAllocBudget: the sharded steady state allocates
// nothing either — the per-shard window loop is the same pooled Step as the
// sequential engine, the barrier is slice resets, and shard wakeups are
// channel sends of a scalar. This pins the parallel mode's zero-alloc
// hot-path guarantee.
func TestShardedCounterAddAllocBudget(t *testing.T) {
	c, _ := swishmem.New(swishmem.Config{Switches: 3, Seed: 1, Shards: 3})
	defer c.Close()
	regs, err := c.DeclareCounter("b", swishmem.EventualOptions{Capacity: 64, DisableSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Millisecond)
	for i := 0; i < 512; i++ {
		regs[0].Add(uint64(i%64), 1)
	}
	c.RunFor(10 * time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		regs[0].Add(3, 1)
		c.RunFor(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("sharded counter Add+window drain allocates %v per op, want 0", allocs)
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
// pending set — heap under the clock, timing wheel, far heap — with ~1k
// far-future events pending allocates nothing.
func TestEngineDeepQueueAllocBudget(t *testing.T) {
	run := experiments.DeepQueue()
	run(1 << 16)
	if allocs := testing.AllocsPerRun(100, func() { run(1024) }); allocs != 0 {
		t.Fatalf("1024 deep-queue events allocate %v, want 0", allocs)
	}
}

// TestSROWriteLifecycleAllocBudget: an SRO write's whole life on a 3-switch
// chain — submit, forward hop by hop, tail commit, acks, the caller's done
// callback, with the retry timer running through the drain that commits —
// allocates twice: the Write the writer sends (sendWrite) and the WriteAck the
// tail answers with (commitAtTail). BenchmarkSROWriteCommit stops its timer
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
	if allocs := testing.AllocsPerRun(1000, write); allocs > 2 {
		t.Fatalf("an SRO write, submit to commit callback, allocates %v, want <= 2", allocs)
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
// send a reader to them.
// CHANGES.md, ROADMAP.md and ISSUE.md are history and planning and may name
// what was deleted. bench/ is frozen outside benchmark PRs and its README
// still names the deleted interface where it means (*chain.Node).Counters/Get:
// the identifiers of ISSUE 22 are not checked there until a benchmark PR
// fixes that line and drops the exemption.
//
// The same walk holds every `make <target>` a document cites in backticks to
// the Makefile's targets (bench/ excepted as above).
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
	gone := []string{"BENCH_", "benchdiff", "make snapshot", "make pps", "-pps"}
	goneOutsideBench := []string{"Replicator", "RetransmitNode", "NewRetransmitNode", "chain.New(", "replicator.go",
		// ISSUE 23: the second copies of what sim and live both run, and
		// exported code only tests called.
		"startHeartbeats", "sendRng", "linkRand", "DupLag", "ReorderLagMax", "WriteLatency(",
		"SetHandler(", "live.Mesh", "Node.Multicast", ".AddPeer(",
		"pisa.Table", "NewMeter", "NewCounterArray", "U64Add", "VerifyIPChecksum", "NodeUp(",
		"Directory.Migrate", "RemoveReplica", "Directory.Holds", "Directory.Registers"}
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
