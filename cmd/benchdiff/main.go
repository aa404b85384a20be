// benchdiff is the benchmark regression guard: it compares a freshly
// generated benchtab snapshot (see cmd/benchtab -json) against a committed
// baseline and fails when the hot paths got slower or started allocating.
//
// Usage:
//
//	benchdiff -base BENCH_3.json -new BENCH_new.json
//	benchdiff -base BENCH_3.json -new BENCH_new.json -tolerance 0.15
//
// Checks, in order:
//
//  1. Every microbenchmark present in the baseline must be present in the
//     new snapshot (a vanished benchmark hides a regression).
//  2. ns/op must not regress by more than -tolerance (default 10%).
//  3. allocs/op must not increase at all — the pooled hot paths are
//     zero-alloc by design, and a single new allocation per op is a real
//     regression, not noise.
//  4. When the generating machine can overlap shards (cpus >= 4 in the new
//     snapshot), the parallel-scaling experiment must report a speedup of
//     at least -minspeedup (default 1.8) at 4 shards. On smaller hosts the
//     check is skipped: conservative windows still run correctly on one
//     core, they just cannot overlap, so wall-clock speedup is meaningless
//     there.
//  5. Every -pps macro present in both snapshots must keep at least
//     (1 - -ppstolerance) of its baseline rate (ops/sec), and on cpus >= 4
//     the egress-worker pump must hold -minppsscale of the single-pump rate
//     (self-disabling on smaller hosts, mirroring check 4).
//  6. A macro carrying allocs_per_datagram meta in both snapshots must not
//     grow it by more than 0.5: the batched receive path decodes into
//     pooled view sets and is zero-alloc by design.
//
// Wall times of whole experiments are reported but never gated — they vary
// with machine load far more than the testing.Benchmark micros do.
//
// Exit status: 0 clean, 1 regression, 2 usage or unreadable snapshot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// micro mirrors cmd/benchtab's microResult.
type micro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// experiment mirrors cmd/benchtab's expResult.
type experiment struct {
	ID      string             `json:"id"`
	WallMs  float64            `json:"wall_ms"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// macro mirrors cmd/benchtab's MacroResult (schema 4 packets/sec rows;
// schema 5 adds per-row meta like allocs_per_datagram).
type macro struct {
	Name string             `json:"name"`
	PPS  float64            `json:"pps"`
	Ops  uint64             `json:"ops"`
	Meta map[string]float64 `json:"meta,omitempty"`
}

// snapshot mirrors cmd/benchtab's snapshot. Schema 2 baselines (no shards/
// cpus fields) load with zero values, which only disables the speedup gate;
// schema 3 baselines have no macro rows, which only disables the pps floor.
type snapshot struct {
	Schema      int          `json:"schema"`
	Seed        int64        `json:"seed"`
	CPUs        int          `json:"cpus"`
	Micro       []micro      `json:"micro"`
	Experiments []experiment `json:"experiments"`
	Macro       []macro      `json:"macro,omitempty"`
}

// load reads a snapshot leniently: the document itself must be JSON, but a
// section or row that no longer matches this binary's schema is skipped with
// a printed note instead of aborting the diff, so benchdiff keeps working
// against snapshots from an older or newer benchtab. A skipped row only
// relaxes the specific gate that needed it; everything parseable is still
// checked.
func load(path string) (*snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(buf, &sections); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := &snapshot{}
	scalarField(path, sections, "schema", &s.Schema)
	scalarField(path, sections, "seed", &s.Seed)
	scalarField(path, sections, "cpus", &s.CPUs)
	s.Micro = sectionRows[micro](path, sections, "micro")
	s.Experiments = sectionRows[experiment](path, sections, "experiments")
	s.Macro = sectionRows[macro](path, sections, "macro")
	return s, nil
}

func scalarField[T any](path string, sections map[string]json.RawMessage, name string, dst *T) {
	raw, ok := sections[name]
	if !ok {
		return
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		fmt.Printf("note  %s: ignoring %q field with unknown shape\n", path, name)
	}
}

func sectionRows[T any](path string, sections map[string]json.RawMessage, name string) []T {
	raw, ok := sections[name]
	if !ok {
		return nil
	}
	var items []json.RawMessage
	if err := json.Unmarshal(raw, &items); err != nil {
		fmt.Printf("note  %s: ignoring %q section with unknown shape\n", path, name)
		return nil
	}
	out := make([]T, 0, len(items))
	skipped := 0
	for _, item := range items {
		var v T
		if err := json.Unmarshal(item, &v); err != nil {
			skipped++
			continue
		}
		out = append(out, v)
	}
	if skipped > 0 {
		fmt.Printf("note  %s: skipped %d %q row(s) with unknown shape\n", path, skipped, name)
	}
	return out
}

func main() {
	var (
		basePath   = flag.String("base", "", "committed baseline snapshot (required)")
		newPath    = flag.String("new", "", "freshly generated snapshot (required)")
		tolerance  = flag.Float64("tolerance", 0.10, "allowed fractional ns/op regression per microbenchmark")
		minSpeedup = flag.Float64("minspeedup", 1.8, "required parallel speedup at 4 shards (checked only when cpus >= 4)")
		ppsTol     = flag.Float64("ppstolerance", 0.10, "allowed fractional packets/sec drop per -pps macro")
		minPPS     = flag.Float64("minppsscale", 0.9, "required egress-worker/single pps ratio for the live pump (checked only when cpus >= 4)")
	)
	flag.Parse()
	if *basePath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -base and -new are required")
		flag.Usage()
		os.Exit(2)
	}
	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	fresh, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Printf("FAIL  "+format+"\n", args...)
	}

	newMicros := make(map[string]micro, len(fresh.Micro))
	for _, m := range fresh.Micro {
		newMicros[m.Name] = m
	}
	for _, b := range base.Micro {
		n, ok := newMicros[b.Name]
		if !ok {
			fail("%s: present in %s but missing from %s", b.Name, *basePath, *newPath)
			continue
		}
		ratio := 0.0
		if b.NsPerOp > 0 {
			ratio = n.NsPerOp/b.NsPerOp - 1
		}
		switch {
		case ratio > *tolerance:
			fail("%s: %.1f ns/op -> %.1f ns/op (%+.1f%%, tolerance %.0f%%)",
				b.Name, b.NsPerOp, n.NsPerOp, 100*ratio, 100**tolerance)
		case n.AllocsPerOp > b.AllocsPerOp:
			fail("%s: allocs/op grew %d -> %d (hot paths must not add allocations)",
				b.Name, b.AllocsPerOp, n.AllocsPerOp)
		default:
			fmt.Printf("ok    %s: %.1f ns/op (%+.1f%%), %d allocs/op\n",
				b.Name, n.NsPerOp, 100*ratio, n.AllocsPerOp)
		}
	}

	checkSpeedup(fresh, *minSpeedup, fail)
	checkPPS(base, fresh, *ppsTol, *minPPS, fail)

	var baseWall, newWall float64
	for _, e := range base.Experiments {
		baseWall += e.WallMs
	}
	for _, e := range fresh.Experiments {
		newWall += e.WallMs
	}
	fmt.Printf("info  experiment batch wall time: %.0f ms -> %.0f ms (informational, not gated)\n",
		baseWall, newWall)

	if failures > 0 {
		fmt.Printf("benchdiff: %d regression(s) vs %s\n", failures, *basePath)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: no regressions vs %s\n", *basePath)
}

// checkSpeedup gates the parallel-simulation speedup claim on hosts with
// enough cores to overlap 4 shards.
func checkSpeedup(fresh *snapshot, min float64, fail func(string, ...any)) {
	if fresh.CPUs < 4 {
		fmt.Printf("skip  parallel speedup: host has %d cpu(s), shards cannot overlap\n", fresh.CPUs)
		return
	}
	for _, e := range fresh.Experiments {
		if e.ID != "E16" {
			continue
		}
		sp, ok := e.Metrics["parallel.speedup/shards=4"]
		if !ok {
			fail("E16 ran but recorded no parallel.speedup/shards=4 metric")
			return
		}
		if sp < min {
			fail("parallel speedup at 4 shards is %.2fx, want >= %.2fx (cpus=%d)", sp, min, fresh.CPUs)
		} else {
			fmt.Printf("ok    parallel speedup at 4 shards: %.2fx (cpus=%d)\n", sp, fresh.CPUs)
		}
		return
	}
	fmt.Printf("skip  parallel speedup: snapshot does not include E16\n")
}

// checkPPS holds the packets/sec floor: every macro present in BOTH
// snapshots must not drop by more than tol, and on hosts with the cores to
// overlap egress workers with the pump the egress-worker sender must keep at
// least minScale of the single-pump rate (on smaller hosts the scale gate
// self-disables — the workers still send correctly there, they just cannot
// run faster).
func checkPPS(base, fresh *snapshot, tol, minScale float64, fail func(string, ...any)) {
	if len(fresh.Macro) == 0 {
		if len(base.Macro) > 0 {
			fail("baseline has %d pps macro(s) but the new snapshot has none (run benchtab with -pps)", len(base.Macro))
		}
		return
	}
	freshPPS := make(map[string]macro, len(fresh.Macro))
	for _, m := range fresh.Macro {
		freshPPS[m.Name] = m
	}
	for _, b := range base.Macro {
		n, ok := freshPPS[b.Name]
		if !ok {
			fail("pps %s: present in baseline but missing from new snapshot", b.Name)
			continue
		}
		drop := 0.0
		if b.PPS > 0 {
			drop = 1 - n.PPS/b.PPS
		}
		if drop > tol {
			fail("pps %s: %.0f -> %.0f ops/s (-%.1f%%, tolerance %.0f%%)",
				b.Name, b.PPS, n.PPS, 100*drop, 100*tol)
		} else {
			fmt.Printf("ok    pps %s: %.0f ops/s (%+.1f%%)\n", b.Name, n.PPS, -100*drop)
		}
		checkAllocs(b, n, fail)
	}
	single, okS := freshPPS["live.pps/pump=1"]
	if !okS {
		return
	}
	if fresh.CPUs < 4 {
		fmt.Printf("skip  pump scale gate: host has %d cpu(s), egress workers cannot overlap\n", fresh.CPUs)
		return
	}
	m, ok := freshPPS["live.pps/egress"]
	if !ok || single.PPS <= 0 {
		return
	}
	if m.PPS < minScale*single.PPS {
		fail("%s is %.2fx the single pump (%.0f vs %.0f pkts/s), want >= %.2fx (cpus=%d)",
			m.Name, m.PPS/single.PPS, m.PPS, single.PPS, minScale, fresh.CPUs)
	} else {
		fmt.Printf("ok    %s scale: %.2fx single (cpus=%d)\n", m.Name, m.PPS/single.PPS, fresh.CPUs)
	}
}

// allocsSlack is how far a macro's allocs_per_datagram may drift above the
// baseline before it counts as a regression: the measurement attributes the
// whole process's mallocs to received datagrams, so sub-one jitter from
// timers and runtime bookkeeping is expected; a sustained climb is not.
const allocsSlack = 0.5

// checkAllocs gates the per-datagram allocation meta on macros that carry it
// in both snapshots (schema 4 baselines have no meta — the gate self-arms on
// the first schema 5 baseline).
func checkAllocs(b, n macro, fail func(string, ...any)) {
	bAllocs, bOK := b.Meta["allocs_per_datagram"]
	nAllocs, nOK := n.Meta["allocs_per_datagram"]
	if !bOK || !nOK {
		return
	}
	if nAllocs > bAllocs+allocsSlack {
		fail("pps %s: allocs/datagram grew %.2f -> %.2f (the batched receive path is pooled; it must not start allocating)",
			b.Name, bAllocs, nAllocs)
	} else {
		fmt.Printf("ok    pps %s: %.2f allocs/datagram (base %.2f)\n", b.Name, nAllocs, bAllocs)
	}
}
