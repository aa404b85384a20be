// Package lincheck verifies linearizability of concurrent register
// histories — the correctness condition SRO registers claim (§6.1, citing
// Herlihy & Wing). It implements the Wing-Gong search with the Lowe
// just-visited memoization for single-register histories.
//
// The model checked is a read/write register: a history is linearizable iff
// there is a total order of operations, consistent with real-time order
// (op1 completes before op2 begins ⇒ op1 orders first), in which every read
// returns the value of the most recent preceding write (or the initial
// value if none).
//
// # Pending operations
//
// An operation whose response was never observed — a write submitted at a
// switch that failed, or whose acknowledgement was lost — is recorded with
// End = Inf. A pending write may or may not have taken effect; the checker
// treats it as optional: the history is linearizable iff some subset of the
// pending writes can be linearized together with all completed operations.
// Pending reads have no observable effect and are ignored.
//
// # Long histories
//
// Histories longer than 64 operations are handled by automatic time-windowed
// splitting: the history is cut at quiescent points (instants where every
// earlier operation has completed before every later one begins) and each
// window is checked with the bitmask search, carrying the set of reachable
// (value, consumed-pending) states across the cut. A window that is itself
// wider than 64 operations falls back to a big-bitset search, so Check
// never panics on history length.
//
// # Budget
//
// The search is exponential in the worst case, so each window's memo is
// capped at searchBudget states. A history that exhausts it is Undecided —
// neither linearizable nor a violation — and Check reports it as not
// linearizable: callers that must tell the two apart use Decide.
package lincheck

import (
	"fmt"
	"math"
	"sort"
)

// Op is one operation in a history.
type Op struct {
	// Start and End are the invocation and response times. End must be
	// >= Start. Concurrent operations have overlapping [Start, End].
	// End = Inf marks a pending operation (no response observed).
	Start, End int64
	// Write is true for writes, false for reads.
	Write bool
	// Value is the written value, or the value the read returned.
	Value string
}

// Inf is the End time of a pending operation: invoked, but its response was
// never observed (writer failed, acknowledgement lost, ...).
const Inf int64 = math.MaxInt64

// Pending builds a pending operation: invoked at start, never completed.
// Pending writes may or may not have taken effect; Check tries both.
// Pending reads have no observable effect and are ignored by Check.
func Pending(start int64, write bool, value string) Op {
	return Op{Start: start, End: Inf, Write: write, Value: value}
}

// IsPending reports whether the operation never completed (End = Inf).
func (o Op) IsPending() bool { return o.End == Inf }

func (o Op) String() string {
	k := "R"
	if o.Write {
		k = "W"
	}
	if o.IsPending() {
		return fmt.Sprintf("%s(%q)@[%d,+inf]", k, o.Value, o.Start)
	}
	return fmt.Sprintf("%s(%q)@[%d,%d]", k, o.Value, o.Start, o.End)
}

// Initial is the register value before any write.
const Initial = ""

// maxCarried bounds the cross-window state set before the windowed search
// gives up and falls back to the unbounded whole-history search.
const maxCarried = 1024

// searchBudget bounds the memoised states one window's search (or the
// whole-history fallback) may visit before the history is declared Undecided.
// The largest search the explorer decided over seeds 1-1200 on all four legs
// visited 24 554 states; the next one up (seed 755's 57-op window, some
// twenty writes stalled behind one crash and so all concurrent) outgrows
// 2 M states and a gigabyte of memo without an answer.
const searchBudget = 1 << 17

// Verdict is the checker's three-valued answer.
type Verdict int

// Verdicts.
const (
	Linearizable Verdict = iota
	Violation
	// Undecided means the search budget ran out first. It is never a pass.
	Undecided
)

func (v Verdict) String() string {
	return [...]string{"linearizable", "violation", "undecided"}[v]
}

// state is a cross-window search state: the register value at the cut plus
// the set of pending writes already linearized (consumed at most once).
type state struct {
	value string
	used  uint64
}

// Check reports whether the history is proven linearizable: Decide's
// Linearizable verdict. An Undecided history is reported false.
func Check(history []Op) bool { return Decide(history) == Linearizable }

// Decide checks the history for a single register with the given initial
// value semantics (reads before any write must return lincheck.Initial).
// Operations with End = Inf are pending (see the package comment); all other
// operations must be completed.
//
// Complexity is exponential in the worst case but fast for the histories
// produced by protocol tests: sequential stretches split into independent
// windows, and concurrency within a window is bounded by the protocol's
// outstanding-operation limits. Past searchBudget the verdict is Undecided.
func Decide(history []Op) Verdict {
	var completed, pend []Op
	for _, o := range history {
		if o.IsPending() {
			if o.Write {
				pend = append(pend, o)
			}
			continue // pending reads have no observable effect
		}
		completed = append(completed, o)
	}
	if len(completed) == 0 {
		return Linearizable // any subset of pending writes linearizes in Start order
	}
	// Distinct-value detection enables the forced-read pruning: when no two
	// writes (completed or pending) share a value and none writes Initial,
	// a register value can never reappear after being overwritten, so a read
	// matching the current value can only linearize in the current era —
	// consuming it immediately is lossless and collapses the combinatorial
	// choice among concurrent same-value reads. Histories with wide
	// concurrency windows (a frozen chain member stalling dozens of
	// overlapping ops) are exponential without this and linear with it.
	uniq := true
	seen := make(map[string]struct{})
	for _, o := range history {
		if !o.Write {
			continue
		}
		if _, dup := seen[o.Value]; dup || o.Value == Initial {
			uniq = false
			break
		}
		seen[o.Value] = struct{}{}
	}
	sort.Slice(completed, func(i, j int) bool {
		if completed[i].Start != completed[j].Start {
			return completed[i].Start < completed[j].Start
		}
		return completed[i].End < completed[j].End
	})
	sort.Slice(pend, func(i, j int) bool { return pend[i].Start < pend[j].Start })
	if len(pend) > 64 {
		return checkBig(completed, pend, uniq)
	}

	// Cut the history at quiescent points: between consecutive completed ops
	// i-1 and i when every op so far responded strictly before op i began.
	// Each window is then independent except for the carried register state.
	type span struct{ from, to int }
	var wins []span
	start, maxEnd := 0, completed[0].End
	for i := 1; i < len(completed); i++ {
		if maxEnd < completed[i].Start {
			wins = append(wins, span{start, i})
			start = i
		}
		if completed[i].End > maxEnd {
			maxEnd = completed[i].End
		}
	}
	wins = append(wins, span{start, len(completed)})
	for _, w := range wins {
		if w.to-w.from > 64 {
			return checkBig(completed, pend, uniq)
		}
	}

	states := map[state]struct{}{{Initial, 0}: {}}
	var avail uint64
	pi := 0
	for wi, w := range wins {
		// A pending write becomes available in the first window whose span
		// covers its Start; it stays available (until consumed) afterwards,
		// which models taking effect at any later point.
		limit := int64(math.MaxInt64)
		if wi+1 < len(wins) {
			limit = completed[wins[wi+1].from].Start
		}
		for pi < len(pend) && pend[pi].Start < limit {
			avail |= 1 << pi
			pi++
		}
		var decided bool
		states, decided = checkWindow(completed[w.from:w.to], pend, avail, states, uniq)
		if !decided {
			return Undecided
		}
		if len(states) == 0 {
			return Violation
		}
		if len(states) > maxCarried {
			return checkBig(completed, pend, uniq)
		}
	}
	return Linearizable
}

// checkWindow runs the Wing-Gong search over one window of completed ops
// (sorted by Start, ≤ 64), starting from every state in `in`, and returns
// the set of (value, consumed-pending) states reachable with the whole
// window linearized. pend is the global pending-write list; avail marks the
// pendings usable in this window. uniq asserts globally distinct write
// values and arms the forced-read pruning (see Decide). decided is false when
// the memo outgrew searchBudget; the returned set is then incomplete.
func checkWindow(ops []Op, pend []Op, avail uint64, in map[state]struct{}, uniq bool) (out map[state]struct{}, decided bool) {
	n := len(ops)
	full := uint64(1)<<n - 1
	out = make(map[state]struct{})
	type memoKey struct {
		done  uint64
		value string
		used  uint64
	}
	visited := make(map[memoKey]struct{})

	minEndOf := func(done uint64) int64 {
		// minEnd: the earliest response among not-yet-linearized completed
		// ops. Any op linearized next must have started by then.
		minEnd := int64(math.MaxInt64)
		for i := 0; i < n; i++ {
			if done&(1<<i) == 0 && ops[i].End < minEnd {
				minEnd = ops[i].End
			}
		}
		return minEnd
	}

	var search func(done uint64, value string, used uint64)
	search = func(done uint64, value string, used uint64) {
		if uniq {
			// Forced reads: with distinct write values the current value
			// exists only in this era, so every linearizable read of it must
			// linearize here — consume them all eagerly, no branching.
			// Consuming can only raise minEnd, so repeat until stable.
			for {
				minEnd, prev := minEndOf(done), done
				for i := 0; i < n; i++ {
					if done&(1<<i) == 0 && !ops[i].Write && ops[i].Value == value && ops[i].Start <= minEnd {
						done |= 1 << i
					}
				}
				if done == prev {
					break
				}
			}
		}
		if done == full {
			out[state{value, used}] = struct{}{}
			return
		}
		k := memoKey{done, value, used}
		if _, seen := visited[k]; seen || len(visited) >= searchBudget {
			return
		}
		visited[k] = struct{}{}

		minEnd := minEndOf(done)
		for i := 0; i < n; i++ {
			if done&(1<<i) != 0 {
				continue
			}
			if ops[i].Start > minEnd {
				break // ops are sorted by Start; none later can be minimal
			}
			o := ops[i]
			if o.Write {
				search(done|(1<<i), o.Value, used)
			} else if o.Value == value {
				search(done|(1<<i), value, used)
			}
		}
		// A pending write may take effect at any point after its invocation.
		for j := range pend {
			bit := uint64(1) << j
			if avail&bit == 0 || used&bit != 0 {
				continue
			}
			if pend[j].Start <= minEnd {
				search(done, pend[j].Value, used|bit)
			}
		}
	}
	for s := range in {
		search(0, s.value, s.used)
	}
	return out, len(visited) < searchBudget
}

// checkBig is the unbounded fallback: the same search over the whole
// history with arbitrary-width bitsets. Exponential worst case, but only
// reached for >64-op windows with no quiescent cut (or >64 pending writes),
// which protocol histories do not produce in practice.
func checkBig(completed, pend []Op, uniq bool) Verdict {
	n := len(completed)
	done := make([]bool, n)
	used := make([]bool, len(pend))
	remaining := n
	visited := make(map[string]struct{})
	key := func(value string) string {
		b := make([]byte, 0, n+len(pend)+len(value)+1)
		for _, d := range done {
			if d {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
		for _, u := range used {
			if u {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
		b = append(b, 0xff)
		b = append(b, value...)
		return string(b)
	}

	minEndOf := func() int64 {
		minEnd := int64(math.MaxInt64)
		for i := 0; i < n; i++ {
			if !done[i] && completed[i].End < minEnd {
				minEnd = completed[i].End
			}
		}
		return minEnd
	}

	var search func(value string) bool
	search = func(value string) bool {
		// Forced reads under distinct write values — same pruning as
		// checkWindow; undone on backtrack.
		var forced []int
		if uniq {
			for {
				minEnd, n0 := minEndOf(), len(forced)
				for i := 0; i < n; i++ {
					if !done[i] && !completed[i].Write && completed[i].Value == value && completed[i].Start <= minEnd {
						done[i] = true
						remaining--
						forced = append(forced, i)
					}
				}
				if len(forced) == n0 {
					break
				}
			}
		}
		undo := func() {
			for _, i := range forced {
				done[i] = false
				remaining++
			}
		}
		if remaining == 0 {
			undo()
			return true
		}
		k := key(value)
		if _, seen := visited[k]; seen || len(visited) >= searchBudget {
			undo()
			return false
		}
		visited[k] = struct{}{}

		minEnd := minEndOf()
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			if completed[i].Start > minEnd {
				break
			}
			o := completed[i]
			if !o.Write && o.Value != value {
				continue
			}
			next := value
			if o.Write {
				next = o.Value
			}
			done[i] = true
			remaining--
			ok := search(next)
			done[i] = false
			remaining++
			if ok {
				undo()
				return true
			}
		}
		for j := range pend {
			if used[j] || pend[j].Start > minEnd {
				continue
			}
			used[j] = true
			ok := search(pend[j].Value)
			used[j] = false
			if ok {
				undo()
				return true
			}
		}
		undo()
		return false
	}
	switch {
	case search(Initial):
		return Linearizable
	case len(visited) >= searchBudget:
		return Undecided
	}
	return Violation
}

// Partition splits a multi-key history into per-key histories. SwiShmem
// promises per-register linearizability (§6.1), so each key's history is
// checked independently.
func Partition(keys []uint64, history []Op) map[uint64][]Op {
	if len(keys) != len(history) {
		panic("lincheck: keys and history length mismatch")
	}
	out := make(map[uint64][]Op)
	for i, k := range keys {
		out[k] = append(out[k], history[i])
	}
	return out
}

// Recorder collects a history with monotonically increasing times, for use
// inside simulation tests.
type Recorder struct {
	keys []uint64
	ops  []Op
}

// Add appends an operation on key (completed, or pending with End = Inf).
func (r *Recorder) Add(key uint64, op Op) {
	if op.End < op.Start {
		panic(fmt.Sprintf("lincheck: op ends before it starts: %v", op))
	}
	r.keys = append(r.keys, key)
	r.ops = append(r.ops, op)
}

// Len returns the number of recorded operations.
func (r *Recorder) Len() int { return len(r.ops) }

// Each visits the recorded operations in recording order, for merging
// several recorders (e.g. per-switch histories) into one.
func (r *Recorder) Each(fn func(key uint64, op Op)) {
	for i := range r.ops {
		fn(r.keys[i], r.ops[i])
	}
}

// CheckAll verifies every key's sub-history in ascending key order,
// returning the smallest violating key (ok=false) or ok=true. The sorted
// iteration makes the reported badKey deterministic across runs.
func (r *Recorder) CheckAll() (badKey uint64, ok bool) {
	badKey, _, v := r.CheckAllDetailed()
	return badKey, v == Linearizable
}

// CheckAllDetailed verifies every key's sub-history in ascending key order.
// It returns Linearizable, or the smallest violating key — failing that, the
// smallest undecided one — with its verdict and its full sub-history (in
// recording order) for counterexample reporting.
func (r *Recorder) CheckAllDetailed() (badKey uint64, history []Op, v Verdict) {
	byKey := Partition(r.keys, r.ops)
	keys := make([]uint64, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		switch kv := Decide(byKey[k]); {
		case kv == Violation:
			return k, byKey[k], Violation
		case kv == Undecided && v == Linearizable:
			badKey, history, v = k, byKey[k], Undecided
		}
	}
	return badKey, history, v
}
