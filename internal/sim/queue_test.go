package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The pending set's contract is the pop order (at, khi, klo) and nothing
// else, so it is tested against the dumbest structure that honours it: a
// sorted slice. One program of driver operations runs against both worlds —
// the real engine and the reference — and every observable must agree: which
// event fires when, what Stop/Step/RunUntil return, the clock, Pending and
// NextAt after every operation. The engine side also checks the tier
// invariants of queue.go after every operation.

type opKind uint8

const (
	opLocal     opKind = iota // Schedule(now+delay)
	opKeyed                   // ScheduleKeyed(now+delay) from source src
	opTimer                   // AfterVal(delay), keeping the handle
	opStopTimer               // Stop the arg-th handle (live, fired or stale)
	opStep
	opRunUntil // RunUntil(now+delay)
	opKinds
)

// actKind is what an event does when it fires.
type actKind uint8

const (
	actNone       actKind = iota
	actLocalNow           // Schedule(now): a khi==0 event at the current timestamp
	actLocalAfter         // Schedule(now+delay)
	actKeyedAfter         // ScheduleKeyed(now+delay)
	actTimerAfter         // AfterVal(delay)
	actStopTimer          // stop the arg-th handle
	actStopEngine         // Engine.Stop()
	actKinds
)

// act is bound to an event when it is scheduled. depth > 0 hands the same
// act (one shallower) to the event it schedules, which turns one op into a
// chain that walks the clock across the wheel.
type act struct {
	kind  actKind
	delay Duration
	arg   int
	depth int
}

type op struct {
	kind  opKind
	delay Duration
	arg   int // source for opKeyed, handle index for opStopTimer
	then  act
}

// world is the surface the program drives, implemented by the engine and by
// the reference.
type world interface {
	now() Time
	local(at Time, fn func())
	keyed(at Time, khi, klo uint64, fn func())
	timer(d Duration, fn func()) // appends a handle
	stopTimer(h int) bool        // h is reduced modulo the handle count
	step() bool
	runUntil(t Time) uint64
	stop()
	pending() int
	nextAt() (Time, bool)
}

// interp runs a program against a world and logs everything observable.
type interp struct {
	w   world
	klo [4]uint64
	ids int
	log []string
}

func (in *interp) note(format string, args ...any) {
	in.log = append(in.log, fmt.Sprintf(format, args...))
}

// fire returns the callback of a new event carrying a.
func (in *interp) fire(a act) func() {
	id := in.ids
	in.ids++
	return func() {
		in.note("fire %d at %d", id, in.w.now())
		next := act{}
		if a.depth > 0 {
			next = a
			next.depth--
		}
		switch a.kind {
		case actLocalNow:
			in.w.local(in.w.now(), in.fire(act{}))
		case actLocalAfter:
			in.w.local(in.w.now().Add(a.delay), in.fire(next))
		case actKeyedAfter:
			in.schedKeyed(a.delay, a.arg, next)
		case actTimerAfter:
			in.w.timer(a.delay, in.fire(next))
		case actStopTimer:
			in.note("stop %v", in.w.stopTimer(a.arg))
		case actStopEngine:
			in.w.stop()
		}
	}
}

func (in *interp) schedKeyed(d Duration, src int, a act) {
	src &= 3
	klo := in.klo[src]
	in.klo[src]++
	in.w.keyed(in.w.now().Add(d), KeyClassDeliver|uint64(src+1), klo, in.fire(a))
}

func (in *interp) run(prog []op) []string {
	for _, o := range prog {
		switch o.kind {
		case opLocal:
			in.w.local(in.w.now().Add(o.delay), in.fire(o.then))
		case opKeyed:
			in.schedKeyed(o.delay, o.arg, o.then)
		case opTimer:
			in.w.timer(o.delay, in.fire(o.then))
		case opStopTimer:
			in.note("stop %v", in.w.stopTimer(o.arg))
		case opStep:
			in.note("step %v", in.w.step())
		case opRunUntil:
			in.note("ran %d", in.w.runUntil(in.w.now().Add(o.delay)))
		}
		at, ok := in.w.nextAt()
		in.note("now %d pending %d next %d %v", in.w.now(), in.w.pending(), at, ok)
	}
	// Drain what is left, in two steps so a Stop from inside an event (which
	// ends a RunUntil early) cannot hide the tail.
	for i := 0; i < 2; i++ {
		in.note("ran %d", in.w.runUntil(in.w.now().Add(Duration(1)<<40)))
	}
	in.note("now %d pending %d", in.w.now(), in.w.pending())
	return in.log
}

// engWorld drives the real engine and checks the tier invariants as it goes.
type engWorld struct {
	t      testing.TB
	e      *Engine
	timers []Timer
}

func (w *engWorld) now() Time                { return w.e.Now() }
func (w *engWorld) local(at Time, fn func()) { w.e.Schedule(at, fn) }
func (w *engWorld) keyed(at Time, khi, klo uint64, fn func()) {
	w.e.ScheduleKeyed(at, khi, klo, fn)
}
func (w *engWorld) timer(d Duration, fn func()) { w.timers = append(w.timers, w.e.AfterVal(d, fn)) }
func (w *engWorld) stopTimer(h int) bool {
	if len(w.timers) == 0 {
		return false
	}
	ok := w.timers[h%len(w.timers)].Stop()
	checkTiers(w.t, w.e)
	return ok
}
func (w *engWorld) step() bool { defer checkTiers(w.t, w.e); return w.e.Step() }
func (w *engWorld) runUntil(t Time) uint64 {
	defer checkTiers(w.t, w.e)
	return w.e.RunUntil(t)
}
func (w *engWorld) stop()                { w.e.Stop() }
func (w *engWorld) pending() int         { return w.e.Pending() }
func (w *engWorld) nextAt() (Time, bool) { return w.e.NextAt() }

// checkTiers verifies the pendingSet invariants stated in queue.go.
func checkTiers(t testing.TB, e *Engine) {
	t.Helper()
	q := &e.queue
	n := len(q.bottom) + len(q.far)
	for i, ev := range q.bottom {
		if tickOf(ev.at) > q.cur || ev.tier != tierBottom || ev.idx != i {
			t.Fatalf("bottom[%d]: tick %d (cur %d) tier %d idx %d", i, tickOf(ev.at), q.cur, ev.tier, ev.idx)
		}
	}
	for i, ev := range q.far {
		if tickOf(ev.at) <= q.cur || ev.tier != tierFar || ev.idx != i {
			t.Fatalf("far[%d]: tick %d (cur %d) tier %d idx %d", i, tickOf(ev.at), q.cur, ev.tier, ev.idx)
		}
	}
	for s, head := range q.slots {
		bit := q.occ[s>>6]>>(s&63)&1 == 1
		if bit != (head != nil) {
			t.Fatalf("slot %d: occupied bit %v, head %v", s, bit, head != nil)
		}
		var prev *event
		for ev := head; ev != nil; prev, ev = ev, ev.next {
			n++
			d := tickOf(ev.at) - q.cur
			if d <= 0 || d >= wheelSlots || int(tickOf(ev.at)&wheelMask) != s || ev.tier != tierWheel || ev.prev != prev {
				t.Fatalf("slot %d: event at tick %d (cur %d) tier %d, prev link ok %v", s, tickOf(ev.at), q.cur, ev.tier, ev.prev == prev)
			}
		}
	}
	for w, word := range q.occ {
		if (word != 0) != (q.sum>>w&1 == 1) {
			t.Fatalf("summary bit %d disagrees with word %x", w, word)
		}
	}
	if n != q.n {
		t.Fatalf("tiers hold %d events, n = %d", n, q.n)
	}
}

// refWorld is the reference: one slice kept sorted by (at, khi, klo).
type refWorld struct {
	t       Time
	seq     uint64
	evs     []refEvent
	timers  []uint64 // local sequence number of each handle's event
	stopped bool
}

type refEvent struct {
	at       Time
	khi, klo uint64
	fn       func()
}

func (w *refWorld) insert(ev refEvent) {
	if ev.at < w.t {
		panic("ref: scheduling before now")
	}
	i, _ := slices.BinarySearchFunc(w.evs, ev, func(a, b refEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.khi, b.khi), cmp.Compare(a.klo, b.klo))
	})
	w.evs = slices.Insert(w.evs, i, ev)
}

func (w *refWorld) now() Time { return w.t }
func (w *refWorld) local(at Time, fn func()) {
	w.insert(refEvent{at: at, klo: w.seq, fn: fn})
	w.seq++
}
func (w *refWorld) keyed(at Time, khi, klo uint64, fn func()) {
	w.insert(refEvent{at: at, khi: khi, klo: klo, fn: fn})
}
func (w *refWorld) timer(d Duration, fn func()) {
	w.timers = append(w.timers, w.seq)
	w.local(w.t.Add(d), fn)
}
func (w *refWorld) stopTimer(h int) bool {
	if len(w.timers) == 0 {
		return false
	}
	seq := w.timers[h%len(w.timers)]
	for i, ev := range w.evs {
		if ev.khi == 0 && ev.klo == seq {
			w.evs = slices.Delete(w.evs, i, i+1)
			return true
		}
	}
	return false
}
func (w *refWorld) step() bool {
	if len(w.evs) == 0 {
		return false
	}
	ev := w.evs[0]
	w.evs = slices.Delete(w.evs, 0, 1)
	w.t = ev.at
	ev.fn()
	return true
}
func (w *refWorld) runUntil(deadline Time) uint64 {
	w.stopped = false
	var n uint64
	for !w.stopped && len(w.evs) > 0 && w.evs[0].at <= deadline {
		w.step()
		n++
	}
	if (len(w.evs) == 0 || w.evs[0].at > deadline) && w.t < deadline {
		w.t = deadline
	}
	return n
}
func (w *refWorld) stop()        { w.stopped = true }
func (w *refWorld) pending() int { return len(w.evs) }
func (w *refWorld) nextAt() (Time, bool) {
	if len(w.evs) == 0 {
		return 0, false
	}
	return w.evs[0].at, true
}

// differ runs prog against both worlds and fails on the first observable
// that differs. It returns the engine for white-box follow-ups.
func differ(t testing.TB, prog []op) *Engine {
	t.Helper()
	e := NewEngine(1)
	got := (&interp{w: &engWorld{t: t, e: e}}).run(prog)
	want := (&interp{w: &refWorld{}}).run(prog)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			g := "<nothing>"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("observation %d: engine %q, reference %q\nprogram: %+v", i, g, want[i], prog)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("engine logged %d observations, reference %d", len(got), len(want))
	}
	return e
}

// delays are the distances that matter to the wheel: inside the tick under
// the clock, either side of a tick edge, the two constant delays of the
// models, either side of the horizon (1024 ticks of 128 ns = 131072 ns),
// and timers far past it.
var delays = []Duration{0, 1, 60, 127, 128, 129, 400, 1_000, 10_000, 100_000,
	130_900, 131_071, 131_072, 131_073, 131_200, 200_000, 1_000_000, 5_000_000, 50_000_000}

// opBytes is the size of one encoded operation:
//
//	kind | jitter<<4, delay index, then.kind | arg<<4, then.delay index, then.depth | then.arg<<5
const opBytes = 5

// decode turns fuzz bytes into a program. jitter (0-15 ns) moves a delay off
// the table's exact values.
func decode(data []byte) []op {
	var prog []op
	for ; len(data) >= opBytes; data = data[opBytes:] {
		b := data[:opBytes]
		prog = append(prog, op{
			kind:  opKind(b[0]&0x0f) % opKinds,
			delay: delays[int(b[1])%len(delays)] + Duration(b[0]>>4),
			arg:   int(b[2] >> 4),
			then: act{
				kind:  actKind(b[2]&0x0f) % actKinds,
				delay: delays[int(b[3])%len(delays)],
				depth: int(b[4] & 31),
				arg:   int(b[4] >> 5),
			},
		})
	}
	return prog
}

// encode is decode's inverse for programs whose delays are table values.
func encode(prog []op) []byte {
	var out []byte
	idx := func(d Duration) byte { return byte(slices.Index(delays, d)) }
	for _, o := range prog {
		out = append(out, byte(o.kind), idx(o.delay), byte(o.then.kind)|byte(o.arg)<<4,
			idx(o.then.delay), byte(o.then.depth)|byte(o.then.arg)<<5)
	}
	return out
}

// scenarios are the shapes ISSUE 13 names, written out by hand. They run as
// plain tests and seed the fuzz corpus.
var scenarios = map[string][]op{
	"same-timestamp ties": {
		{kind: opKeyed, delay: 400, arg: 2}, {kind: opKeyed, delay: 400, arg: 0}, {kind: opLocal, delay: 400},
		{kind: opKeyed, delay: 400, arg: 2}, {kind: opKeyed, delay: 400, arg: 1}, {kind: opLocal, delay: 400},
		{kind: opKeyed, delay: 400, arg: 0}, {kind: opRunUntil, delay: 1_000},
	},
	"local at now from inside a keyed event": {
		{kind: opKeyed, delay: 10_000, arg: 1, then: act{kind: actLocalNow}},
		{kind: opKeyed, delay: 10_000, arg: 1}, {kind: opKeyed, delay: 10_000, arg: 3},
		{kind: opLocal, delay: 10_000, then: act{kind: actLocalNow}},
		{kind: opRunUntil, delay: 10_000},
	},
	"bucket under the clock": {
		{kind: opLocal, delay: 60}, {kind: opLocal, delay: 0}, {kind: opKeyed, delay: 1, arg: 1},
		{kind: opStep}, {kind: opLocal, delay: 0}, {kind: opLocal, delay: 1}, {kind: opTimer, delay: 60},
		{kind: opStep}, {kind: opStep}, {kind: opRunUntil, delay: 127},
	},
	"beyond the horizon at push, inside it at pop": {
		{kind: opLocal, delay: 200_000},
		{kind: opKeyed, delay: 131_072, arg: 1},
		{kind: opLocal, delay: 10_000, then: act{kind: actLocalAfter, delay: 10_000, depth: 25}},
		{kind: opRunUntil, delay: 100_000}, {kind: opLocal, delay: 100_000}, {kind: opLocal, delay: 400},
		{kind: opRunUntil, delay: 1_000_000},
	},
	"timer stop in every tier, then stale": {
		{kind: opTimer, delay: 0}, {kind: opTimer, delay: 10_000}, {kind: opTimer, delay: 5_000_000},
		{kind: opTimer, delay: 10_000}, {kind: opTimer, delay: 10_000},
		{kind: opStopTimer, arg: 0}, {kind: opStopTimer, arg: 1}, {kind: opStopTimer, arg: 2}, {kind: opStopTimer, arg: 4},
		{kind: opStopTimer, arg: 1}, {kind: opRunUntil, delay: 100_000},
		// Handles 0..4 are stale now; their records are recycled by these.
		{kind: opLocal, delay: 400}, {kind: opLocal, delay: 10_000}, {kind: opLocal, delay: 5_000_000},
		{kind: opStopTimer, arg: 0}, {kind: opStopTimer, arg: 1}, {kind: opStopTimer, arg: 2}, {kind: opStopTimer, arg: 3},
		{kind: opTimer, delay: 400, then: act{kind: actStopTimer, arg: 6}}, {kind: opTimer, delay: 10_000},
		{kind: opRunUntil, delay: 1_000},
	},
	"run far ahead on an empty wheel": {
		{kind: opTimer, delay: 50_000_000},
		{kind: opRunUntil, delay: 5_000_000}, {kind: opLocal, delay: 400}, {kind: opKeyed, delay: 10_000, arg: 1},
		{kind: opRunUntil, delay: 5_000_000}, {kind: opRunUntil, delay: 5_000_000},
		{kind: opKeyed, delay: 10_000, arg: 1}, {kind: opLocal, delay: 400, then: act{kind: actKeyedAfter, delay: 10_000, arg: 2}},
		{kind: opRunUntil, delay: 50_000_000},
	},
	"ring wrap-around": {
		{kind: opLocal, delay: 130_900, then: act{kind: actLocalAfter, delay: 130_900, depth: 20}},
		{kind: opKeyed, delay: 10_000, arg: 1, then: act{kind: actKeyedAfter, delay: 10_000, arg: 1, depth: 31}},
		{kind: opLocal, delay: 400, then: act{kind: actTimerAfter, delay: 400, depth: 31}},
		{kind: opRunUntil, delay: 100_000}, {kind: opRunUntil, delay: 131_072}, {kind: opRunUntil, delay: 5_000_000},
	},
	"engine stop mid-run": {
		{kind: opLocal, delay: 400, then: act{kind: actStopEngine}}, {kind: opLocal, delay: 400},
		{kind: opLocal, delay: 10_000}, {kind: opRunUntil, delay: 1_000_000},
		{kind: opLocal, delay: 0}, {kind: opRunUntil, delay: 1_000_000},
	},
}

func TestPendingSetScenarios(t *testing.T) {
	for name, prog := range scenarios {
		t.Run(name, func(t *testing.T) {
			if !slices.Equal(decode(encode(prog)), prog) {
				t.Fatal("scenario does not survive the fuzz encoding")
			}
			differ(t, prog)
		})
	}
}

// TestPendingSetRandom is the fuzz target's tier-1 stand-in: a few thousand
// random programs, short ones for the corners and long ones for depth.
func TestPendingSetRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 3000; i++ {
		data := make([]byte, opBytes*(1+rng.Intn(4+i%120)))
		rng.Read(data)
		differ(t, decode(data))
	}
}

func FuzzPendingSet(f *testing.F) {
	for _, prog := range scenarios {
		f.Add(encode(prog))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > opBytes*256 {
			data = data[:opBytes*256]
		}
		differ(t, decode(data))
	})
}

// TestTimerStopPerTier pins where each timer of the differential scenario
// actually sits when it is stopped, so the scenario keeps covering all three
// removal paths if the geometry changes.
func TestTimerStopPerTier(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(1 << 20) // a tick edge, so the delays below read as tick distances
	fired := 0
	fn := func() { fired++ }
	for _, c := range []struct {
		d    Duration
		want tier
	}{{0, tierBottom}, {100, tierBottom}, {400, tierWheel}, {10_000, tierWheel}, {131_000, tierWheel}, {131_072, tierFar}, {50_000_000, tierFar}} {
		keep := e.AfterVal(c.d, fn)
		tm := e.AfterVal(c.d, fn)
		if tm.ev.tier != c.want {
			t.Fatalf("timer at +%v queued in tier %d, want %d", c.d, tm.ev.tier, c.want)
		}
		if !tm.Stop() || tm.Stop() || tm.Pending() {
			t.Fatalf("timer at +%v: Stop did not cancel exactly once", c.d)
		}
		checkTiers(t, e)
		if !keep.Pending() {
			t.Fatalf("stopping a timer at +%v cancelled its neighbour", c.d)
		}
	}
	e.Run()
	if fired != 7 {
		t.Fatalf("%d survivors fired, want 7", fired)
	}
}

// TestRunUntilReanchorsWheel: the live pump's pattern. RunUntil reaches its
// deadline with only a distant timer pending; what is scheduled next, a few
// hundred ns from the new clock, must land in the wheel — neither behind a
// stale cur (far heap) nor under a cur dragged out to the timer (bottom).
func TestRunUntilReanchorsWheel(t *testing.T) {
	e := NewEngine(1)
	e.After(50_000_000, func() {})
	for round := 0; round < 3; round++ {
		e.RunUntil(e.Now().Add(3_000_000))
		tm := e.AfterVal(400, func() {})
		if tm.ev.tier != tierWheel {
			t.Fatalf("round %d: +400ns after an idle jump queued in tier %d, want the wheel", round, tm.ev.tier)
		}
		if at, ok := e.NextAt(); !ok || at != e.Now().Add(400) {
			t.Fatalf("round %d: NextAt = %v %v, want %v", round, at, ok, e.Now().Add(400))
		}
		checkTiers(t, e)
	}
}

// TestWheelFootprint holds the per-engine fixed cost of the wheel to the
// budget explore sweeps (thousands of engines) were promised.
func TestWheelFootprint(t *testing.T) {
	var q pendingSet
	if fixed := len(q.slots)*8 + len(q.occ)*8 + 8; fixed > 16<<10 {
		t.Fatalf("wheel heads + bitmap = %d bytes per engine, budget 16 KB", fixed)
	}
}
