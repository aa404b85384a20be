// The pending-event set: a sorted run under the clock and two timing wheels.
//
// Events pop in the total order (at, khi, klo) — see eventLess — and that
// order is the whole contract: nothing above this file can tell how the set
// is stored. Almost every push lands a few hundred nanoseconds to a few
// microseconds ahead of the clock, while most of what is queued is nowhere
// near due (a replayed trace pre-schedules its injections, every protocol
// keeps millisecond timers armed). So the set is tiered by distance from the
// clock, in ticks of 1<<tickShift ns and blocks of 1<<blockShift ticks — a
// hierarchical timing wheel in the manner of Varghese and Lauck:
//
//	run    tick <= cur                    slice sorted descending by eventLess
//	wheel  cur < tick < cur+wheelSlots    unsorted list per tick, bitmap-indexed
//	outer  block >= block(cur)+2          unsorted list per block, bitmap-indexed
//
// cur is the tick under the clock. Every run event precedes every event
// outside it, so the minimum is the run's last element whenever the run is
// non-empty; every ordering decision is still made by eventLess, over the
// handful of events that share a tick. When the run is empty, cur advances to
// the earliest occupied tick (a bitmap scan) and that tick's list moves into
// the run. Outer block b cascades into the wheel (or the run, if due) when
// cur enters block b-1: a block is half the wheel, so all of its ticks are
// then inside the wheel's horizon. An outer slot also holds the events whole
// laps (outerSlots blocks) ahead of its block; those stay put when the slot
// cascades and are looked at again on its next pass.
//
// Cost: a push is O(1) into either wheel, or one compare onto the run's
// minimum end, where nearly every run insert lands (a local event at the
// current instant; a tick's list, which is in reverse push order). Anything
// else binary-searches the run of one tick and shifts it with one copy. A
// pop is O(1). An outer event is moved once, plus one look per lap it waits.
package sim

import (
	"math"
	"math/bits"
	"slices"
)

// Geometry. 128 ns ticks keep the events of one tick to a handful at the
// rates the models run (a 400 ns pipeline stage and a 10 µs link put ~50
// events in flight across ~80 ticks), so the run stays a few entries long;
// 1024 wheel slots put its horizon at 131 µs, past every data-centre link
// latency the experiments configure. The outer wheel's 512 blocks of 512
// ticks (65.5 µs) reach 33.5 ms, past a trace chunk's pre-scheduled
// injections; later timers wait out laps. The fixed footprint (12 KB of list
// heads, two 136 B bitmaps) stays small enough for sweeps that build
// thousands of engines.
const (
	tickShift  = 7
	wheelSlots = 1 << 10
	wheelMask  = wheelSlots - 1
	blockShift = 9
	outerSlots = 1 << 9
	outerMask  = outerSlots - 1
)

const maxTime = Time(math.MaxInt64)

func tickOf(t Time) int64 { return int64(t) >> tickShift }

// tier says which part of the pending set holds a queued event.
type tier uint8

const (
	tierRun tier = iota
	tierWheel
	tierOuter
)

// eventRun is the run under the clock, kept in descending eventLess order so
// that its minimum is the last element.
type eventRun []*event

// insert places ev in order. It checks the minimum end first, where nearly
// every insert lands.
func (r *eventRun) insert(ev *event) {
	s := *r
	n := len(s)
	if n == 0 || eventLess(ev, s[n-1]) {
		*r = append(s, ev)
		return
	}
	// The first i with s[i] < ev; s[n-1] < ev already.
	lo, hi := 0, n-1
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); eventLess(s[m], ev) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	s = append(s, nil)
	copy(s[lo+1:], s[lo:n])
	s[lo] = ev
	*r = s
}

// pop removes and returns the minimum event.
func (r *eventRun) pop() *event {
	s := *r
	n := len(s) - 1
	ev := s[n]
	s[n] = nil
	*r = s[:n]
	return ev
}

// bitmap indexes a wheel's occupied slots: occ has one bit per slot, sum one
// bit per non-zero word of occ, so the next occupied slot is two
// trailing-zero counts away. The outer wheel uses the low half.
type bitmap struct {
	sum uint64
	occ [wheelSlots / 64]uint64
}

func (b *bitmap) set(s int) {
	b.occ[s>>6] |= 1 << (s & 63)
	b.sum |= 1 << (s >> 6)
}

func (b *bitmap) clear(s int) {
	w := s >> 6
	if b.occ[w] &^= 1 << (s & 63); b.occ[w] == 0 {
		b.sum &^= 1 << w
	}
}

// next returns the first occupied slot at or after from in ring order. The
// bitmap must be non-empty.
func (b *bitmap) next(from int) int {
	w := from >> 6
	if m := b.occ[w] >> (from & 63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	// Words after w, then wrapping around through w itself, whose occupied
	// bits (if any) are all below from.
	if hi := b.sum >> (w + 1) << (w + 1); hi != 0 {
		w = bits.TrailingZeros64(hi)
	} else {
		w = bits.TrailingZeros64(b.sum)
	}
	return w<<6 + bits.TrailingZeros64(b.occ[w])
}

// link pushes ev onto the list at *head and reports whether the list was
// empty.
func link(head **event, ev *event) bool {
	h := *head
	ev.next, ev.prev = h, nil
	if h != nil {
		h.prev = ev
	}
	*head = ev
	return h == nil
}

// unlink removes ev from the list at *head and reports whether the list is
// now empty.
func unlink(head **event, ev *event) bool {
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	if ev.prev != nil {
		ev.prev.next = ev.next
		return false
	}
	*head = ev.next
	return ev.next == nil
}

// pendingSet is the tiered set described at the top of this file.
//
// Invariants, with tick = tickOf(ev.at) and block = tick>>blockShift:
//
//	run:   tick <= cur, sorted descending by eventLess
//	wheel: cur < tick < cur+wheelSlots, in slots[tick&wheelMask]
//	outer: block >= cur>>blockShift + 2, in blocks[block&outerMask]
//
// cur only grows, and only to a tick no wheel or outer event precedes, so a
// wheel slot holds events of one tick and slots[cur&wheelMask] is empty.
type pendingSet struct {
	n        int   // events queued across all tiers
	cur      int64 // tick under the clock
	run      eventRun
	occ      bitmap
	slots    [wheelSlots]*event
	blockOcc bitmap
	blocks   [outerSlots]*event
}

// push queues ev.
func (q *pendingSet) push(ev *event) {
	q.n++
	q.place(ev)
}

// place puts ev in the tier its distance from the clock selects.
func (q *pendingSet) place(ev *event) {
	t := tickOf(ev.at)
	switch d := t - q.cur; {
	case d <= 0:
		ev.tier = tierRun
		q.run.insert(ev)
	case d < wheelSlots:
		ev.tier = tierWheel
		if s := int(t & wheelMask); link(&q.slots[s], ev) {
			q.occ.set(s)
		}
	default:
		ev.tier = tierOuter
		if s := int(t >> blockShift & outerMask); link(&q.blocks[s], ev) {
			q.blockOcc.set(s)
		}
	}
}

// pop removes and returns the minimum event. The caller has settled the set:
// the run is non-empty.
func (q *pendingSet) pop() *event {
	q.n--
	return q.run.pop()
}

// remove unqueues ev wherever it is: an O(1) unlink in either wheel, a search
// of the run (a Stop in the current tick is rare).
func (q *pendingSet) remove(ev *event) {
	q.n--
	t := tickOf(ev.at)
	switch ev.tier {
	case tierRun:
		i := slices.Index(q.run, ev)
		q.run = slices.Delete(q.run, i, i+1)
	case tierWheel:
		if s := int(t & wheelMask); unlink(&q.slots[s], ev) {
			q.occ.clear(s)
		}
	default:
		if s := int(t >> blockShift & outerMask); unlink(&q.blocks[s], ev) {
			q.blockOcc.clear(s)
		}
	}
}

// firstBlock returns the first block the outer wheel may hold.
func (q *pendingSet) firstBlock() int64 { return q.cur>>blockShift + 2 }

// nextBlock returns the first block at or after b in whose slot the outer
// wheel holds events, and that slot. The outer wheel must be non-empty.
func (q *pendingSet) nextBlock(b int64) (int64, int) {
	s := int(b & outerMask)
	n := q.blockOcc.next(s)
	return b + int64((n-s)&outerMask), n
}

// nextTick returns a lower bound on the ticks outside the run, ok false when
// there are none: the earliest occupied wheel tick, or the first tick of the
// earliest occupied outer slot's block, whichever is sooner. The bound is
// exact for the wheel; an outer slot may hold only events laps ahead.
func (q *pendingSet) nextTick() (t int64, ok bool) {
	if q.occ.sum != 0 {
		from := int(q.cur+1) & wheelMask
		t, ok = q.cur+1+int64((q.occ.next(from)-from)&wheelMask), true
	}
	if q.blockOcc.sum != 0 {
		b, _ := q.nextBlock(q.firstBlock())
		if bt := b << blockShift; !ok || bt < t {
			t, ok = bt, true
		}
	}
	return t, ok
}

// advance moves the clock tick to c, the events of tick c into the run and
// the outer blocks c's block now reaches down a tier. c must be past cur and
// no wheel or outer event may precede it.
func (q *pendingSet) advance(c int64) {
	from := q.firstBlock()
	q.cur = c
	s := int(c & wheelMask)
	if ev := q.slots[s]; ev != nil {
		q.slots[s] = nil
		q.occ.clear(s)
		for ev != nil {
			next := ev.next
			ev.tier = tierRun
			q.run.insert(ev)
			ev = next
		}
	}
	if to := q.firstBlock(); to > from && q.blockOcc.sum != 0 {
		q.cascade(from, to)
	}
}

// cascade moves the events of outer blocks before to down a tier, visiting
// the occupied slots of blocks from..to-1 in order. After a jump of more than
// a lap each slot is visited once.
func (q *pendingSet) cascade(from, to int64) {
	from = max(from, to-outerSlots)
	for b := from; b < to && q.blockOcc.sum != 0; b++ {
		var s int
		if b, s = q.nextBlock(b); b >= to {
			return
		}
		for ev := q.blocks[s]; ev != nil; {
			next := ev.next
			if tickOf(ev.at)>>blockShift < to { // not a lap or more ahead
				if unlink(&q.blocks[s], ev) {
					q.blockOcc.clear(s)
				}
				q.place(ev)
			}
			ev = next
		}
	}
}

// settle reports whether the earliest pending event is due at or before
// limit, moving it (and its tick) into the run if so. cur never advances past
// limit's tick: an idle stretch that ends with only a distant timer pending
// must not drag the wheel out to that timer, or everything scheduled in
// between would land in the run.
func (q *pendingSet) settle(limit Time) bool {
	for len(q.run) == 0 {
		c, ok := q.nextTick()
		if !ok || c > tickOf(limit) {
			return false
		}
		q.advance(c)
	}
	return q.run[len(q.run)-1].at <= limit
}

// catchUp re-anchors the wheels after the clock jumped to now without a pop
// (RunUntil reaching its deadline), so delays scheduled from the new clock
// are measured from it. No pending event may precede now.
func (q *pendingSet) catchUp(now Time) {
	if c := tickOf(now); c > q.cur {
		q.advance(c)
	}
}

// nextAt returns the time of the earliest pending event without moving
// anything: the run's minimum, or a walk of the next occupied wheel slot and
// of the occupied outer slots in block order until a block starts past the
// best time found.
func (q *pendingSet) nextAt() (Time, bool) {
	if n := len(q.run); n > 0 {
		return q.run[n-1].at, true
	}
	if q.n == 0 {
		return 0, false
	}
	t := maxTime
	if q.occ.sum != 0 {
		for ev := q.slots[q.occ.next(int(q.cur+1)&wheelMask)]; ev != nil; ev = ev.next {
			t = min(t, ev.at)
		}
	}
	if q.blockOcc.sum != 0 {
		first := q.firstBlock()
		for b := first; b < first+outerSlots; b++ {
			var s int
			if b, s = q.nextBlock(b); b >= first+outerSlots || Time(b<<(blockShift+tickShift)) >= t {
				break
			}
			for ev := q.blocks[s]; ev != nil; ev = ev.next {
				t = min(t, ev.at)
			}
		}
	}
	return t, true
}
