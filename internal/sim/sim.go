// Package sim provides a deterministic discrete-event simulation engine.
//
// All SwiShmem experiments run on virtual time: the engine maintains a
// pending set of timestamped events (queue.go) and a virtual clock that jumps
// from event to event. This makes it possible to model quantities that cannot
// be reproduced in wall-clock time on a development machine (terabit links,
// nanosecond-scale switch pipelines) while keeping every run exactly
// reproducible from a seed.
//
// The engine is intentionally single-threaded: determinism is the point.
// Concurrency in the modeled system (many switches processing packets "at
// the same time") is expressed as interleaved events, with ties broken by a
// monotone sequence number so insertion order is stable.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"swishmem/internal/obs"
)

// Time is a virtual timestamp. It uses the same resolution as time.Duration
// (nanoseconds) so durations compose naturally with the standard library.
type Time int64

// Duration re-exports time.Duration for call-site clarity.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a float64 number of seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. Events are pooled: when one is popped or
// cancelled it returns to the engine's free list and is reincarnated by the
// next At/After/Schedule call. gen distinguishes incarnations so a stale
// Timer handle can never cancel a recycled event.
//
// Ordering: events run in (at, khi, klo) order. Locally scheduled events
// carry khi==0 and klo==engine sequence number, preserving the historical
// FIFO tie-break among equal timestamps. Cross-entity events (network
// deliveries, control-plane posts) carry a caller-supplied key whose value
// depends only on the modeled source entity — never on which engine or
// shard scheduled it — so sharded and sequential executions order ties
// identically (see shard.go).
type event struct {
	at  Time
	khi uint64 // ordering class+source; 0 for locally scheduled events
	klo uint64 // per-source sequence; engine seq for local events
	fn  func()
	gen uint64 // incremented every time the event returns to the pool
	eng *Engine
	// Where the event sits in the pending set (queue.go): its heap index in
	// the bottom and far tiers, its list neighbours in the wheel. All four
	// are meaningful only while the event is queued, and are overwritten
	// when it is queued again.
	idx        int
	next, prev *event
	tier       tier
}

// eventLess is the total event order: timestamp, then key class+source,
// then per-source sequence. Keys are unique within an engine, so the order
// is strict and insertion order never matters.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.khi != b.khi {
		return a.khi < b.khi
	}
	return a.klo < b.klo
}

// Timer is a handle to a scheduled event; it can be stopped before firing.
type Timer struct {
	ev  *event
	gen uint64
}

// live reports whether the handle still refers to its original scheduling.
func (t *Timer) live() bool { return t != nil && t.ev != nil && t.ev.gen == t.gen }

// Stop cancels the timer, removing its event from the queue immediately so
// cancelled timers cost nothing until their deadline. It reports whether the
// timer was still pending.
func (t *Timer) Stop() bool {
	if !t.live() {
		return false
	}
	ev := t.ev
	eng := ev.eng
	if tr := eng.tracer; tr.Enabled() {
		rec := tr.Emit(obs.PhaseInstant, int64(eng.now), 0, obs.PidSim, "sim", "timer.cancel")
		rec.K1, rec.V1 = "deadline_ns", int64(ev.at)
	}
	eng.queue.remove(ev)
	eng.release(ev)
	return true
}

// Pending reports whether the timer has not yet fired or been stopped.
func (t *Timer) Pending() bool { return t.live() }

// Engine is a discrete-event simulator.
type Engine struct {
	now     Time
	queue   pendingSet
	seq     uint64
	rng     *rand.Rand
	seed    int64
	stopped bool
	// free is the event pool: steady-state scheduling allocates nothing.
	free []*event
	// Stats
	processed uint64
	// tracer is the observability hook shared by every component that holds
	// an engine reference; nil (the default) means tracing is off and the
	// guards below reduce to one branch.
	tracer *obs.Tracer
	// group/shard are set when the engine is one shard of a parallel Group
	// (see shard.go); both are nil/0 for a standalone sequential engine.
	group *Group
	shard int
	// posts is the outbox of cross-shard Mailbox posts issued while this
	// shard executed its window; the Group drains it at the next barrier.
	posts []post
}

// NewEngine returns an engine whose random source is seeded with seed.
// The same seed and same schedule of calls yields an identical run.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was constructed with. Model components
// that need their own deterministic random stream (per-link jitter, per-node
// sampling) derive it from this seed plus a stable entity identifier, so the
// stream does not depend on how entities interleave on the shared engine —
// a requirement for sharded executions to match sequential ones.
func (e *Engine) Seed() int64 { return e.seed }

// Shard returns the index of this engine within its Group (0 standalone).
func (e *Engine) Shard() int { return e.shard }

// Group returns the parallel group this engine belongs to, nil standalone.
func (e *Engine) Group() *Group { return e.group }

// Rand returns the engine's deterministic random source. All model
// randomness (loss, jitter, workload sampling) must come from here.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// SetTracer attaches (or, with nil, detaches) the event tracer. Components
// reach it through Tracer(), so one call instruments the whole cluster.
func (e *Engine) SetTracer(tr *obs.Tracer) { e.tracer = tr }

// Tracer returns the attached tracer, nil when tracing is off. The result
// is safe to use unconditionally with obs.(*Tracer).Enabled.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// schedule pushes a pooled event onto the queue and returns it.
func (e *Engine) schedule(at Time, fn func()) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at, ev.fn, ev.khi, ev.klo = at, fn, 0, e.seq
	e.seq++
	e.queue.push(ev)
	return ev
}

// alloc takes an event from the pool (or allocates one).
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{eng: e}
}

// ScheduleKeyed schedules fn at the absolute time at with an explicit
// ordering key. khi must be non-zero (zero is reserved for local events,
// which sort first among equal timestamps) and (khi, klo) must be unique
// per timestamp — callers keep a monotone klo counter per source entity.
// Because the key depends only on the modeled source, the event sorts
// identically whether it was merged into one global queue (sequential) or
// injected at a shard barrier (parallel).
func (e *Engine) ScheduleKeyed(at Time, khi, klo uint64, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: keyed scheduling at %v before now %v", at, e.now))
	}
	if khi == 0 {
		panic("sim: ScheduleKeyed requires a non-zero khi (0 is reserved for local events)")
	}
	ev := e.alloc()
	ev.at, ev.fn, ev.khi, ev.klo = at, fn, khi, klo
	e.queue.push(ev)
}

// release returns an event (already removed from the queue) to the pool,
// invalidating any Timer handles that refer to it.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: that is always a model bug, never a recoverable condition.
func (e *Engine) At(at Time, fn func()) *Timer {
	ev := e.schedule(at, fn)
	return &Timer{ev: ev, gen: ev.gen}
}

// at is the value-Timer variant of At, for holders that embed the handle.
func (e *Engine) at(at Time, fn func()) Timer {
	ev := e.schedule(at, fn)
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Duration, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// AfterVal is After returning a value Timer, for holders that embed the
// handle in a pooled record instead of allocating one per scheduling.
func (e *Engine) AfterVal(d Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.at(e.now.Add(d), fn)
}

// Schedule is the hot-path variant of At for callers that never cancel: no
// Timer handle is allocated and the event comes from the pool, so
// steady-state scheduling is allocation-free.
func (e *Engine) Schedule(at Time, fn func()) { e.schedule(at, fn) }

// ScheduleAfter is the hot-path variant of After (no Timer handle).
func (e *Engine) ScheduleAfter(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.schedule(e.now.Add(d), fn)
}

// Every schedules fn to run every period, starting one period from now.
// The returned Timer always refers to the next pending firing; stopping it
// cancels the series.
type Ticker struct {
	eng     *Engine
	period  Duration
	fn      func()
	rearm   func() // bound once; rescheduled every period
	t       Timer
	stopped bool
}

// Every creates a repeating event. period must be positive.
func (e *Engine) Every(period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	tk := &Ticker{eng: e, period: period, fn: fn}
	tk.rearm = func() {
		if tk.stopped {
			return
		}
		tk.fn()
		if !tk.stopped {
			tk.arm()
		}
	}
	tk.arm()
	return tk
}

func (tk *Ticker) arm() {
	tk.t = tk.eng.at(tk.eng.now.Add(tk.period), tk.rearm)
}

// Stop cancels the ticker.
func (tk *Ticker) Stop() {
	tk.stopped = true
	tk.t.Stop()
}

// Step runs the single next event, if any, and reports whether one ran.
// Cancelled timers are removed from the queue eagerly, so every queued event
// is live.
func (e *Engine) Step() bool {
	if !e.queue.settle(maxTime) {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	fn := ev.fn
	if tr := e.tracer; tr.Enabled() {
		// No per-event key in the record: local sequence numbers are
		// engine-relative, so emitting them would make traces differ
		// between sequential and sharded runs of the same model.
		tr.Emit(obs.PhaseInstant, int64(ev.at), 0, obs.PidSim, "sim", "event")
	}
	// Release before running so fn's own scheduling can reuse the event.
	e.release(ev)
	fn()
	e.processed++
	return true
}

// runBatch pops and executes the run of events sharing the earliest queued
// timestamp. The clock store, tracer guard, and processed-counter update are
// hoisted out of the per-event iteration, so a burst of same-timestamp events
// (a sync round fanning out, a coalesced delivery run) pays them once. The
// loop stays incremental — pop, run, re-examine the heap top — because a
// callback may schedule new events at the current timestamp (local khi==0
// events sort before queued keyed ones) and the heap comparator is the only
// correct merge order. The caller has settled the queue against its bound:
// the bottom tier's head is due. Every event at one timestamp satisfies the
// same bound, so bounds are re-checked only between batches — and every
// event at the head's timestamp, queued now or by a callback, is in the
// bottom tier (its tick is not past the clock's), so the run ends at the
// first different head without consulting the wheel.
func (e *Engine) runBatch() {
	q := &e.queue
	t := q.bottom[0].at
	e.now = t
	tr := e.tracer
	n := uint64(0)
	for {
		ev := q.pop()
		fn := ev.fn
		if tr.Enabled() {
			// No per-event key in the record (see Step).
			tr.Emit(obs.PhaseInstant, int64(t), 0, obs.PidSim, "sim", "event")
		}
		// Release before running so fn's own scheduling can reuse the event.
		e.release(ev)
		fn()
		n++
		if e.stopped || len(q.bottom) == 0 || q.bottom[0].at != t {
			break
		}
	}
	e.processed += n
}

// Run processes events until the queue is empty or Stop is called.
// It returns the number of events processed.
func (e *Engine) Run() uint64 {
	e.stopped = false
	start := e.processed
	for !e.stopped && e.queue.settle(maxTime) {
		e.runBatch()
	}
	return e.processed - start
}

// RunUntil processes events with timestamps <= deadline, advancing the clock
// to exactly deadline at the end (even if the queue drained early). When
// Stop ended the run with such events still queued the clock stays on the
// last event run: moving it past them would make the next Run step it back.
func (e *Engine) RunUntil(deadline Time) uint64 {
	e.stopped = false
	start := e.processed
	due := e.queue.settle(deadline)
	for due && !e.stopped {
		e.runBatch()
		due = e.queue.settle(deadline)
	}
	if !due {
		e.advanceTo(deadline)
	}
	return e.processed - start
}

// advanceTo moves the clock forward to t with nothing pending before t.
func (e *Engine) advanceTo(t Time) {
	if e.now < t {
		e.now = t
		e.queue.catchUp(t)
	}
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d Duration) uint64 { return e.RunUntil(e.now.Add(d)) }

// Stop halts Run/RunUntil after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of scheduled events. Cancelled timers are
// removed immediately, so every queued event counts.
func (e *Engine) Pending() int { return e.queue.n }

// NextAt returns the virtual time of the earliest scheduled event. ok is
// false when the queue is empty. Wall-clock drivers (the live fabric pump)
// use it to sleep exactly until the next timer instead of polling.
func (e *Engine) NextAt() (Time, bool) { return e.queue.nextAt() }

// Processed returns the total number of events executed so far. The count is
// defined over logical dispatches: a batched dispatcher that runs k coalesced
// deliveries inside one queued event credits the remaining k-1 through
// CreditEvents, so the number is identical whether or not coalescing is on.
func (e *Engine) Processed() uint64 { return e.processed }

// CreditEvents adds n to the processed-event counter without running any
// event. Batched dispatchers (netem's coalesced delivery bursts) use it so a
// run of k deliveries carried by one queued event still accounts for k
// events — event counts are a model-visible observable, and the determinism
// contract keeps them byte-identical with coalescing on or off.
func (e *Engine) CreditEvents(n uint64) { e.processed += n }

// EmitEventInstant writes one "sim event" trace instant at the current time,
// the record Step/runBatch would have emitted had a dispatch been its own
// queued event. Batched dispatchers call it before each coalesced dispatch
// after the first (whose instant the engine already emitted) and pair it
// with CreditEvents, keeping Chrome traces byte-identical with coalescing on
// or off — handler-emitted records interleave exactly as they would have.
func (e *Engine) EmitEventInstant() {
	if tr := e.tracer; tr.Enabled() {
		tr.Emit(obs.PhaseInstant, int64(e.now), 0, obs.PidSim, "sim", "event")
	}
}
