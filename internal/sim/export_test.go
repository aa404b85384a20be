package sim

import (
	"swishmem/internal/obs"
)

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
		tr.Emit(obs.PhaseInstant, int64(ev.at), 0, obs.PidSim, "sim", "event")
	}
	// Release before running so fn's own scheduling can reuse the event.
	e.release(ev)
	fn()
	e.processed++
	return true
}

// Pending reports whether the timer has not yet fired or been stopped.
func (t *Timer) Pending() bool { return t.live() }
