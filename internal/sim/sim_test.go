package sim

import (
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 100; i++ {
		if got[i] != i {
			t.Fatalf("tie-break not FIFO at %d: %v", i, got[i])
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.After(10*time.Nanosecond, func() {
		fired = append(fired, e.Now())
		e.After(5*time.Nanosecond, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v, want [10 15]", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative delay")
		}
	}()
	e.After(-1, func() {})
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.At(10, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	e.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.At(10, func() {})
	e.Run()
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	n := e.RunUntil(25)
	if n != 2 {
		t.Fatalf("processed %d events, want 2", n)
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25", e.Now())
	}
	n = e.RunUntil(100)
	if n != 2 {
		t.Fatalf("processed %d more events, want 2", n)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100 (clock advances to deadline)", e.Now())
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Every(10*time.Nanosecond, func() { count++ })
	e.RunFor(100 * time.Nanosecond)
	if count != 10 {
		t.Fatalf("ticker fired %d times in 100ns at 10ns period, want 10", count)
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tk *Ticker
	tk = e.Every(10*time.Nanosecond, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.RunFor(1000 * time.Nanosecond)
	if count != 3 {
		t.Fatalf("ticker fired %d times after Stop at 3", count)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending events after ticker stop: %d", e.Pending())
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() {
			ran++
			if ran == 4 {
				e.Stop()
			}
		})
	}
	if n := e.Run(); n != 4 {
		t.Fatalf("Run processed %d, want 4", n)
	}
	// Run again resumes.
	if n := e.Run(); n != 6 {
		t.Fatalf("second Run processed %d, want 6", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		var samples []int64
		var step func()
		step = func() {
			samples = append(samples, e.Rand().Int63n(1000))
			if len(samples) < 50 {
				e.After(Duration(e.Rand().Int63n(100)+1), step)
			}
		}
		e.After(1, step)
		e.Run()
		return samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine(1)
	t1 := e.At(10, func() {})
	e.At(20, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	t1.Stop()
	if e.Pending() != 1 {
		t.Fatalf("Pending after stop = %d, want 1", e.Pending())
	}
}

func TestTimeArithmetic(t *testing.T) {
	tt := Time(1000)
	if tt.Add(500) != 1500 {
		t.Fatal("Add")
	}
	if tt.Sub(Time(400)) != 600 {
		t.Fatal("Sub")
	}
	if Time(2*time.Second).Seconds() != 2.0 {
		t.Fatal("Seconds")
	}
}

func TestMassCancellationShrinksQueue(t *testing.T) {
	// Stopped timers must leave the heap immediately, not ride to their
	// deadline: long-running sims cancel retransmit timers by the million.
	e := NewEngine(1)
	const n = 10_000
	timers := make([]*Timer, 0, n)
	for i := 0; i < n; i++ {
		timers = append(timers, e.After(Duration(i+1)*time.Millisecond, func() { t.Fatal("cancelled timer fired") }))
	}
	if e.Pending() != n {
		t.Fatalf("Pending = %d, want %d", e.Pending(), n)
	}
	for _, tm := range timers {
		if !tm.Stop() {
			t.Fatal("Stop reported already-stopped timer")
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending after mass cancellation = %d, want 0", e.Pending())
	}
	if q := &e.queue; len(q.bottom)+len(q.far) != 0 || q.sum != 0 {
		t.Fatalf("queue still holds dead events: bottom %d, far %d, wheel words %b", len(q.bottom), len(q.far), q.sum)
	}
	// Survivors still run correctly among cancellations.
	fired := 0
	keep := e.At(5, func() { fired++ })
	e.After(10*time.Millisecond, func() { fired++ }).Stop()
	e.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if keep.Pending() {
		t.Fatal("fired timer still pending")
	}
}

func TestEventPoolReuse(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 100; i++ {
		e.ScheduleAfter(Duration(i+1), func() {})
	}
	e.Run()
	if len(e.free) == 0 {
		t.Fatal("event pool empty after run")
	}
	// A stale Timer whose event was recycled must refuse to cancel it.
	tm := e.At(e.Now().Add(10), func() {})
	e.Run()
	fired := false
	e.Schedule(e.Now().Add(10), func() { fired = true })
	if tm.Stop() {
		t.Fatal("stale Timer cancelled a recycled event")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
	// Steady-state scheduling must not allocate.
	nop := func() {}
	if avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleAfter(1, nop)
		e.Run()
	}); avg != 0 {
		t.Fatalf("Schedule+Run allocates %.1f per op, want 0", avg)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%100)+1, func() {})
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}
