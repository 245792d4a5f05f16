package simtime

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// refClock is the reference the wheel is held to: the same Clock contract
// over a slice kept sorted by (when, seq). Handles are never recycled, so
// Cancel on a fired handle is simply false.
type refClock struct {
	now         Time
	events      []*refEvent
	dispatching bool
}

type refEvent struct {
	when Time
	fn   func(now Time)
	done bool // fired or cancelled
}

func (c *refClock) Now() Time    { return c.now }
func (c *refClock) Pending() int { return len(c.events) }

func (c *refClock) At(t Time, fn func(now Time)) any {
	e := &refEvent{when: t, fn: fn}
	// Filing after every event with when <= t is FIFO.
	i := sort.Search(len(c.events), func(i int) bool { return c.events[i].when > t })
	c.events = slices.Insert(c.events, i, e)
	return e
}

func (c *refClock) After(d Duration, fn func(now Time)) any { return c.At(c.now.Add(d), fn) }

func (c *refClock) Cancel(h any) bool {
	e := h.(*refEvent)
	if e.done {
		return false
	}
	e.done = true
	i := slices.Index(c.events, e)
	c.events = slices.Delete(c.events, i, i+1)
	return true
}

func (c *refClock) PeekNext() (Time, bool) {
	if len(c.events) == 0 {
		return 0, false
	}
	return c.events[0].when, true
}

// fireNext pops and fires the earliest event; a nested advance inside an
// earlier callback may already have moved the clock past it.
func (c *refClock) fireNext() {
	e := c.events[0]
	c.events = c.events[1:]
	e.done = true
	if e.when > c.now {
		c.now = e.when
	}
	e.fn(c.now)
}

func (c *refClock) Advance(d Duration) {
	t := c.now.Add(d)
	if c.dispatching { // nested: only the clock moves
		c.now = t
		return
	}
	c.dispatching = true
	for len(c.events) > 0 && c.events[0].when <= t {
		c.fireNext()
	}
	c.dispatching = false
	if t > c.now {
		c.now = t
	}
}

func (c *refClock) Sleep(d Duration) { c.Advance(d) }

func (c *refClock) RunNext() bool {
	if len(c.events) == 0 {
		return false
	}
	c.dispatching = true
	c.fireNext()
	c.dispatching = false
	return true
}

func (c *refClock) Drain(limit int) int {
	fired := 0
	for c.RunNext() {
		fired++
		if limit > 0 && fired >= limit {
			break
		}
	}
	return fired
}

// scriptClock is what the differential scripts drive: the Clock API with
// opaque event handles, so one script runs against both implementations.
type scriptClock interface {
	Now() Time
	Pending() int
	At(t Time, fn func(now Time)) any
	After(d Duration, fn func(now Time)) any
	Cancel(h any) bool
	PeekNext() (Time, bool)
	Advance(d Duration)
	Sleep(d Duration)
	RunNext() bool
	Drain(limit int) int
}

// wheelClock adapts Clock's *Event handles to scriptClock.
type wheelClock struct{ *Clock }

func (w wheelClock) At(t Time, fn func(now Time)) any        { return w.Clock.At(t, fn) }
func (w wheelClock) After(d Duration, fn func(now Time)) any { return w.Clock.After(d, fn) }
func (w wheelClock) Cancel(h any) bool                       { return w.Clock.Cancel(h.(*Event)) }

// runBoth runs the same scripted scenario against the wheel Clock and the
// reference clock and fails if their observable traces differ. The scenario
// callback receives the clock and an emit function for recording
// observations.
func runBoth(t *testing.T, name string, scenario func(c scriptClock, emit func(string))) {
	t.Helper()
	run := func(c scriptClock) (trace []string) {
		scenario(c, func(s string) { trace = append(trace, s) })
		return trace
	}
	w, r := run(wheelClock{NewClock()}), run(&refClock{})
	if len(w) != len(r) {
		t.Fatalf("%s: wheel trace has %d entries, reference %d", name, len(w), len(r))
	}
	for i := range w {
		if w[i] != r[i] {
			t.Fatalf("%s: trace diverges at %d:\n  wheel:     %s\n  reference: %s", name, i, w[i], r[i])
		}
	}
}

// TestWheelHeapDifferentialRandom drives the wheel and the reference clock
// through identical random schedule/cancel/advance/drain sequences and requires identical
// firing traces — timestamps, FIFO order among equal timestamps, pending
// counts, and clock positions.
func TestWheelHeapDifferentialRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runBoth(t, "random", func(c scriptClock, emit func(string)) {
				rng := rand.New(rand.NewSource(seed))
				var live []any
				id := 0
				for op := 0; op < 400; op++ {
					switch rng.Intn(10) {
					case 0, 1, 2, 3: // schedule
						id++
						eid := id
						// Mix of near, far, and beyond-horizon delays to
						// exercise every wheel level and the overflow list.
						var d Duration
						switch rng.Intn(4) {
						case 0:
							d = Duration(rng.Int63n(64)) // level 0
						case 1:
							d = Duration(rng.Int63n(1 << 18)) // mid levels
						case 2:
							d = Duration(rng.Int63n(1 << 40)) // high levels
						case 3:
							d = Duration(1<<50 + rng.Int63n(1<<50)) // overflow
						}
						live = append(live, c.After(d, func(now Time) {
							emit(fmt.Sprintf("fire %d at %v", eid, now))
						}))
					case 4: // cancel a random live handle
						if len(live) > 0 {
							i := rng.Intn(len(live))
							emit(fmt.Sprintf("cancel -> %v", c.Cancel(live[i])))
							live = append(live[:i], live[i+1:]...)
						}
					case 5, 6, 7: // advance
						c.Advance(Duration(rng.Int63n(1 << 20)))
						// Fired handles are recycled; drop stale references.
						live = live[:0]
						emit(fmt.Sprintf("now %v pending %d", c.Now(), c.Pending()))
					case 8: // run one event
						emit(fmt.Sprintf("runnext %v now %v", c.RunNext(), c.Now()))
						live = live[:0]
					case 9: // peek
						when, ok := c.PeekNext()
						emit(fmt.Sprintf("peek %v %v", when, ok))
					}
				}
				emit(fmt.Sprintf("drain %d end %v", c.Drain(0), c.Now()))
			})
		})
	}
}

// TestWheelHeapDifferentialNestedAdvance exercises the pastDue machinery:
// a callback performs a nested advance that jumps the clock past pending
// events, which must still fire afterwards in (when, seq) order.
func TestWheelHeapDifferentialNestedAdvance(t *testing.T) {
	runBoth(t, "nested", func(c scriptClock, emit func(string)) {
		for i, d := range []Duration{5, 10, 15, 70, 200, 1 << 30} {
			i := i
			c.After(d, func(now Time) { emit(fmt.Sprintf("fire %d at %v", i, now)) })
		}
		// The event at t=5 sleeps re-entrantly far past every other
		// pending event, stranding them all.
		c.After(5, func(Time) {
			c.Sleep(1 << 31)
			emit(fmt.Sprintf("nested slept to %v", c.Now()))
		})
		// Schedule during the nested window too.
		c.After(10, func(Time) {
			c.After(3, func(now Time) { emit(fmt.Sprintf("late fire at %v", now)) })
		})
		c.Advance(1 << 32)
		emit(fmt.Sprintf("end %v pending %d", c.Now(), c.Pending()))
	})
}

// TestWheelHeapDifferentialEqualTimestamps pins FIFO tie-breaking against
// the reference when many events share deadlines, including events scheduled at
// the current instant.
func TestWheelHeapDifferentialEqualTimestamps(t *testing.T) {
	runBoth(t, "ties", func(c scriptClock, emit func(string)) {
		for i := 0; i < 8; i++ {
			i := i
			c.After(100, func(now Time) { emit(fmt.Sprintf("a%d %v", i, now)) })
			c.After(50, func(now Time) { emit(fmt.Sprintf("b%d %v", i, now)) })
			c.At(c.Now(), func(now Time) { emit(fmt.Sprintf("imm%d %v", i, now)) })
		}
		c.Advance(100)
		emit(c.Now().String())
	})
}

func TestWheelOverflowEventsFire(t *testing.T) {
	c := NewClock()
	const far = Duration(1) << 52 // beyond the 64^8 ns horizon
	fired := false
	c.After(far, func(now Time) { fired = true })
	c.Advance(far - 1)
	if fired {
		t.Fatal("overflow event fired early")
	}
	c.Advance(1)
	if !fired {
		t.Fatal("overflow event never fired")
	}
}

// TestCancelledEventsAreRecycled pins the satellite fix for event
// retention: cancelled timers must return to the freelist (not stay
// pinned by wheel slots), and the freelist must actually be reused by
// subsequent schedules.
func TestCancelledEventsAreRecycled(t *testing.T) {
	c := NewClock()
	evs := make([]*Event, 100)
	for i := range evs {
		evs[i] = c.After(Duration(i+1), func(Time) {})
	}
	for _, e := range evs {
		c.Cancel(e)
	}
	if got := c.FreelistLen(); got != 100 {
		t.Fatalf("FreelistLen after 100 cancels = %d, want 100", got)
	}
	e := c.After(1, func(Time) {})
	if got := c.FreelistLen(); got != 99 {
		t.Fatalf("FreelistLen after reuse = %d, want 99", got)
	}
	if e != evs[99] {
		t.Fatal("schedule did not reuse the freelist head")
	}
}

// TestSteadyStateTimerLoopDoesNotAllocate pins the hot-path contract: a
// schedule/fire cycle (the shape of disk completions and daemon wakeups)
// runs allocation-free once the freelist is primed. The callback closure
// is hoisted outside the loop — closures capturing loop state would
// allocate in the caller, not the clock.
func TestSteadyStateTimerLoopDoesNotAllocate(t *testing.T) {
	c := NewClock()
	fired := 0
	fn := func(Time) { fired++ }
	c.After(1, fn)
	c.Advance(1) // prime the freelist
	avg := testing.AllocsPerRun(1000, func() {
		c.After(7, fn)
		c.Advance(7)
	})
	if avg != 0 {
		t.Fatalf("schedule/fire cycle allocates %.1f/op, want 0", avg)
	}
	avg = testing.AllocsPerRun(1000, func() {
		c.Cancel(c.After(1<<40, fn))
	})
	if avg != 0 {
		t.Fatalf("schedule/cancel cycle allocates %.1f/op, want 0", avg)
	}
}

// TestFreelistIsBounded guards against the pool itself becoming a leak.
func TestFreelistIsBounded(t *testing.T) {
	c := NewClock()
	for i := 0; i < 10*maxFreelist; i++ {
		c.Cancel(c.After(1, func(Time) {}))
	}
	if got := c.FreelistLen(); got > maxFreelist {
		t.Fatalf("FreelistLen = %d, want <= %d", got, maxFreelist)
	}
}

func BenchmarkSchedulerScheduleFire(b *testing.B) {
	c := NewClock()
	fn := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.After(100*time.Microsecond, fn)
		c.Advance(100 * time.Microsecond)
	}
}

// BenchmarkSchedulerPendingSet measures schedule/fire with a standing set
// of outstanding timers (the multi-container steady state).
func BenchmarkSchedulerPendingSet(b *testing.B) {
	c := NewClock()
	fn := func(Time) {}
	for i := 0; i < 256; i++ {
		c.After(Duration(1+i)*time.Millisecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.After(50*time.Microsecond, fn)
		c.Advance(50 * time.Microsecond)
	}
}
