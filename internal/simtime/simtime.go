// Package simtime provides the deterministic virtual time base used by the
// simulated kernel: a monotonic clock measured in nanoseconds plus a
// discrete-event queue of scheduled callbacks (pageout-daemon wakeups,
// security-checker wakeups, disk completions).
//
// All kernel activity is serialized on one Clock, which makes every
// experiment in this repository bit-for-bit reproducible: elapsed times
// reported by the harness are virtual nanoseconds accumulated from the
// calibrated cost constants, not wall-clock measurements.
//
// The event queue is a hierarchical timer wheel (O(1) schedule/cancel,
// bitmap-guided pop); a differential test holds it to (when, seq) firing
// order over random schedule/cancel/advance sequences. Fired and cancelled
// events are recycled through a per-clock freelist, so the steady-state
// fault path (disk completions, daemon wakeups) schedules timers without
// allocating and cancelled timers do not pin memory.
package simtime

import (
	"fmt"
	"math/bits"
	"time"
)

// Time is an absolute virtual time in nanoseconds since kernel boot.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts freely to
// and from time.Duration (which is also nanoseconds).
type Duration = time.Duration

// String formats the time as a duration since boot.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Event is a scheduled callback. Events fire in timestamp order; events with
// equal timestamps fire in scheduling order (FIFO), which keeps the
// simulation deterministic.
//
// Event handles are recycled through the owning clock's freelist once they
// fire or are cancelled; callers must not retain a handle past its firing
// (Cancel on a retained stale handle could cancel an unrelated later
// timer).
type Event struct {
	when     Time
	seq      uint64
	fn       func(now Time)
	canceled bool

	// Wheel state: intrusive doubly-linked slot-list membership plus the
	// (level, slot) the event was filed under. level is noLevel when not on
	// the wheel, overflowLevel for the beyond-horizon list.
	prev, next *Event
	level      int8
	slot       uint8
}

// When reports the virtual time at which the event is scheduled to fire.
func (e *Event) When() Time { return e.when }

// --- timer wheel ------------------------------------------------------------

// The wheel is a hashed hierarchical timing wheel (Varghese & Lauck):
// wheelLevels levels of wheelSlots slots, with level-L slots spanning
// wheelSlots^L nanoseconds. An event is filed, at scheduling time, on the
// lowest level where it lies within one wheel revolution of the current
// time. Events never cascade down levels: the pop path locates the global
// minimum directly from per-level occupancy bitmaps, so firing order is
// exactly (when, seq) order, and advancing the clock costs nothing per empty
// tick.
//
// Slot lists are intrusive and kept in ascending seq order (insertion is an
// append; seq is monotonic). Level-0 slots hold a single timestamp, so
// their head is the slot minimum; higher-level slots span a window and are
// scanned.
const (
	wheelBits     = 6
	wheelSlots    = 1 << wheelBits // 64
	wheelMask     = wheelSlots - 1
	wheelLevels   = 8 // horizon: 64^8 ns ≈ 78 hours of virtual time
	overflowLevel = wheelLevels
	pastDueLevel  = wheelLevels + 1
	noLevel       = -1
)

// eventList is an intrusive doubly-linked list of events (one wheel slot).
type eventList struct {
	head, tail *Event
}

func (l *eventList) append(e *Event) {
	e.prev = l.tail
	e.next = nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
}

func (l *eventList) remove(e *Event) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

type timerWheel struct {
	slots [wheelLevels][wheelSlots]eventList
	// occupied tracks non-empty slots per level; slot scans are bitmap
	// operations, not 64-entry walks.
	occupied [wheelLevels]uint64
	// overflow holds events beyond the wheel horizon (seq order).
	overflow eventList
	// pastDue holds events stranded behind the clock by a nested advance
	// (see Clock.strandOverdue), kept in ascending (when, seq) order so
	// its head is its minimum.
	pastDue eventList
	count   int
}

// levelFor returns the wheel level for an event at when given now (with
// when >= now), or overflowLevel. The chosen level L is the smallest whose
// slot distance (when>>6L) - (now>>6L) is under one revolution. This —
// rather than the naive delta < 64^(L+1) — guarantees that within a level
// no slot holds events from both the current and the next revolution, so
// circular slot order from now's cursor equals time order: the property
// the min-scan relies on.
//
// Computed in O(1): the lowest level sharing a parent window is given by
// the highest differing bit of when and now; the only other candidate is
// one level below, where the windows differ but by fewer than 64 slots
// (any lower level differs by >= 64 slots).
func levelFor(when, now Time) int8 {
	diff := uint64(when ^ now)
	if diff < wheelSlots {
		return 0
	}
	l := int8((bits.Len64(diff) - 1) / wheelBits)
	if shift := wheelBits * uint(l-1); (when>>shift)-(now>>shift) < wheelSlots {
		l--
	}
	if l >= wheelLevels {
		return overflowLevel
	}
	return l
}

func (w *timerWheel) listFor(e *Event) *eventList {
	switch e.level {
	case overflowLevel:
		return &w.overflow
	case pastDueLevel:
		return &w.pastDue
	}
	return &w.slots[e.level][e.slot]
}

func (w *timerWheel) schedule(e *Event, now Time) {
	l := levelFor(e.when, now)
	e.level = l
	if l == overflowLevel {
		w.overflow.append(e)
	} else {
		s := uint8(e.when>>(wheelBits*uint(l))) & wheelMask
		e.slot = s
		w.slots[l][s].append(e)
		w.occupied[l] |= 1 << s
	}
	w.count++
}

// unlink removes a still-filed event from its slot list, maintaining the
// occupancy bitmap.
func (w *timerWheel) unlink(e *Event) {
	list := w.listFor(e)
	list.remove(e)
	if e.level < wheelLevels && list.head == nil {
		w.occupied[e.level] &^= 1 << e.slot
	}
	e.level = noLevel
	w.count--
}

// scanMin returns the pending event minimizing (when, seq), or nil.
//
// Correctness relies on the invariant that every slot-filed event has
// when >= now: filing guarantees window distance < one revolution, the
// clock is monotonic, and events that would fall behind now are moved to
// pastDue first (strandOverdue). Under that invariant, circular slot order
// from now's cursor equals time order within a level, a level-0 slot holds
// a single timestamp (so its seq-ordered head is its minimum), and the
// level minimum of a higher level lives in its first occupied slot.
func (w *timerWheel) scanMin(now Time) *Event {
	return w.scanFiled(now, w.pastDue.head) // sorted; head is the pastDue min
}

// scanFiled scans the wheel slots and overflow list (not pastDue) for the
// (when, seq) minimum, seeded with best (may be nil).
func (w *timerWheel) scanFiled(now Time, best *Event) *Event {
	for l := 0; l < wheelLevels; l++ {
		occ := w.occupied[l]
		if occ == 0 {
			continue
		}
		cur := uint(now>>(wheelBits*uint(l))) & wheelMask
		// First occupied slot at or after the cursor, wrapping around.
		var s int
		if m := occ >> cur; m != 0 {
			s = int(cur) + bits.TrailingZeros64(m)
		} else {
			s = bits.TrailingZeros64(occ)
		}
		list := &w.slots[l][s]
		if l == 0 {
			// A level-0 slot holds a single timestamp; its head has the
			// minimum seq (lists are seq-ordered).
			if e := list.head; better(e, best) {
				best = e
			}
			continue
		}
		// Higher-level slots span a window: scan the slot list.
		for e := list.head; e != nil; e = e.next {
			if better(e, best) {
				best = e
			}
		}
	}
	for e := w.overflow.head; e != nil; e = e.next {
		if better(e, best) {
			best = e
		}
	}
	return best
}

func better(e, best *Event) bool {
	return best == nil || e.when < best.when || (e.when == best.when && e.seq < best.seq)
}

// Clock is a virtual clock with an attached discrete-event queue.
// The zero value is not usable; call NewClock.
type Clock struct {
	now   Time
	seq   uint64
	wheel *timerWheel

	// nextEvent caches the earliest pending event (meaningful when
	// nextValid; nil means the queue is empty). The Advance/Sleep fast
	// path — charging fault-service time with no timer due — is then a
	// compare and an add with no queue access, and popping the cached
	// event skips re-scanning the wheel.
	nextEvent *Event
	nextValid bool

	// freelist recycles fired/cancelled events, linked through next.
	freelist  *Event
	freeCount int

	// dispatching guards against RunUntil re-entrancy from callbacks.
	dispatching bool
}

// maxFreelist bounds the number of recycled events pooled per clock.
const maxFreelist = 256

// NewClock returns a clock positioned at time zero with an empty queue.
func NewClock() *Clock { return &Clock{wheel: &timerWheel{}} }

// Now reports the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d, firing any events that become due.
// Advancing by a negative duration panics: the clock is monotonic.
func (c *Clock) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative advance %v", d))
	}
	c.RunUntil(c.now.Add(d))
}

// Sleep is an alias for Advance; it reads better at call sites that model a
// blocking delay (e.g. a synchronous disk read).
func (c *Clock) Sleep(d Duration) { c.Advance(d) }

// After schedules fn to run d from now and returns the event handle, which
// may be used to Cancel it. fn runs with the clock set to its fire time.
func (c *Clock) After(d Duration, fn func(now Time)) *Event {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", d))
	}
	return c.At(c.now.Add(d), fn)
}

// At schedules fn at absolute time t (>= Now) and returns the event handle.
// The handle is recycled after the event fires or is cancelled; callers
// must not retain it past that point.
func (c *Clock) At(t Time, fn func(now Time)) *Event {
	if t < c.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", t, c.now))
	}
	if fn == nil {
		panic("simtime: nil event callback")
	}
	e := c.newEvent()
	e.when, e.seq, e.fn = t, c.seq, fn
	c.seq++
	c.wheel.schedule(e, c.now)
	// Tighten the earliest-due cache only if it is currently valid; an
	// invalidated cache may be hiding an earlier pending event, which a
	// refresh will rediscover. Strict < keeps the FIFO tie-break: an
	// equal-deadline cached event has a smaller seq.
	if c.nextValid && (c.nextEvent == nil || t < c.nextEvent.when) {
		c.nextEvent = e
	}
	return e
}

// newEvent takes an event from the freelist or allocates one.
func (c *Clock) newEvent() *Event {
	if e := c.freelist; e != nil {
		c.freelist = e.next
		c.freeCount--
		*e = Event{level: noLevel}
		return e
	}
	return &Event{level: noLevel}
}

// recycle returns a detached event to the freelist. Clearing fn is what
// releases the callback's captures even while the shell of the event stays
// pooled (or, past the pool bound, is dropped to the collector).
func (c *Clock) recycle(e *Event) {
	if c.freeCount >= maxFreelist {
		e.fn = nil
		return
	}
	*e = Event{level: noLevel, next: c.freelist}
	c.freelist = e
	c.freeCount++
}

// FreelistLen reports the number of recycled events currently pooled
// (exposed for leak/alloc tests).
func (c *Clock) FreelistLen() int { return c.freeCount }

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled event is a no-op (provided the handle has not been
// recycled into a new timer). It reports whether the event was pending.
func (c *Clock) Cancel(e *Event) bool {
	if e == nil || e.canceled || e.level == noLevel {
		return false
	}
	c.wheel.unlink(e)
	e.canceled = true
	if c.nextValid && e == c.nextEvent {
		c.nextValid = false
		c.nextEvent = nil
	}
	c.recycle(e)
	return true
}

// Pending reports the number of scheduled (not yet fired) events.
func (c *Clock) Pending() int { return c.wheel.count }

// refreshNext recomputes the cached earliest event.
func (c *Clock) refreshNext() {
	c.nextEvent = c.wheel.scanMin(c.now)
	c.nextValid = true
}

// PeekNext reports the timestamp of the earliest pending event without
// firing it. Callers that batch virtual-time charges (the policy executor)
// use it to advance exactly to event boundaries so scheduled callbacks
// observe the same clock they would under fine-grained charging.
func (c *Clock) PeekNext() (Time, bool) {
	if !c.nextValid {
		c.refreshNext()
	}
	if c.nextEvent == nil {
		return 0, false
	}
	return c.nextEvent.when, true
}

// strandOverdue moves wheel events that a nested advance to t would leave
// behind the clock onto the pastDue list, preserving (when, seq) order.
// Slot filing is only scannable while when >= now; events the jump passes
// over must therefore be parked where the min-scan can still see them.
// Successive filed minima append in sorted order, and later strandings
// (from deeper nested jumps) only ever add events with larger whens.
func (c *Clock) strandOverdue(t Time) {
	w := c.wheel
	for {
		e := w.scanFiled(c.now, nil)
		if e == nil || e.when >= t {
			break
		}
		w.unlink(e)
		e.level = pastDueLevel
		w.pastDue.append(e)
		w.count++
		c.nextValid, c.nextEvent = false, nil
	}
}

// popNext removes and returns the earliest pending event, or nil, reusing
// the cached minimum so a refresh-then-pop sequence scans the queue once.
func (c *Clock) popNext() *Event {
	if !c.nextValid {
		c.refreshNext()
	}
	e := c.nextEvent
	if e == nil {
		return nil
	}
	c.wheel.unlink(e)
	c.nextValid, c.nextEvent = false, nil
	return e
}

// RunUntil fires all events scheduled at or before t, in order, then sets
// the clock to t. Callbacks may schedule further events; those are honored
// if they fall within the window. A nested call from within an event
// callback (e.g. a callback that charges simulated CPU time) only moves the
// clock forward; newly due events fire when control returns to the outer
// dispatch loop or on the next top-level advance.
func (c *Clock) RunUntil(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("simtime: RunUntil %v before now %v", t, c.now))
	}
	if c.dispatching {
		c.strandOverdue(t)
		c.now = t
		return
	}
	// Fast path: nothing due inside the window.
	if !c.nextValid {
		c.refreshNext()
	}
	if c.nextEvent == nil || c.nextEvent.when > t {
		c.now = t
		return
	}
	c.dispatching = true
	defer func() { c.dispatching = false }()
	for {
		if !c.nextValid {
			c.refreshNext()
		}
		if c.nextEvent == nil || c.nextEvent.when > t {
			break
		}
		e := c.popNext()
		// A nested advance inside a callback may already have moved the
		// clock past this event's timestamp; never step backwards.
		if e.when > c.now {
			c.now = e.when
		}
		fn := e.fn
		c.recycle(e)
		fn(c.now)
	}
	if t > c.now {
		c.now = t
	}
}

// RunNext fires the single earliest pending event (advancing the clock to
// its timestamp) and reports whether one existed. Useful for draining a
// simulation to quiescence.
func (c *Clock) RunNext() bool {
	if c.dispatching {
		panic("simtime: RunNext called re-entrantly from an event callback")
	}
	e := c.popNext()
	if e == nil {
		return false
	}
	c.dispatching = true
	if e.when > c.now {
		c.now = e.when
	}
	fn := e.fn
	c.recycle(e)
	fn(c.now)
	c.dispatching = false
	return true
}

// Drain runs events until the queue is empty or limit events have fired.
// It returns the number of events fired. A limit of 0 means no limit.
func (c *Clock) Drain(limit int) int {
	fired := 0
	for c.RunNext() {
		fired++
		if limit > 0 && fired >= limit {
			break
		}
	}
	return fired
}
