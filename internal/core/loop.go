package core

import (
	"errors"
	"sync"

	"hipec/internal/substrate"
)

// ErrLoopClosed is returned by Loop.Call after Close.
var ErrLoopClosed = errors.New("core: kernel loop closed")

// Loop makes a kernel safe for concurrent callers without putting a single
// lock inside the engine: an actor-style serialized command loop. The
// kernel stays a single-writer structure — exactly the discipline the
// simulation gets for free from its one virtual clock — and concurrency
// lives entirely at this boundary: callers enqueue commands into a mailbox,
// one engine goroutine applies them in arrival order. This is the same
// shape as the sharded scale harness (bench.RunSharded), with the shard
// count fixed at one and the workload arriving live instead of replayed.
//
// On the realtime substrate the loop also captures the clock's timer
// callbacks (disk write completions, checker wakeups, pageout balancing):
// it installs itself as the RealClock gate, so expirations are delivered
// through the same mailbox and take their turn with commands instead of
// touching the kernel from a timer goroutine.
type Loop struct {
	k    *Kernel
	mbox chan command
	done chan struct{} // closed when the engine goroutine has exited
	// sess backs the loop's typed client methods (Open/WritePage/...);
	// touched only from closures running on the engine goroutine.
	sess *CacheSession
}

// command is one mailbox entry: a Call (call and errc), an Async or a timer
// callback. The zero command is Close's stop sentinel. Carrying the caller's
// function and its reply channel as fields, instead of wrapping them in a
// closure, is what lets a Call with a preallocated fn allocate nothing.
type command struct {
	call  func(*Kernel) error
	errc  chan error // call's reply, from errcPool
	async func(*Kernel)
	timer func()
}

// errcPool recycles Call's reply channels. A channel goes back only after
// its reply has been received, so a recycled channel is always empty.
var errcPool = sync.Pool{New: func() any { return make(chan error, 1) }}

// DefaultMailboxDepth bounds how many commands may queue before senders
// block — enough to absorb bursts, small enough to apply backpressure
// instead of hiding latency in an unbounded queue.
const DefaultMailboxDepth = 128

// NewLoop starts the engine goroutine for k and, when k runs on the
// realtime substrate, installs the timer-callback gate. The kernel must not
// be touched directly (outside Call/Async closures) from then on.
func NewLoop(k *Kernel) *Loop {
	l := &Loop{
		k:    k,
		mbox: make(chan command, DefaultMailboxDepth),
		done: make(chan struct{}),
		sess: NewCacheSession(),
	}
	if rc, ok := k.Clock.Backend().(*substrate.RealClock); ok {
		rc.SetGate(l.enqueue)
	}
	go l.run()
	return l
}

// run is the engine goroutine: apply mailbox commands in order until Close's
// stop sentinel arrives.
func (l *Loop) run() {
	defer close(l.done)
	for cmd := range l.mbox {
		switch {
		case cmd.errc != nil:
			cmd.errc <- cmd.call(l.k)
		case cmd.async != nil:
			cmd.async(l.k)
		case cmd.timer != nil:
			cmd.timer()
		default: // Close's stop sentinel
			return
		}
	}
}

// enqueue is the RealClock gate: deliver a timer expiration through the
// mailbox. Expirations are NEVER run inline on the timer goroutine — while
// the engine is draining toward Close's stop sentinel an inline callback
// would race with the closures still being applied, and after the engine
// has exited it would race with the closer, who owns the kernel again (and
// may be tearing down the backing store). So once the engine is gone the
// callback is deliberately dropped: a disk-completion or wakeup for a
// kernel that is shutting down has no one left to serve. A callback that
// lands in the mailbox behind the stop sentinel is dropped the same way
// when the engine exits without draining it.
func (l *Loop) enqueue(run func()) {
	select {
	case l.mbox <- command{timer: run}:
	case <-l.done:
		// Dropped: engine exited, kernel ownership has passed to the closer.
	}
}

// Call runs fn on the engine goroutine and returns its error. It blocks
// until fn has run (or the loop closes first, returning ErrLoopClosed).
func (l *Loop) Call(fn func(k *Kernel) error) error {
	select {
	case <-l.done: // engine already gone; don't park fn in a dead mailbox
		return ErrLoopClosed
	default:
	}
	errc := errcPool.Get().(chan error)
	select {
	case l.mbox <- command{call: fn, errc: errc}:
	case <-l.done:
		return ErrLoopClosed
	}
	select {
	case err := <-errc:
		errcPool.Put(errc)
		return err
	case <-l.done:
		// The loop shut down while fn was queued; it may still have been
		// the last command applied before the sentinel.
		select {
		case err := <-errc:
			errcPool.Put(errc)
			return err
		default:
			return ErrLoopClosed
		}
	}
}

// Async enqueues fn without waiting for it to run. It reports false after
// Close. True means "enqueued", not "will run": if Close wins the race and
// its stop sentinel lands ahead of fn in the mailbox, fn is discarded
// without running. Callers that must know their command applied use Call.
func (l *Loop) Async(fn func(k *Kernel)) bool {
	select {
	case <-l.done:
		return false
	default:
	}
	select {
	case l.mbox <- command{async: fn}:
		return true
	case <-l.done:
		return false
	}
}

// Close stops the engine goroutine after the commands already enqueued have
// been applied and waits for it to exit. Idempotent; concurrent Calls that
// lose the race return ErrLoopClosed.
//
// The timer gate stays installed: detaching it (before OR after the engine
// exits) would let late wall-clock expirations run inline on Go timer
// goroutines — racing with the drain while it is still in progress, or with
// the closer tearing down the kernel and its store afterwards. Instead the
// gate itself goes dead with the loop: once done is closed, enqueue drops
// every callback deliberately (see enqueue). A kernel is not reusable for
// ungated single-goroutine timer work after its loop closes; wrap it in a
// new Loop instead, which installs a fresh gate.
func (l *Loop) Close() {
	select {
	case <-l.done:
		return
	default:
	}
	select {
	case l.mbox <- command{}:
	case <-l.done:
		return
	}
	<-l.done
}
