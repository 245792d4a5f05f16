package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hipec/internal/simtime"
	"hipec/internal/substrate"
	"hipec/internal/vm"
)

// realKernel builds a kernel on the realtime substrate (wall clock, payload
// arena, zero cost models).
func realKernel(frames int) *Kernel {
	return New(Config{
		Frames:        frames,
		PageSize:      4096,
		BurstFraction: 0.5,
		Substrate:     substrate.Config{Kind: substrate.KindReal},
	})
}

// TestLoopSerializesConcurrentCallers is the realtime concurrency contract:
// >= 8 goroutines hammer one kernel through the loop, each faulting and
// re-touching its own HiPEC region. Run under -race this proves the mailbox
// is the only synchronization the engine needs.
func TestLoopSerializesConcurrentCallers(t *testing.T) {
	k := realKernel(512)
	l := NewLoop(k)
	defer l.Close()

	const clients = 8
	const pagesPer = 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sp *vm.AddressSpace
			var start int64
			if err := l.Call(func(k *Kernel) error {
				sp = k.NewSpace()
				e, _, err := k.Allocate(sp, pagesPer*4096, WithPolicy(simpleSpec(4)))
				if err != nil {
					return err
				}
				start = e.Start
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 4; round++ {
				for i := int64(0); i < pagesPer; i++ {
					addr := start + i*4096
					if err := l.Call(func(k *Kernel) error {
						_, err := sp.Touch(addr)
						return err
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if err := l.Call(func(k *Kernel) error {
		if got := int(k.Stats().ContainersCreated); got != clients {
			t.Errorf("containers = %d, want %d", got, clients)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLoopGatesTimerCallbacks proves wall-clock timer expirations are
// delivered through the mailbox: a callback scheduled on the RealClock
// mutates engine-owned state that Calls are concurrently mutating — only
// serialization through the loop keeps -race quiet, and the observed
// ordering must show the callback ran on the engine goroutine.
func TestLoopGatesTimerCallbacks(t *testing.T) {
	k := realKernel(64)
	l := NewLoop(k)
	defer l.Close()

	hits := 0 // engine-owned: touched only inside mailbox closures
	fired := make(chan struct{})
	if err := l.Call(func(k *Kernel) error {
		k.Clock.After(time.Millisecond, func(simtime.Time) {
			hits++
			close(fired)
		})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := l.Call(func(*Kernel) error { hits++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("gated timer callback never delivered")
	}
	if err := l.Call(func(*Kernel) error {
		if hits != 101 {
			t.Errorf("hits = %d, want 101", hits)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLoopCloseDrainsAndRejects: commands enqueued before Close run; calls
// after Close report ErrLoopClosed; Close is idempotent.
func TestLoopCloseDrainsAndRejects(t *testing.T) {
	k := realKernel(64)
	l := NewLoop(k)

	ran := false
	if !l.Async(func(*Kernel) { ran = true }) {
		t.Fatal("Async rejected before Close")
	}
	l.Close()
	l.Close()
	if !ran {
		t.Fatal("command enqueued before Close was dropped")
	}
	if err := l.Call(func(*Kernel) error { return nil }); !errors.Is(err, ErrLoopClosed) {
		t.Fatalf("Call after Close = %v, want ErrLoopClosed", err)
	}
	if l.Async(func(*Kernel) {}) {
		t.Fatal("Async accepted after Close")
	}
}

// TestLoopCloseNeverRunsTimerCallbacksInline is the shutdown-race
// regression: timers armed before Close that expire around or after it must
// either be applied by the engine goroutine or dropped — never run inline
// on a Go timer goroutine, where they would race with the drain still in
// progress or with the closer, who owns the kernel after Close. The
// callbacks and the closer both mutate the same engine-owned state; under
// -race an inline delivery is flagged immediately.
func TestLoopCloseNeverRunsTimerCallbacksInline(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		k := realKernel(64)
		l := NewLoop(k)
		state := 0 // engine-owned until Close returns, then closer-owned
		if err := l.Call(func(k *Kernel) error {
			for i := 0; i < 8; i++ {
				k.Clock.After(time.Duration(i)*50*time.Microsecond, func(simtime.Time) {
					state++
				})
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		l.Close()
		// Ownership has passed to us; a late inline callback would race.
		state++
		_ = state
	}
}

// TestLoopCloseKeepsGateInstalled: after Close the RealClock gate must not
// revert to inline dispatch — late expirations are dropped by the dead
// loop's gate instead of running on timer goroutines.
func TestLoopCloseKeepsGateInstalled(t *testing.T) {
	k := realKernel(64)
	l := NewLoop(k)
	rc := k.Clock.Backend().(*substrate.RealClock)
	ran := make(chan struct{})
	if err := l.Call(func(k *Kernel) error {
		k.Clock.After(20*time.Millisecond, func(simtime.Time) { close(ran) })
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	select {
	case <-ran:
		t.Fatal("timer callback ran after Close")
	case <-time.After(60 * time.Millisecond):
	}
	// The dropped callback's pending entry deliberately never clears.
	if rc.Pending() == 0 {
		t.Fatal("dropped callback vanished from Pending")
	}
}

// TestLoopCallAndAsyncDoNotAllocate pins the mailbox hop at zero
// allocations: a command travels by value, Call's reply channel comes from
// a pool, and the caller's fn is preallocated here, as the server binds its
// batch function once per connection.
func TestLoopCallAndAsyncDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	l := NewLoop(realKernel(64))
	defer l.Close()
	ran := 0 // engine-owned
	call := func(*Kernel) error { ran++; return nil }
	async := func(*Kernel) { ran++ }
	if avg := testing.AllocsPerRun(1000, func() {
		if err := l.Call(call); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Loop.Call allocates %.2f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if !l.Async(async) {
			t.Fatal("Async rejected on an open loop")
		}
	}); avg != 0 {
		t.Errorf("Loop.Async allocates %.2f/op, want 0", avg)
	}
	if err := l.Call(func(*Kernel) error {
		if ran != 2002 { // AllocsPerRun adds one warm-up run each
			t.Errorf("ran %d commands, want 2002", ran)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLoopOnSimKernel: the loop is substrate-agnostic — a simulated kernel
// can be driven through it too (there is just no gate to install).
func TestLoopOnSimKernel(t *testing.T) {
	k := testKernel(64)
	l := NewLoop(k)
	defer l.Close()
	if err := l.Call(func(k *Kernel) error {
		sp := k.NewSpace()
		_, _, err := k.Allocate(sp, 4*4096, WithPolicy(simpleSpec(2)))
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRealtimeKernelPayloads: on the realtime substrate frames carry real
// page payloads from the arena.
func TestRealtimeKernelPayloads(t *testing.T) {
	k := realKernel(64)
	if !k.VM.Frames.HasArena() {
		t.Fatal("realtime kernel frames have no payload arena")
	}
	if k.Clock.IsSim() {
		t.Fatal("realtime kernel got a sim clock")
	}
}
