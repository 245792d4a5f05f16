package core

import (
	"testing"
	"time"

	"hipec/internal/substrate"
)

// --- batched clock charging: correctness --------------------------------

// chargeFixture builds a kernel whose PageFault program spins in a pure
// Comp/Jump loop for `spins` iterations before dequeuing a page, so a
// single fault executes a long run of non-kernel-touching commands — the
// case where batched charging and serial per-command charging could
// diverge if the flush logic were wrong.
func chargeFixture(t testing.TB, spins int64, quantum time.Duration) (*Kernel, *Container, int64) {
	t.Helper()
	k := testKernel(128)
	k.Executor.FlushQuantum = quantum
	sp := k.NewSpace()
	spec := simpleSpec(8)
	ctr := uint8(SlotUser)
	limit := uint8(SlotUser + 1)
	spec.Operands = []OperandDecl{
		{Slot: ctr, Kind: KindInt, Name: "ctr"},
		{Slot: limit, Kind: KindInt, Name: "limit", Init: spins, Const: true},
	}
	spec.Events[EventPageFault] = NewProgram(
		Encode(OpArith, ctr, 0, ArithInc),                        // CC1
		Encode(OpComp, ctr, limit, CompLT),                       // CC2
		Encode(OpJump, JumpIfTrue, 0, 1),                         // CC3: spin
		Encode(OpDeQueue, SlotPageReg, SlotFreeQueue, QueueHead), // CC4
		Encode(OpReturn, SlotPageReg, 0, 0),                      // CC5
	)
	e, c, err := k.Allocate(sp, 8*4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Touch(e.Start); err != nil {
		t.Fatal(err)
	}
	return k, c, int64(k.Clock.Now())
}

// TestBatchedChargeMatchesSerialElapsed: the total virtual time of an
// activation must be identical whether command time is charged per command
// (quantum <= PerCommand) or batched at the default quantum.
func TestBatchedChargeMatchesSerialElapsed(t *testing.T) {
	_, _, serial := chargeFixture(t, 5000, time.Nanosecond)
	_, _, batched := chargeFixture(t, 5000, DefaultFlushQuantum)
	if serial != batched {
		t.Fatalf("elapsed diverged: serial=%dns batched=%dns", serial, batched)
	}
	_, _, huge := chargeFixture(t, 5000, time.Second)
	if huge != serial {
		t.Fatalf("elapsed diverged at 1s quantum: serial=%dns got=%dns", serial, huge)
	}
}

// runawayKillTime drives a watchdog kill of an infinitely looping policy
// and reports the simulated time at which the container died.
func runawayKillTime(t *testing.T, quantum time.Duration) (int64, string) {
	t.Helper()
	k := testKernel(64)
	// The verifier statically proves this loop infinite; the watchdog
	// test needs it to load anyway.
	k.Checker.allowUnbounded = true
	k.Executor.FlushQuantum = quantum
	k.Executor.MaxSteps = 1 << 30 // let the checker do the killing
	k.Checker.TimeOut = 10 * time.Millisecond
	k.Checker.WakeUp = 20 * time.Millisecond
	k.Checker.Start()
	sp := k.NewSpace()
	spec := simpleSpec(4)
	spec.Events[EventPageFault] = NewProgram(
		Encode(OpComp, SlotZero, SlotOne, CompLT), // CC1: always true
		Encode(OpJump, JumpIfTrue, 0, 1),          // CC2: loop forever
		Encode(OpDeQueue, SlotPageReg, SlotFreeQueue, QueueHead),
		Encode(OpReturn, SlotPageReg, 0, 0),
	)
	e, c, err := k.Allocate(sp, 4*4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Touch(e.Start); err == nil {
		t.Fatal("runaway policy survived")
	}
	if c.State() != StateTerminated {
		t.Fatalf("state = %v", c.State())
	}
	return int64(k.Clock.Now()), c.TerminationReason()
}

// TestCheckerKillTimeUnchangedByBatching: the security checker must kill a
// runaway policy at the same simulated instant under batched charging as
// under the serial per-command charge, for any flush quantum. flushCharge
// guarantees this by stepping to each event boundary and rounding the
// abort up to the command boundary the serial path would have died at.
func TestCheckerKillTimeUnchangedByBatching(t *testing.T) {
	serialAt, serialWhy := runawayKillTime(t, time.Nanosecond) // per-command
	for _, q := range []time.Duration{DefaultFlushQuantum, 123 * time.Nanosecond, time.Millisecond} {
		at, why := runawayKillTime(t, q)
		if at != serialAt {
			t.Errorf("quantum %v: killed at %dns, serial killed at %dns", q, at, serialAt)
		}
		if why != serialWhy {
			t.Errorf("quantum %v: reason %q, serial %q", q, why, serialWhy)
		}
	}
}

// TestPredecodeCoversAppendedEvents: programs registered after activation
// (the bench/test backdoor) must be predecoded too.
func TestPredecodeCoversAppendedEvents(t *testing.T) {
	k, c := newExecFixture(t)
	ev := c.AppendEventForTest(NewProgram(
		Encode(OpArith, SlotScratch, SlotOne, ArithAdd),
		Encode(OpReturn, SlotScratch, 0, 0),
	))
	res, err := k.Executor.Run(c, ev)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntValue() != 1 {
		t.Fatalf("appended event computed %d, want 1", res.IntValue())
	}
}

// --- hot-path benchmarks -------------------------------------------------

// BenchmarkExecutorSimpleFault measures the full simple-fault activation
// (EmptyQ, Jump-not-taken via CR, DeQueue, Return) with the calibrated
// virtual costs charged — the paper's Table 4 fast path as the experiments
// actually run it.
func BenchmarkExecutorSimpleFault(b *testing.B) {
	k := testKernel(1024)
	sp := k.NewSpace()
	e, c, err := k.Allocate(sp, 64*4096, WithPolicy(simpleSpec(64)))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sp.Touch(e.Start); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := k.Executor.Run(c, EventPageFault)
		if err != nil {
			b.Fatal(err)
		}
		c.Free.EnqueueHead(res.Page)
		c.operands[SlotPageReg].Page = nil
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(k.Executor.TotalCommands()), "ns/command")
}

// BenchmarkExecutorCommandLoop measures sustained interpreted-command
// throughput with costs charged: a 1024-iteration pure Arith/Comp/Jump
// loop per activation, the case where batched clock charging replaces one
// event-heap walk per command with one per quantum.
func BenchmarkExecutorCommandLoop(b *testing.B) {
	k := testKernel(128)
	sp := k.NewSpace()
	spec := simpleSpec(8)
	ctr := uint8(SlotUser)
	limit := uint8(SlotUser + 1)
	spec.Operands = []OperandDecl{
		{Slot: ctr, Kind: KindInt, Name: "ctr"},
		{Slot: limit, Kind: KindInt, Name: "limit", Init: 1024, Const: true},
	}
	_, c, err := k.Allocate(sp, 8*4096, WithPolicy(spec))
	if err != nil {
		b.Fatal(err)
	}
	// Loop program: reset counter, spin to limit, return.
	zero := uint8(SlotUser + 2)
	c.operands[zero] = Operand{Kind: KindInt, Name: "z"}
	loop := c.AppendEventForTest(NewProgram(
		Encode(OpArith, ctr, zero, ArithMov), // CC1: ctr = 0
		Encode(OpArith, ctr, 0, ArithInc),    // CC2
		Encode(OpComp, ctr, limit, CompLT),   // CC3
		Encode(OpJump, JumpIfTrue, 0, 2),     // CC4: spin
		Encode(OpReturn, SlotScratch, 0, 0),  // CC5
	))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Executor.Run(c, loop); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(k.Executor.TotalCommands()), "ns/command")
}

// --- frame-manager hot paths: allocation pins ---------------------------

// TestRequestReleaseCycleDoesNotAllocate pins the global frame manager's
// grant path: a steady Request/ReleaseFromFree cycle reuses the manager's
// scratch buffers and must not allocate.
func TestRequestReleaseCycleDoesNotAllocate(t *testing.T) {
	k := testKernel(256)
	sp := k.NewSpace()
	_, c, err := k.Allocate(sp, 8*4096, WithPolicy(simpleSpec(8)))
	if err != nil {
		t.Fatal(err)
	}
	// Warm one cycle so lazy structures (registry scopes, queue nodes)
	// exist before measuring.
	if !k.FM.Request(c, 4) {
		t.Fatal("warm-up request denied")
	}
	if got := k.FM.ReleaseFromFree(c, 4); got != 4 {
		t.Fatalf("warm-up release returned %d, want 4", got)
	}
	if avg := testing.AllocsPerRun(500, func() {
		if !k.FM.Request(c, 4) {
			t.Fatal("request denied")
		}
		if got := k.FM.ReleaseFromFree(c, 4); got != 4 {
			t.Fatalf("released %d, want 4", got)
		}
	}); avg != 0 {
		t.Fatalf("request/release cycle allocates %.2f/op, want 0", avg)
	}
}

// TestFlushExchangeAllocations pins the allocation count of each of
// FlushExchange's three branches at what it is today: the clean branch and
// the synchronous (realtime) branch allocate nothing — the memory store
// overwrites the page it already holds — and the asynchronous (sim) branch
// only the laundering completion closure and the disk's completion timer. A
// new allocation on any branch moves its count.
func TestFlushExchangeAllocations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kind  substrate.Kind
		dirty bool
		want  float64
	}{
		{"clean", substrate.KindSim, false, 0},
		{"sync", substrate.KindReal, true, 0},
		{"async", substrate.KindSim, true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New(Config{
				Frames:        128,
				PageSize:      4096,
				BurstFraction: 0.5,
				Substrate:     substrate.Config{Kind: tc.kind},
			})
			sp := k.NewSpace()
			e, c, err := k.Allocate(sp, 8*4096, WithPolicy(simpleSpec(8)))
			if err != nil {
				t.Fatal(err)
			}
			// One cycle: fault the page in (dirty or clean), flush it, hand
			// the returned frame back to the policy's free list, and let a
			// laundering write complete.
			cycle := func() {
				var err error
				if tc.dirty {
					_, err = sp.Write(e.Start)
				} else {
					_, err = sp.Touch(e.Start)
				}
				if err != nil {
					t.Fatal(err)
				}
				np, ok := k.FM.FlushExchange(c, c.Active.DequeueHead())
				if !ok {
					t.Fatal("flush failed")
				}
				c.Free.EnqueueTail(np)
				if tc.kind == substrate.KindSim {
					k.Clock.Advance(time.Second)
				}
			}
			cycle() // warm: lazy structures exist before measuring
			if avg := testing.AllocsPerRun(200, cycle); avg != tc.want {
				t.Fatalf("FlushExchange %s cycle allocates %.2f/op, pinned at %.0f", tc.name, avg, tc.want)
			}
		})
	}
}

// TestReclaimForcedDoesNotAllocate pins forced reclamation: stealing the
// oldest-allocated frames from a container above its minimum reuses the
// manager's candidate scratch and must not allocate.
func TestReclaimForcedDoesNotAllocate(t *testing.T) {
	k := testKernel(256)
	sp := k.NewSpace()
	_, c, err := k.Allocate(sp, 8*4096, WithPolicy(simpleSpec(8)))
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		if !k.FM.Request(c, 4) {
			t.Fatal("request denied")
		}
		if got := k.FM.reclaimForced(4, nil); got != 4 {
			t.Fatalf("reclaimForced took %d frames, want 4", got)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("forced reclaim cycle allocates %.2f/op, want 0", avg)
	}
}
