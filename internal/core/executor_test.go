package core

import (
	"strings"
	"testing"
	"time"

	"hipec/internal/mem"
)

// runProg appends a scratch event to an existing container and executes it.
func runProg(t *testing.T, k *Kernel, c *Container, cmds ...Command) (*Operand, error) {
	t.Helper()
	ev := c.AppendEventForTest(NewProgram(cmds...))
	return k.Executor.Run(c, ev)
}

func newExecFixture(t *testing.T) (*Kernel, *Container) {
	t.Helper()
	k := testKernel(128)
	sp := k.NewSpace()
	e, c, err := k.Allocate(sp, 16*4096, WithPolicy(simpleSpec(8)))
	if err != nil {
		t.Fatal(err)
	}
	// Make a few pages resident (4 on Active, 4 left on Free).
	for i := int64(0); i < 4; i++ {
		if _, err := sp.Write(e.Start + i*4096); err != nil {
			t.Fatal(err)
		}
	}
	return k, c
}

func TestInQCommand(t *testing.T) {
	k, c := newExecFixture(t)
	// Dequeue a page from Active, test membership before/after enqueue.
	res, err := runProg(t, k, c,
		Encode(OpDeQueue, SlotPageReg, SlotActiveQueue, QueueHead),
		Encode(OpInQ, SlotActiveQueue, SlotPageReg, 0),
		Encode(OpJump, JumpIfTrue, 0, 6), // must NOT be on active anymore
		Encode(OpEnQueue, SlotPageReg, SlotActiveQueue, QueueTail),
		Encode(OpReturn, SlotOne, 0, 0),  // CC5: correct path
		Encode(OpReturn, SlotZero, 0, 0), // CC6: wrong path
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntValue() != 1 {
		t.Fatal("InQ reported dequeued page as still enqueued")
	}
	// Now the page is back on active: InQ must see it. Registers were
	// cleared by EnQueue, so re-dequeue and re-enqueue won't help — use
	// a fresh dequeue and leave it in the register.
	res, err = runProg(t, k, c,
		Encode(OpDeQueue, SlotPageReg, SlotActiveQueue, QueueHead),
		Encode(OpEnQueue, SlotPageReg, SlotInactiveQueue, QueueTail),
		Encode(OpDeQueue, SlotPageReg, SlotInactiveQueue, QueueTail),
		Encode(OpInQ, SlotInactiveQueue, SlotPageReg, 0),
		Encode(OpJump, JumpIfTrue, 0, 7),
		Encode(OpReturn, SlotOne, 0, 0),
		Encode(OpReturn, SlotZero, 0, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntValue() != 1 {
		t.Fatal("InQ membership after moves wrong")
	}
}

func TestLogicCommands(t *testing.T) {
	k := testKernel(64)
	sp := k.NewSpace()
	spec := simpleSpec(4)
	bt := uint8(SlotUser)     // bool true
	bf := uint8(SlotUser + 1) // bool false
	spec.Operands = []OperandDecl{
		{Slot: bt, Kind: KindBool, Name: "t", Init: 1},
		{Slot: bf, Kind: KindBool, Name: "f", Init: 0},
	}
	_, c, err := k.Allocate(sp, 4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	check := func(flag uint8, a, b uint8, want bool) {
		t.Helper()
		res, err := runProg(t, k, c,
			Encode(OpLogic, a, b, flag),
			Encode(OpJump, JumpIfTrue, 0, 4),
			Encode(OpReturn, SlotZero, 0, 0), // CC3: false path
			Encode(OpReturn, SlotOne, 0, 0),  // CC4: true path
		)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.IntValue() == 1; got != want {
			t.Fatalf("Logic flag=%d(%v,%v) = %t, want %t", flag, a, b, got, want)
		}
	}
	check(LogicAnd, bt, bt, true)
	check(LogicAnd, bt, bf, false)
	check(LogicOr, bf, bt, true)
	check(LogicOr, bf, bf, false)
	check(LogicXor, bt, bf, true)
	check(LogicXor, bt, bt, false)
	check(LogicNot, bf, 0, true)
	check(LogicNot, bt, 0, false)
}

func TestSetModifyBit(t *testing.T) {
	k, c := newExecFixture(t)
	_, err := runProg(t, k, c,
		Encode(OpDeQueue, SlotPageReg, SlotActiveQueue, QueueHead),
		Encode(OpSet, SlotPageReg, SetBitModify, SetOpClear),
		Encode(OpMod, SlotPageReg, 0, 0),
		Encode(OpJump, JumpIfTrue, 0, 7),
		Encode(OpSet, SlotPageReg, SetBitModify, SetOpSet),
		Encode(OpEnQueue, SlotPageReg, SlotActiveQueue, QueueTail),
		Encode(OpReturn, SlotOne, 0, 0),
		Encode(OpReturn, SlotZero, 0, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	// The page went back dirty (SetOpSet before EnQueue).
	dirty := 0
	c.Active.Each(func(p *mem.Page) bool {
		if p.Modified {
			dirty++
		}
		return true
	})
	if dirty == 0 {
		t.Fatal("Set modify bit did not stick")
	}
}

func TestFindMissSetsCRFalse(t *testing.T) {
	k, c := newExecFixture(t)
	far := uint8(SlotUser)
	c.operands[far] = Operand{Kind: KindInt, Name: "far", Int: 15 * 4096} // never touched
	res, err := runProg(t, k, c,
		Encode(OpFind, SlotPageReg, far, 0),
		Encode(OpJump, JumpIfTrue, 0, 4),
		Encode(OpReturn, SlotOne, 0, 0),  // CC3: miss path
		Encode(OpReturn, SlotZero, 0, 0), // CC4: hit path
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntValue() != 1 {
		t.Fatal("Find of non-resident address reported a hit")
	}
}

func TestReleasePageVariant(t *testing.T) {
	k, c := newExecFixture(t)
	before := c.Allocated()
	freeBefore := k.Daemon.FreeCount()
	_, err := runProg(t, k, c,
		Encode(OpDeQueue, SlotPageReg, SlotActiveQueue, QueueHead),
		Encode(OpRelease, SlotPageReg, 0, 0),
		Encode(OpReturn, SlotScratch, 0, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.Allocated() != before-1 {
		t.Fatalf("allocated %d -> %d", before, c.Allocated())
	}
	// The released frame may be dirty: it is laundered asynchronously
	// before joining the pool, or free immediately if clean.
	k.Clock.Advance(time.Second)
	if got := k.Daemon.FreeCount(); got != freeBefore+1 {
		t.Fatalf("machine free %d -> %d, want +1", freeBefore, got)
	}
}

func TestActivateDepthLimit(t *testing.T) {
	k := testKernel(64)
	sp := k.NewSpace()
	spec := simpleSpec(4)
	_, c, err := k.Allocate(sp, 4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	// Two events activating each other. The verifier now rejects this at
	// registration (activate-cycle), so inject the programs behind its
	// back to prove the runtime nesting limit still backstops.
	c.AppendEventForTest(NewProgram(Encode(OpActivate, 3, 0, 0), Encode(OpReturn, 0, 0, 0)))
	c.AppendEventForTest(NewProgram(Encode(OpActivate, 2, 0, 0), Encode(OpReturn, 0, 0, 0)))
	if _, err := k.Executor.Run(c, 2); err == nil {
		t.Fatal("mutual recursion not caught")
	}
	if !strings.Contains(c.TerminationReason(), "nesting") {
		t.Fatalf("reason = %q", c.TerminationReason())
	}
}

func TestRequestZeroAlwaysGranted(t *testing.T) {
	k, c := newExecFixture(t)
	res, err := runProg(t, k, c,
		Encode(OpRequest, SlotZero, 0, 0),
		Encode(OpJump, JumpIfTrue, 0, 4),
		Encode(OpReturn, SlotZero, 0, 0),
		Encode(OpReturn, SlotOne, 0, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.IntValue() != 1 {
		t.Fatal("Request of zero frames denied")
	}
}

func TestFlushFallbackWhenMachineExhausted(t *testing.T) {
	// A machine so small the frame manager cannot find a replacement
	// frame: FlushExchange must fall back to a synchronous write and
	// return the same frame.
	k := testKernel(16)
	sp := k.NewSpace()
	e, c, err := k.Allocate(sp, 8*4096, WithPolicy(simpleSpec(8)))
	if err != nil {
		t.Fatal(err)
	}
	sp.Write(e.Start)
	// Exhaust the machine: with the reserve at the full size, TakeFree
	// can never hand out a replacement frame.
	k.Daemon.Targets.Reserved = 16
	before := c.Allocated()
	_, err = runProg(t, k, c,
		Encode(OpDeQueue, SlotPageReg, SlotActiveQueue, QueueHead),
		Encode(OpFlush, SlotPageReg, 0, 0),
		Encode(OpEnQueue, SlotPageReg, SlotFreeQueue, QueueTail),
		Encode(OpReturn, SlotScratch, 0, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.Allocated() != before {
		t.Fatal("fallback flush changed the grant")
	}
	if k.VM.Stats().PageOuts != 1 {
		t.Fatalf("PageOuts = %d", k.VM.Stats().PageOuts)
	}
}

func TestImplicitLaunderOnDirtyFree(t *testing.T) {
	// A policy that frees a dirty page without Flush: the kernel must
	// launder it rather than lose the data.
	k := New(Config{Frames: 128, KeepData: true})
	sp := k.NewSpace()
	e, c, err := k.Allocate(sp, 8*4096, WithPolicy(simpleSpec(8)))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := sp.Write(e.Start)
	p.Data[0] = 0xEE
	_, err = runProg(t, k, c,
		Encode(OpDeQueue, SlotPageReg, SlotActiveQueue, QueueHead),
		Encode(OpEnQueue, SlotPageReg, SlotFreeQueue, QueueTail), // dirty!
		Encode(OpReturn, SlotScratch, 0, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	if k.FM.Stats().ImplicitFlushes != 1 {
		t.Fatalf("ImplicitFlushes = %d", k.FM.Stats().ImplicitFlushes)
	}
	// The data must survive a re-fault.
	p2, err := sp.Touch(e.Start)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Data[0] != 0xEE {
		t.Fatal("dirty data lost when policy freed without Flush")
	}
}

func TestCheckerAdaptiveHalving(t *testing.T) {
	k := testKernel(64)
	// The verifier statically proves this loop infinite; the watchdog
	// test needs it to load anyway.
	k.Checker.allowUnbounded = true
	ck := k.Checker
	ck.TimeOut = time.Millisecond
	ck.WakeUp = 4 * time.Second
	ck.Start()
	sp := k.NewSpace()
	spec := simpleSpec(4)
	spec.Events[EventPageFault] = NewProgram(
		Encode(OpComp, SlotZero, SlotOne, CompLT),
		Encode(OpJump, JumpIfTrue, 0, 1),
		Encode(OpDeQueue, SlotPageReg, SlotFreeQueue, QueueHead),
		Encode(OpReturn, SlotPageReg, 0, 0),
	)
	k.Executor.MaxSteps = 1 << 30 // let the checker do the killing
	e, _, err := k.Allocate(sp, 4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Touch(e.Start); err == nil {
		t.Fatal("runaway survived")
	}
	// Timeout detected: the wakeup interval halves (4s -> 2s).
	if ck.WakeUp != 2*time.Second {
		t.Fatalf("WakeUp = %v after timeout, want 2s", ck.WakeUp)
	}
	// Quiet period: it doubles back up to the clamp.
	k.Clock.Advance(2 * time.Minute)
	if ck.WakeUp != ck.MaxWakeUp {
		t.Fatalf("WakeUp = %v after quiet period, want %v", ck.WakeUp, ck.MaxWakeUp)
	}
}

func TestCheckerStopStopsWakeups(t *testing.T) {
	k := testKernel(64)
	k.Checker.Start()
	k.Clock.Advance(3 * time.Second)
	n := k.Checker.Stats().Wakeups
	if n == 0 {
		t.Fatal("no wakeups before stop")
	}
	k.Checker.Stop()
	k.Clock.Advance(time.Minute)
	if k.Checker.Stats().Wakeups > n+1 {
		t.Fatalf("checker kept waking after Stop: %d -> %d", n, k.Checker.Stats().Wakeups)
	}
}

func TestExecutorTotalsAccumulate(t *testing.T) {
	k, c := newExecFixture(t)
	a0, c0 := k.Executor.TotalActivations(), k.Executor.TotalCommands()
	if _, err := runProg(t, k, c, Encode(OpReturn, SlotScratch, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if k.Executor.TotalActivations() != a0+1 || k.Executor.TotalCommands() != c0+1 {
		t.Fatalf("totals did not advance: %d/%d -> %d/%d",
			a0, c0, k.Executor.TotalActivations(), k.Executor.TotalCommands())
	}
}

func TestExecutorTraceOutput(t *testing.T) {
	k, c := newExecFixture(t)
	var buf strings.Builder
	k.Executor.Trace = k.NewTextTrace(&buf)
	if _, err := runProg(t, k, c,
		Encode(OpComp, SlotFreeCount, SlotZero, CompGT),
		Encode(OpReturn, SlotScratch, 0, 0),
	); err != nil {
		t.Fatal(err)
	}
	k.Executor.Trace = nil
	out := buf.String()
	for _, want := range []string{"Comp", "Return", "CC=1", "CR="} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestKernelReport(t *testing.T) {
	k, c := newExecFixture(t)
	out := k.Report()
	for _, want := range []string{"machine:", "daemon:", "manager:", "checker:", "containers:", "simple-fifo", "active"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	k.terminate(c, "test kill")
	if !strings.Contains(k.Report(), "test kill") {
		t.Fatal("terminated container reason not reported")
	}
	empty := testKernel(16)
	if !strings.Contains(empty.Report(), "containers: none") {
		t.Fatal("empty kernel report wrong")
	}
}
