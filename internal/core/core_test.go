package core

import (
	"strings"
	"testing"
	"time"

	"hipec/internal/vm"
)

// testKernel builds a small kernel with cheap costs for unit tests.
func testKernel(frames int) *Kernel {
	return New(Config{
		Frames:        frames,
		PageSize:      4096,
		BurstFraction: 0.5,
	})
}

// simpleSpec is a minimal FIFO policy: take from the private free list,
// running the canned FIFO command over the active queue when it is empty.
func simpleSpec(minFrame int) *Spec {
	pageFault := NewProgram(
		Encode(OpEmptyQ, SlotFreeQueue, 0, 0),                    // CC1: free list empty?
		Encode(OpJump, JumpIfTrue, 0, 5),                         // CC2: yes -> replenish
		Encode(OpDeQueue, SlotPageReg, SlotFreeQueue, QueueHead), // CC3
		Encode(OpReturn, SlotPageReg, 0, 0),                      // CC4
		Encode(OpFIFO, SlotActiveQueue, 0, 0),                    // CC5: evict oldest
		Encode(OpJump, JumpAlways, 0, 3),                         // CC6
	)
	reclaim := NewProgram(
		Encode(OpEmptyQ, SlotFreeQueue, 0, 0),
		Encode(OpJump, JumpIfTrue, 0, 5),
		Encode(OpRelease, SlotOne, 0, 0), // give one frame back
		Encode(OpReturn, SlotScratch, 0, 0),
		Encode(OpReturn, SlotScratch, 0, 0),
	)
	return &Spec{
		Name:     "simple-fifo",
		Events:   []Program{pageFault, reclaim},
		MinFrame: minFrame,
	}
}

func TestCommandEncodingRoundTrip(t *testing.T) {
	c := Encode(OpDeQueue, 0x0B, 0x01, 0x01)
	if c.Op() != OpDeQueue || c.A() != 0x0B || c.B() != 0x01 || c.C() != 0x01 {
		t.Fatalf("round trip failed: %v", c)
	}
	if got := Command(0x070B0101); got != c {
		t.Fatalf("Table 2 byte image mismatch: %#08x vs %#08x", uint32(got), uint32(c))
	}
	if !strings.Contains(c.String(), "DeQueue") {
		t.Fatalf("String() = %q", c.String())
	}
	if Magic.String() != "HiPEC-Magic" {
		t.Fatalf("magic String() = %q", Magic.String())
	}
}

func TestOpcodeNames(t *testing.T) {
	for op := OpReturn; op <= maxExtOpcode; op++ {
		if strings.HasPrefix(op.String(), "Opcode(") {
			t.Fatalf("opcode %#02x has no name", uint8(op))
		}
	}
	if !strings.HasPrefix(Opcode(0xFF).String(), "Opcode(") {
		t.Fatal("unknown opcode did not format as raw")
	}
}

func TestActivateAndFaultBasics(t *testing.T) {
	k := testKernel(256)
	sp := k.NewSpace()
	e, c, err := k.Allocate(sp, 16*4096, WithPolicy(simpleSpec(8)))
	if err != nil {
		t.Fatal(err)
	}
	if c.Allocated() != 8 || c.Free.Len() != 8 {
		t.Fatalf("minFrame grant: allocated=%d free=%d", c.Allocated(), c.Free.Len())
	}
	if k.FM.SpecificTotal() != 8 {
		t.Fatalf("SpecificTotal = %d", k.FM.SpecificTotal())
	}
	// Fault in 4 pages: all served from the private free list.
	for i := int64(0); i < 4; i++ {
		if _, err := sp.Touch(e.Start + i*4096); err != nil {
			t.Fatal(err)
		}
	}
	if c.Free.Len() != 4 || c.Active.Len() != 4 {
		t.Fatalf("after 4 faults: free=%d active=%d", c.Free.Len(), c.Active.Len())
	}
	if c.Stats().Activations != 4 {
		t.Fatalf("Activations = %d", c.Stats().Activations)
	}
	// Re-touch: hits, no policy execution.
	sp.Touch(e.Start)
	if c.Stats().Activations != 4 {
		t.Fatal("hit ran the policy")
	}
}

func TestFIFOReplacementCyclesWithinPrivatePool(t *testing.T) {
	k := testKernel(256)
	sp := k.NewSpace()
	e, c, err := k.Allocate(sp, 32*4096, WithPolicy(simpleSpec(8)))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 32; i++ {
		if _, err := sp.Touch(e.Start + i*4096); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	if got := e.Object.ResidentCount(); got != 8 {
		t.Fatalf("resident = %d, want 8 (private pool size)", got)
	}
	// FIFO: the last 8 touched pages are resident.
	for i := int64(24); i < 32; i++ {
		if e.Object.Resident(i*4096) == nil {
			t.Fatalf("page %d should be resident", i)
		}
	}
	if c.Allocated() != 8 {
		t.Fatalf("allocated drifted to %d", c.Allocated())
	}
}

func TestTable2ProgramRunsVerbatim(t *testing.T) {
	// The FIFO-with-second-chance program exactly as printed in Table 2
	// of the paper (PageFault + Lack_free_frame), using this
	// implementation's slot layout. The Jump-iff-CR-false reconstruction
	// must make every annotated row behave as documented.
	pageFault := NewProgram(
		Encode(OpComp, SlotFreeCount, SlotReservedTgt, CompGT),   // CC1 if(_free_count > reserved_target)
		Encode(OpJump, JumpIfFalse, 0, 5),                        // CC2 /* else */ Jump to 5
		Encode(OpDeQueue, SlotPageReg, SlotFreeQueue, QueueHead), // CC3
		Encode(OpReturn, SlotPageReg, 0, 0),                      // CC4
		Encode(OpActivate, EventUser, 0, 0),                      // CC5 Activate Lack_free_frame
		Encode(OpJump, JumpIfFalse, 0, 3),                        // CC6 Jump (CR cleared by Activate)
	)
	// Structure of Table 2's Lack_free_frame, with the two empty-queue
	// guards a real kernel gets for free from its invariants (the paper's
	// Mach host always has inactive pages; our private pool starts with
	// everything on the active list).
	lack := NewProgram(
		Encode(OpComp, SlotFreeCount, SlotFreeTgt, CompLT),           // CC1 if(_free_count < free_target)
		Encode(OpJump, JumpIfFalse, 0, 24),                           // CC2 /* else */ done
		Encode(OpEmptyQ, SlotInactiveQueue, 0, 0),                    // CC3 guard
		Encode(OpJump, JumpIfTrue, 0, 16),                            // CC4 -> refill
		Encode(OpDeQueue, SlotPageReg, SlotInactiveQueue, QueueHead), // CC5
		Encode(OpRef, SlotPageReg, 0, 0),                             // CC6 referenced?
		Encode(OpJump, JumpIfFalse, 0, 11),                           // CC7 /* else */ reclaim it
		Encode(OpSet, SlotPageReg, SetBitReference, SetOpClear),      // CC8 second chance:
		Encode(OpEnQueue, SlotPageReg, SlotActiveQueue, QueueTail),   // CC9 back to active
		Encode(OpJump, JumpIfFalse, 0, 1),                            // CC10 loop
		Encode(OpMod, SlotPageReg, 0, 0),                             // CC11 modified?
		Encode(OpJump, JumpIfFalse, 0, 14),                           // CC12 /* else */ skip flush
		Encode(OpFlush, SlotPageReg, 0, 0),                           // CC13
		Encode(OpEnQueue, SlotPageReg, SlotFreeQueue, QueueHead),     // CC14 free it
		Encode(OpJump, JumpIfFalse, 0, 1),                            // CC15 loop
		Encode(OpComp, SlotInactiveCount, SlotInactiveTgt, CompLT),   // CC16 refill loop
		Encode(OpJump, JumpIfFalse, 0, 1),                            // CC17
		Encode(OpEmptyQ, SlotActiveQueue, 0, 0),                      // CC18 guard
		Encode(OpJump, JumpIfTrue, 0, 24),                            // CC19 nothing left anywhere
		Encode(OpDeQueue, SlotPageReg, SlotActiveQueue, QueueHead),   // CC20
		Encode(OpSet, SlotPageReg, SetBitReference, SetOpClear),      // CC21
		Encode(OpEnQueue, SlotPageReg, SlotInactiveQueue, QueueTail), // CC22
		Encode(OpJump, JumpIfFalse, 0, 16),                           // CC23
		Encode(OpReturn, SlotScratch, 0, 0),                          // CC24
	)
	reclaim := NewProgram(
		Encode(OpEmptyQ, SlotFreeQueue, 0, 0),
		Encode(OpJump, JumpIfTrue, 0, 4),
		Encode(OpRelease, SlotOne, 0, 0),
		Encode(OpReturn, SlotScratch, 0, 0),
	)
	spec := &Spec{
		Name:       "table2-fifo-2nd-chance",
		Events:     []Program{pageFault, reclaim, lack},
		EventNames: []string{"PageFault", "ReclaimFrame", "Lack_free_frame"},
		MinFrame:   16,
		Operands: []OperandDecl{
			{Slot: SlotFreeTgt, Kind: KindInt, Name: "free_target", Init: 4},
			{Slot: SlotInactiveTgt, Kind: KindInt, Name: "inactive_target", Init: 6},
			{Slot: SlotReservedTgt, Kind: KindInt, Name: "reserved_target", Init: 1},
		},
	}
	k := testKernel(256)
	sp := k.NewSpace()
	e, c, err := k.Allocate(sp, 64*4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	// Sweep the region twice with writes: forces replacement, second
	// chances, flushes and page-ins.
	for round := 0; round < 2; round++ {
		for i := int64(0); i < 64; i++ {
			if _, err := sp.Write(e.Start + i*4096); err != nil {
				t.Fatalf("round %d page %d: %v", round, i, err)
			}
		}
	}
	if c.State() != StateActive {
		t.Fatalf("container state %v: %s", c.State(), c.TerminationReason())
	}
	if c.Stats().Flushes == 0 {
		t.Fatal("no dirty pages were flushed")
	}
	if got := e.Object.ResidentCount(); got > 16 {
		t.Fatalf("resident %d exceeds private pool 16", got)
	}
	if sp.Stats().PageIns == 0 {
		t.Fatal("second sweep did not page anything back in")
	}
}

func TestMinFrameRejected(t *testing.T) {
	k := testKernel(64) // burst = 32 frames; minFrame below must fail on free frames
	sp := k.NewSpace()
	_, _, err := k.Allocate(sp, 16*4096, WithPolicy(simpleSpec(1000)))
	if err == nil {
		t.Fatal("oversized minFrame accepted")
	}
}

func TestHiPECDisabledKernelRejectsActivation(t *testing.T) {
	k := New(Config{Frames: 64, HiPECDisabled: true})
	sp := k.NewSpace()
	if _, _, err := k.Allocate(sp, 4096, WithPolicy(simpleSpec(4))); err == nil {
		t.Fatal("HiPEC-disabled kernel accepted a container")
	}
}

func TestRequestGrantsAndPartitionBurst(t *testing.T) {
	k := testKernel(128) // burst ≈ 64
	sp := k.NewSpace()
	chunk := uint8(SlotUser)
	spec := simpleSpec(8)
	spec.Operands = []OperandDecl{{Slot: chunk, Kind: KindInt, Name: "chunk", Init: 16, Const: true}}
	// PageFault that Requests more frames when empty.
	spec.Events[EventPageFault] = NewProgram(
		Encode(OpEmptyQ, SlotFreeQueue, 0, 0),
		Encode(OpJump, JumpIfTrue, 0, 5),
		Encode(OpDeQueue, SlotPageReg, SlotFreeQueue, QueueHead),
		Encode(OpReturn, SlotPageReg, 0, 0),
		Encode(OpRequest, chunk, 0, 0), // CC5
		Encode(OpJump, JumpIfTrue, 0, 3),
		Encode(OpFIFO, SlotActiveQueue, 0, 0), // denied: recycle own pages
		Encode(OpJump, JumpAlways, 0, 3),
	)
	e, c, err := k.Allocate(sp, 256*4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 256; i++ {
		if _, err := sp.Touch(e.Start + i*4096); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	if c.Stats().Requests == 0 {
		t.Fatal("policy never issued Request")
	}
	if got := k.FM.SpecificTotal(); got > k.FM.PartitionBurst {
		t.Fatalf("specific total %d exceeds partition burst %d", got, k.FM.PartitionBurst)
	}
	if c.Stats().RequestDenied == 0 {
		t.Fatal("burst never denied a request (watermark not exercised)")
	}
	if c.State() != StateActive {
		t.Fatalf("container died: %s", c.TerminationReason())
	}
}

func TestNormalReclamationFAFR(t *testing.T) {
	k := testKernel(128) // burst 64
	sp := k.NewSpace()
	// First container guarantees 16 frames but grows to 40.
	_, c1, err := k.Allocate(sp, 64*4096, WithPolicy(simpleSpec(16)))
	if err != nil {
		t.Fatal(err)
	}
	if !k.FM.Request(c1, 24) {
		t.Fatal("grow request denied")
	}
	if c1.Allocated() != 40 {
		t.Fatalf("allocated = %d, want 40", c1.Allocated())
	}
	// Second container takes 40 more: 80 > burst(64).
	_, c2, err := k.Allocate(sp, 64*4096, WithPolicy(simpleSpec(40)))
	if err != nil {
		t.Fatal(err)
	}
	if k.FM.SpecificTotal() != 80 {
		t.Fatalf("SpecificTotal = %d", k.FM.SpecificTotal())
	}
	// Balancing must reclaim back down to the burst via c1's
	// ReclaimFrame event (FAFR: first allocated pays first; c2 is at its
	// minimum and must not be touched).
	k.FM.BalanceSpecific()
	if got := k.FM.SpecificTotal(); got > k.FM.PartitionBurst {
		t.Fatalf("after balance specific total %d > burst %d", got, k.FM.PartitionBurst)
	}
	if c1.Allocated() >= 40 {
		t.Fatalf("FAFR did not reclaim from first container (allocated=%d)", c1.Allocated())
	}
	if c1.Allocated() < c1.MinFrame {
		t.Fatalf("reclaim violated minFrame: %d < %d", c1.Allocated(), c1.MinFrame)
	}
	if c2.Allocated() != 40 {
		t.Fatalf("balance touched the at-minimum container: %d", c2.Allocated())
	}
	if k.FM.Stats().NormalReclaims == 0 {
		t.Fatal("normal reclamation not counted")
	}
}

func TestForcedReclamationWhenPolicyWontGive(t *testing.T) {
	k := testKernel(128)
	sp := k.NewSpace()
	spec := simpleSpec(40)
	// A ReclaimFrame event that refuses to release anything.
	spec.Events[EventReclaimFrame] = NewProgram(
		Encode(OpReturn, SlotScratch, 0, 0),
	)
	e, c1, err := k.Allocate(sp, 64*4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	if !k.FM.Request(c1, 20) { // 60 total, 20 above the minimum
		t.Fatal("grow request denied")
	}
	// Make some frames resident so forced reclamation sees queue pages.
	for i := int64(0); i < 20; i++ {
		sp.Touch(e.Start + i*4096)
	}
	_, _, err = k.Allocate(sp, 64*4096, WithPolicy(simpleSpec(40)))
	if err != nil {
		t.Fatal(err)
	}
	// 100 granted > burst 64. Normal reclamation gets nothing (the event
	// refuses), so the manager must fall back to forced reclamation,
	// stripping c1 down to its guaranteed minimum.
	k.FM.BalanceSpecific()
	if k.FM.Stats().ForcedReclaims == 0 {
		t.Fatal("forced reclamation never ran")
	}
	if c1.Allocated() != c1.MinFrame {
		t.Fatalf("forced reclaim should stop exactly at minFrame: %d != %d", c1.Allocated(), c1.MinFrame)
	}
	if k.FM.Stats().NormalReclaims != 0 {
		t.Fatal("normal reclamation should have yielded nothing")
	}
}

func TestValidationRejectsMalformedPrograms(t *testing.T) {
	k := testKernel(64)
	sp := k.NewSpace()
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"missing magic", func(s *Spec) {
			s.Events[EventPageFault] = Program{Encode(OpReturn, 0, 0, 0)}
		}},
		{"illegal opcode", func(s *Spec) {
			s.Events[EventPageFault] = NewProgram(Encode(Opcode(0x7F), 0, 0, 0), Encode(OpReturn, 0, 0, 0))
		}},
		{"jump out of range", func(s *Spec) {
			s.Events[EventPageFault] = NewProgram(Encode(OpJump, JumpAlways, 0, 99), Encode(OpReturn, 0, 0, 0))
		}},
		{"wrong operand type", func(s *Spec) {
			s.Events[EventPageFault] = NewProgram(
				Encode(OpDeQueue, SlotFreeCount, SlotFreeQueue, QueueHead), // dest is int, not page
				Encode(OpReturn, 0, 0, 0))
		}},
		{"no return", func(s *Spec) {
			s.Events[EventPageFault] = NewProgram(Encode(OpComp, SlotZero, SlotOne, CompEQ))
		}},
		{"falls off end", func(s *Spec) {
			s.Events[EventPageFault] = NewProgram(
				Encode(OpJump, JumpAlways, 0, 3),          // CC1
				Encode(OpReturn, 0, 0, 0),                 // CC2 unreachable
				Encode(OpComp, SlotZero, SlotOne, CompEQ), // CC3 falls off the end
			)
		}},
		{"missing reclaim event", func(s *Spec) {
			s.Events = s.Events[:1]
		}},
		{"activate undefined event", func(s *Spec) {
			s.Events[EventPageFault] = NewProgram(Encode(OpActivate, 9, 0, 0), Encode(OpReturn, 0, 0, 0))
		}},
		{"self-recursive activate", func(s *Spec) {
			s.Events[EventPageFault] = NewProgram(Encode(OpActivate, EventPageFault, 0, 0), Encode(OpReturn, 0, 0, 0))
		}},
		{"extension without flag", func(s *Spec) {
			s.Events[EventPageFault] = NewProgram(Encode(OpAge, SlotActiveQueue, 0, 0), Encode(OpReturn, 0, 0, 0))
		}},
		{"write to read-only operand", func(s *Spec) {
			s.Events[EventPageFault] = NewProgram(
				Encode(OpArith, SlotFreeCount, SlotOne, ArithAdd),
				Encode(OpReturn, 0, 0, 0))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := simpleSpec(4)
			tc.mutate(spec)
			if _, _, err := k.Allocate(sp, 4096, WithPolicy(spec)); err == nil {
				t.Fatalf("%s: accepted", tc.name)
			}
		})
	}
	if k.Checker.Stats().ValidationBad != int64(len(cases)) {
		t.Fatalf("ValidationBad = %d, want %d", k.Checker.Stats().ValidationBad, len(cases))
	}
}

func TestRuntimeErrorTerminatesContainer(t *testing.T) {
	k := testKernel(64)
	sp := k.NewSpace()
	spec := simpleSpec(4)
	// Statically valid but dequeues from an empty queue at runtime.
	spec.Events[EventPageFault] = NewProgram(
		Encode(OpDeQueue, SlotPageReg, SlotInactiveQueue, QueueHead),
		Encode(OpReturn, SlotPageReg, 0, 0),
	)
	e, c, err := k.Allocate(sp, 4*4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Touch(e.Start); err == nil {
		t.Fatal("fault succeeded with broken policy")
	}
	if c.State() != StateTerminated {
		t.Fatalf("state = %v", c.State())
	}
	if !strings.Contains(c.TerminationReason(), "empty queue") {
		t.Fatalf("reason = %q", c.TerminationReason())
	}
	// Frames returned to the machine pool.
	if c.Allocated() != 0 || k.FM.SpecificTotal() != 0 {
		t.Fatalf("leak: allocated=%d specific=%d", c.Allocated(), k.FM.SpecificTotal())
	}
	// Subsequent faults fall back to the default policy.
	if _, err := sp.Touch(e.Start); err != nil {
		t.Fatalf("fallback fault failed: %v", err)
	}
}

func TestWatchdogKillsRunawayPolicy(t *testing.T) {
	k := testKernel(64)
	// The verifier statically proves this loop infinite; the watchdog
	// test needs it to load anyway.
	k.Checker.allowUnbounded = true
	k.Checker.TimeOut = 10 * time.Millisecond
	k.Checker.WakeUp = 20 * time.Millisecond // first wakeup lands mid-execution
	k.Checker.Start()
	sp := k.NewSpace()
	spec := simpleSpec(4)
	// Infinite loop: Comp sets CR, jump-if-true back. Statically this
	// passes reachability (a path reaches Return).
	spec.Events[EventPageFault] = NewProgram(
		Encode(OpComp, SlotZero, SlotOne, CompLT), // CC1: always true
		Encode(OpJump, JumpIfTrue, 0, 1),          // CC2: loop
		Encode(OpDeQueue, SlotPageReg, SlotFreeQueue, QueueHead),
		Encode(OpReturn, SlotPageReg, 0, 0),
	)
	e, c, err := k.Allocate(sp, 4*4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Touch(e.Start); err == nil {
		t.Fatal("runaway policy fault returned success")
	}
	if c.State() != StateTerminated {
		t.Fatalf("state = %v (%s)", c.State(), c.TerminationReason())
	}
	if !strings.Contains(c.TerminationReason(), "timeout") {
		t.Fatalf("reason = %q", c.TerminationReason())
	}
	if k.Checker.Stats().Timeouts == 0 {
		t.Fatal("checker did not count the timeout")
	}
}

func TestWatchdogAdaptiveSleep(t *testing.T) {
	k := testKernel(64)
	ck := k.Checker
	ck.Start()
	start := ck.WakeUp
	// No activity: wakeups double the sleep up to the maximum.
	k.Clock.Advance(time.Minute)
	if ck.WakeUp != ck.MaxWakeUp {
		t.Fatalf("WakeUp = %v, want max %v (started at %v)", ck.WakeUp, ck.MaxWakeUp, start)
	}
	if ck.Stats().Wakeups == 0 {
		t.Fatal("no wakeups")
	}
	// Clamp at minimum is covered by the runaway test halving path.
	if ck.MinWakeUp != 250*time.Millisecond || ck.MaxWakeUp != 8*time.Second {
		t.Fatalf("clamps = [%v, %v], want paper's [250ms, 8s]", ck.MinWakeUp, ck.MaxWakeUp)
	}
}

func TestMaxStepsBackstop(t *testing.T) {
	k := testKernel(64)
	// The verifier statically proves this loop infinite; the watchdog
	// test needs it to load anyway.
	k.Checker.allowUnbounded = true
	k.Executor.Costs = ExecCosts{} // zero cost: clock never advances
	k.Executor.MaxSteps = 1000
	sp := k.NewSpace()
	spec := simpleSpec(4)
	spec.Events[EventPageFault] = NewProgram(
		Encode(OpComp, SlotZero, SlotOne, CompLT),
		Encode(OpJump, JumpIfTrue, 0, 1),
		Encode(OpDeQueue, SlotPageReg, SlotFreeQueue, QueueHead),
		Encode(OpReturn, SlotPageReg, 0, 0),
	)
	e, c, err := k.Allocate(sp, 4*4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Touch(e.Start); err == nil {
		t.Fatal("infinite loop not caught")
	}
	if !strings.Contains(c.TerminationReason(), "runaway") {
		t.Fatalf("reason = %q", c.TerminationReason())
	}
}

func TestFlushExchangeKeepsPoolSizeConstant(t *testing.T) {
	k := testKernel(256)
	sp := k.NewSpace()
	spec := simpleSpec(8)
	e, c, err := k.Allocate(sp, 8*4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	// Dirty every page.
	for i := int64(0); i < 8; i++ {
		sp.Write(e.Start + i*4096)
	}
	// Run a synthetic flush: dequeue a dirty page from active, Flush it,
	// enqueue the replacement to the free list.
	prog := NewProgram(
		Encode(OpDeQueue, SlotPageReg, SlotActiveQueue, QueueHead),
		Encode(OpFlush, SlotPageReg, 0, 0),
		Encode(OpEnQueue, SlotPageReg, SlotFreeQueue, QueueTail),
		Encode(OpReturn, SlotScratch, 0, 0),
	)
	c.AppendEventForTest(prog)
	before := c.Allocated()
	if _, err := k.Executor.Run(c, len(c.events)-1); err != nil {
		t.Fatal(err)
	}
	if c.Allocated() != before {
		t.Fatalf("allocated changed across flush: %d -> %d", before, c.Allocated())
	}
	if c.Stats().Flushes != 1 || k.FM.Stats().FlushExchanges != 1 {
		t.Fatalf("flush stats: container=%d fm=%d", c.Stats().Flushes, k.FM.Stats().FlushExchanges)
	}
	// The laundered frame rejoins the pool when its write completes.
	pending := k.FM.Stats().LaunderPending
	if pending != 1 {
		t.Fatalf("LaunderPending = %d, want 1", pending)
	}
	k.Clock.Advance(time.Second)
	if k.FM.Stats().LaunderPending != 0 {
		t.Fatal("laundered frame never returned")
	}
}

func TestMigrateExtension(t *testing.T) {
	k := testKernel(128)
	sp := k.NewSpace()
	specA := simpleSpec(8)
	specA.EnableExtensions = true
	_, ca, err := k.Allocate(sp, 8*4096, WithPolicy(specA))
	if err != nil {
		t.Fatal(err)
	}
	_, cb, err := k.Allocate(sp, 8*4096, WithPolicy(simpleSpec(8)))
	if err != nil {
		t.Fatal(err)
	}
	// Event: dequeue a free frame and migrate it to container cb.
	target := uint8(SlotUser)
	ca.operands[target] = Operand{Kind: KindInt, Name: "target", Int: int64(cb.ID)}
	prog := NewProgram(
		Encode(OpDeQueue, SlotPageReg, SlotFreeQueue, QueueHead),
		Encode(OpMigrate, SlotPageReg, target, 0),
		Encode(OpReturn, SlotScratch, 0, 0),
	)
	ca.AppendEventForTest(prog)
	if _, err := k.Executor.Run(ca, len(ca.events)-1); err != nil {
		t.Fatal(err)
	}
	if ca.Allocated() != 7 || cb.Allocated() != 9 {
		t.Fatalf("migration accounting: a=%d b=%d", ca.Allocated(), cb.Allocated())
	}
	if cb.Free.Len() != 9 {
		t.Fatalf("migrated frame not on target free list (%d)", cb.Free.Len())
	}
	if cb.Stats().Migrations != 1 {
		t.Fatal("migration not counted")
	}
}

func TestDestroyContainerReturnsEverything(t *testing.T) {
	k := testKernel(128)
	sp := k.NewSpace()
	e, c, err := k.Allocate(sp, 16*4096, WithPolicy(simpleSpec(16)))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		sp.Write(e.Start + i*4096)
	}
	freeBefore := k.Daemon.FreeCount()
	allocated := c.Allocated()
	k.DestroyContainer(c)
	k.Clock.Advance(time.Second) // drain laundering
	if c.State() != StateDestroyed {
		t.Fatalf("state = %v", c.State())
	}
	if got := k.Daemon.FreeCount(); got != freeBefore+allocated {
		t.Fatalf("free = %d, want %d", got, freeBefore+allocated)
	}
	if k.FM.SpecificTotal() != 0 {
		t.Fatalf("SpecificTotal = %d", k.FM.SpecificTotal())
	}
	if len(k.FM.Containers()) != 0 {
		t.Fatal("container still on manager list")
	}
}

func TestArithAndLogicCommands(t *testing.T) {
	k := testKernel(64)
	sp := k.NewSpace()
	spec := simpleSpec(4)
	va := uint8(SlotUser)
	vb := uint8(SlotUser + 1)
	spec.Operands = []OperandDecl{
		{Slot: va, Kind: KindInt, Name: "a", Init: 10},
		{Slot: vb, Kind: KindInt, Name: "b", Init: 3},
	}
	_, c, err := k.Allocate(sp, 4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	run := func(cmds ...Command) *Operand {
		prog := NewProgram(append(cmds, Encode(OpReturn, va, 0, 0))...)
		c.AppendEventForTest(prog)
		res, err := k.Executor.Run(c, len(c.events)-1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(Encode(OpArith, va, vb, ArithAdd)); res.Int != 13 {
		t.Fatalf("10+3 = %d", res.Int)
	}
	if res := run(Encode(OpArith, va, vb, ArithMul)); res.Int != 39 {
		t.Fatalf("13*3 = %d", res.Int)
	}
	if res := run(Encode(OpArith, va, vb, ArithDiv)); res.Int != 13 {
		t.Fatalf("39/3 = %d", res.Int)
	}
	if res := run(Encode(OpArith, va, vb, ArithMod)); res.Int != 1 {
		t.Fatalf("13%%3 = %d", res.Int)
	}
	if res := run(Encode(OpArith, va, 0, ArithInc)); res.Int != 2 {
		t.Fatalf("1++ = %d", res.Int)
	}
	if res := run(Encode(OpArith, va, vb, ArithMov)); res.Int != 3 {
		t.Fatalf("mov = %d", res.Int)
	}
	// Division by zero terminates.
	zero := uint8(SlotZero)
	prog := NewProgram(Encode(OpArith, va, zero, ArithDiv), Encode(OpReturn, va, 0, 0))
	c.AppendEventForTest(prog)
	if _, err := k.Executor.Run(c, len(c.events)-1); err == nil {
		t.Fatal("division by zero succeeded")
	}
	if c.State() != StateTerminated {
		t.Fatal("div-by-zero did not terminate container")
	}
}

func TestExecCostsChargedToClock(t *testing.T) {
	k := testKernel(64)
	sp := k.NewSpace()
	e, _, err := k.Allocate(sp, 4096, WithPolicy(simpleSpec(4)))
	if err != nil {
		t.Fatal(err)
	}
	before := k.Clock.Now()
	sp.Touch(e.Start)
	elapsed := time.Duration(k.Clock.Now().Sub(before))
	// Fault service + activation + >=3 commands.
	min := k.VM.Costs.FaultService + k.Executor.Costs.Activation + 3*k.Executor.Costs.PerCommand
	if elapsed < min {
		t.Fatalf("fault charged %v, want >= %v", elapsed, min)
	}
}

func TestLRUAndMRUVictimSelection(t *testing.T) {
	k := testKernel(128)
	sp := k.NewSpace()
	spec := simpleSpec(4)
	e, c, err := k.Allocate(sp, 16*4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	// Fault 4 pages (fills pool), then touch 0 and 1 again so page 2 is
	// LRU and page 1... ordering: touches: 0,1,2,3 then 0,1 → LRU=2, MRU=1.
	for i := int64(0); i < 4; i++ {
		sp.Touch(e.Start + i*4096)
		k.Clock.Advance(time.Millisecond)
	}
	sp.Touch(e.Start + 0*4096)
	k.Clock.Advance(time.Millisecond)
	sp.Touch(e.Start + 1*4096)

	runCanned := func(op Opcode) {
		prog := NewProgram(Encode(op, SlotActiveQueue, 0, 0), Encode(OpReturn, SlotScratch, 0, 0))
		c.AppendEventForTest(prog)
		if _, err := k.Executor.Run(c, len(c.events)-1); err != nil {
			t.Fatal(err)
		}
	}
	runCanned(OpLRU)
	if e.Object.Resident(2*4096) != nil {
		t.Fatal("LRU did not evict page 2")
	}
	runCanned(OpMRU)
	if e.Object.Resident(1*4096) != nil {
		t.Fatal("MRU did not evict page 1")
	}
	// Both victims landed on the private free list.
	if c.Free.Len() != 2 {
		t.Fatalf("free list = %d, want 2", c.Free.Len())
	}
}

func TestFindCommand(t *testing.T) {
	k := testKernel(64)
	sp := k.NewSpace()
	spec := simpleSpec(4)
	e, c, err := k.Allocate(sp, 4*4096, WithPolicy(spec))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := sp.Touch(e.Start)
	addr := uint8(SlotUser)
	c.operands[addr] = Operand{Kind: KindInt, Name: "addr", Int: p.Offset + 100}
	prog := NewProgram(
		Encode(OpFind, SlotPageReg, addr, 0),
		Encode(OpReturn, SlotPageReg, 0, 0),
	)
	c.AppendEventForTest(prog)
	res, err := k.Executor.Run(c, len(c.events)-1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Page != p {
		t.Fatalf("Find returned %v, want %v", res.Page, p)
	}
}

func TestMapWithPolicyOnPopulatedObject(t *testing.T) {
	k := New(Config{Frames: 256, KeepData: true})
	sp := k.NewSpace()
	obj := k.VM.NewObject(8*4096, false)
	data := make([]byte, 8*4096)
	data[5*4096] = 0x5A
	if err := k.VM.Populate(obj, data); err != nil {
		t.Fatal(err)
	}
	e, c, err := k.Map(sp, obj, 0, obj.Size, WithPolicy(simpleSpec(8)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := sp.Touch(e.Start + 5*4096)
	if err != nil {
		t.Fatal(err)
	}
	if p.Data[0] != 0x5A {
		t.Fatal("page-in through HiPEC policy lost data")
	}
	if sp.Stats().PageIns != 1 {
		t.Fatalf("PageIns = %d", sp.Stats().PageIns)
	}
	if c.State() != StateActive {
		t.Fatal(c.TerminationReason())
	}
}

// vmGuard ensures core.Container satisfies vm.Policy.
var _ vm.Policy = (*Container)(nil)
