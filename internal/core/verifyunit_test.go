package core

import (
	"errors"
	"strings"
	"testing"

	"hipec/internal/hiperr"
	"hipec/internal/isa"
	"hipec/internal/kevent"
)

// TestWellKnownSlotsMatchContainer pins the isa.WellKnownSlots contract to
// the slots newContainer actually wires: the verifier's view of the operand
// array must never drift from the runtime's.
func TestWellKnownSlotsMatchContainer(t *testing.T) {
	c, err := newContainer(nil, 0, nil, simpleSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint8]bool{}
	for _, s := range isa.WellKnownSlots() {
		seen[s.Slot] = true
		o := &c.operands[s.Slot]
		if o.Kind != s.Kind {
			t.Errorf("slot %#02x (%s): isa kind %v, container kind %v", s.Slot, s.Name, s.Kind, o.Kind)
		}
		if o.Name != s.Name {
			t.Errorf("slot %#02x: isa name %q, container name %q", s.Slot, s.Name, o.Name)
		}
		if got := o.readOnly || o.live != nil; got != s.ReadOnly {
			t.Errorf("slot %#02x (%s): isa readOnly %t, container %t", s.Slot, s.Name, s.ReadOnly, got)
		}
		if got := o.live != nil; got != s.Live {
			t.Errorf("slot %#02x (%s): isa live %t, container %t", s.Slot, s.Name, s.Live, got)
		}
		if s.Live && s.LiveQueue != isa.SlotNoQueue {
			// The mapped queue slot must hold a queue whose length the
			// live closure reports.
			q := c.operands[s.LiveQueue].Queue
			if q == nil {
				t.Errorf("slot %#02x (%s): LiveQueue %#02x holds no queue", s.Slot, s.Name, s.LiveQueue)
			} else if o.live() != int64(q.Len()) {
				t.Errorf("slot %#02x (%s): live() = %d, queue len %d", s.Slot, s.Name, o.live(), q.Len())
			}
		}
	}
	// Every builtin slot the container wires must be in the isa table.
	for i, o := range c.operands {
		if uint8(i) >= SlotUser {
			break
		}
		if o.Kind != KindNone && !seen[uint8(i)] {
			t.Errorf("container wires slot %#02x (%s) missing from isa.WellKnownSlots", i, o.Name)
		}
	}
}

// TestVerifierRejectsMutualActivate is the registration-level regression
// for the headline bugfix: A activates B, B activates A used to pass
// ValidateSpec (which only caught self-activation) and loop until the
// checker timeout. The call-graph pass now rejects it at registration.
func TestVerifierRejectsMutualActivate(t *testing.T) {
	k := testKernel(64)
	sp := k.NewSpace()
	spec := simpleSpec(4)
	evA := NewProgram(Encode(OpActivate, 3, 0, 0), Encode(OpReturn, 0, 0, 0))
	evB := NewProgram(Encode(OpActivate, 2, 0, 0), Encode(OpReturn, 0, 0, 0))
	spec.Events = append(spec.Events, evA, evB)
	_, _, err := k.Allocate(sp, 4096, WithPolicy(spec))
	if err == nil {
		t.Fatal("mutual Activate recursion accepted at registration")
	}
	if !strings.Contains(err.Error(), "Activate cycle") {
		t.Fatalf("err = %v, want an Activate cycle diagnostic", err)
	}
	if !errors.Is(err, hiperr.ErrPolicyRejected) {
		t.Fatalf("err = %v, want ErrPolicyRejected", err)
	}
	if !errors.Is(err, hiperr.ErrPolicyFault) {
		t.Fatalf("err = %v, must still match ErrPolicyFault", err)
	}
}

// TestVerifierRejectsUndefinedPageRegister: using a page register no event
// ever fills used to pass validation and fault at runtime.
func TestVerifierRejectsUndefinedPageRegister(t *testing.T) {
	k := testKernel(64)
	sp := k.NewSpace()
	spec := simpleSpec(4)
	spec.Operands = []OperandDecl{{Slot: SlotUser, Kind: KindPage, Name: "ghost"}}
	spec.Events[EventReclaimFrame] = NewProgram(
		Encode(OpEnQueue, SlotUser, SlotFreeQueue, QueueTail),
		Encode(OpReturn, SlotScratch, 0, 0),
	)
	_, _, err := k.Allocate(sp, 4096, WithPolicy(spec))
	if err == nil {
		t.Fatal("undefined page register accepted at registration")
	}
	if !strings.Contains(err.Error(), "never defined") {
		t.Fatalf("err = %v, want undefined-page-register diagnostic", err)
	}
}

// TestVerifierRejectsFrameLeakLoop: a Request loop blind to the grant
// outcome used to run until the checker timeout while draining the global
// frame pool.
func TestVerifierRejectsFrameLeakLoop(t *testing.T) {
	k := testKernel(64)
	sp := k.NewSpace()
	spec := simpleSpec(4)
	spec.Events[EventReclaimFrame] = NewProgram(
		Encode(OpRequest, SlotOne, 0, 0),
		Encode(OpEmptyQ, SlotActiveQueue, 0, 0),
		Encode(OpJump, JumpIfTrue, 0, 1),
		Encode(OpReturn, SlotScratch, 0, 0),
	)
	_, _, err := k.Allocate(sp, 4096, WithPolicy(spec))
	if err == nil {
		t.Fatal("unbounded Request loop accepted at registration")
	}
	if !strings.Contains(err.Error(), "no Release") {
		t.Fatalf("err = %v, want frame-leak diagnostic", err)
	}
}

// TestChecksRunOnVerifiedContainer: the verifier is an admission gate, not
// a waiver. State that goes bad behind its back — an operand whose kind is
// corrupted after registration, a program injected without validation —
// must hit the executor's per-command checks and surface as a typed
// ErrPolicyFault.
func TestChecksRunOnVerifiedContainer(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(c *Container) (ev int)
		want    string
	}{
		{"operand kind corrupted after registration", func(c *Container) int {
			c.operands[SlotPageReg].Kind = KindInt
			return EventPageFault
		}, "want page"},
		{"kind misuse in a program appended behind the verifier", func(c *Container) int {
			return c.AppendEventForTest(NewProgram(
				Encode(OpArith, SlotFreeQueue, SlotOne, ArithAdd),
				Encode(OpReturn, SlotScratch, 0, 0)))
		}, "Arith destination"},
		{"jump out of range in a program appended behind the verifier", func(c *Container) int {
			return c.AppendEventForTest(NewProgram(Encode(OpJump, JumpAlways, 0, 99)))
		}, "jump target"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := testKernel(64)
			_, c, err := k.Allocate(k.NewSpace(), 4*4096, WithPolicy(simpleSpec(4)))
			if err != nil {
				t.Fatalf("verifier-clean spec rejected: %v", err)
			}
			_, err = k.Executor.Run(c, tc.corrupt(c))
			if !errors.Is(err, hiperr.ErrPolicyFault) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run = %v, want ErrPolicyFault mentioning %q", err, tc.want)
			}
			if c.State() != StateTerminated {
				t.Fatalf("container state %v after the fault, want terminated", c.State())
			}
		})
	}
}

// TestAllowUnboundedDowngrade: the watchdog-test knob accepts provably
// infinite loops but keeps kind-safety rejections.
func TestAllowUnboundedDowngrade(t *testing.T) {
	k := testKernel(64)
	k.Checker.allowUnbounded = true
	sp := k.NewSpace()
	spec := simpleSpec(4)
	spec.Events[EventPageFault] = NewProgram(
		Encode(OpComp, SlotZero, SlotOne, CompLT),
		Encode(OpJump, JumpIfTrue, 0, 1),
		Encode(OpDeQueue, SlotPageReg, SlotFreeQueue, QueueHead),
		Encode(OpReturn, SlotPageReg, 0, 0),
	)
	k.Executor.MaxSteps = 100 // terminate quickly if executed
	if _, _, err := k.Allocate(sp, 4*4096, WithPolicy(spec)); err != nil {
		t.Fatalf("allowUnbounded must accept the infinite loop: %v", err)
	}

	// Kind errors still reject.
	bad := simpleSpec(4)
	bad.Events[EventPageFault] = NewProgram(
		Encode(OpDeQueue, SlotFreeCount, SlotFreeQueue, QueueHead),
		Encode(OpReturn, SlotScratch, 0, 0),
	)
	if _, _, err := k.Allocate(k.NewSpace(), 4096, WithPolicy(bad)); err == nil {
		t.Fatal("allowUnbounded must not waive operand-kind errors")
	}
}

// TestVerifyDiagEvents: every verifier diagnostic lands on the event spine.
func TestVerifyDiagEvents(t *testing.T) {
	k := testKernel(64)
	sp := k.NewSpace()
	spec := simpleSpec(4)
	spec.Events[EventPageFault] = NewProgram(
		Encode(OpActivate, EventPageFault, 0, 0),
		Encode(OpReturn, 0, 0, 0),
	)
	if _, _, err := k.Allocate(sp, 4096, WithPolicy(spec)); err == nil {
		t.Fatal("self-activation accepted")
	}
	g := k.Registry().Global()
	if g.Counts[kevent.EvVerifyDiag] == 0 {
		t.Fatal("rejection emitted no verify.diag events")
	}
	if g.Flags[kevent.EvVerifyDiag] == 0 {
		t.Fatal("error-severity diagnostics must set the event flag")
	}
}
