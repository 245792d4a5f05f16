package core

import (
	"fmt"
	"time"

	"hipec/internal/hiperr"
	"hipec/internal/kevent"
	"hipec/internal/mem"
)

// ExecCosts are the virtual-time charges of policy execution, calibrated
// from the paper (DESIGN.md §4): Table 4 reports ≈150 ns to fetch and
// decode the three-command simple-fault path (≈50 ns/command), and Table 3
// implies ≈7 µs of per-fault activation bookkeeping (timestamp write,
// container lookup, executor entry/exit).
type ExecCosts struct {
	PerCommand time.Duration
	Activation time.Duration
}

// DefaultExecCosts returns the calibrated values.
func DefaultExecCosts() ExecCosts {
	return ExecCosts{PerCommand: 50 * time.Nanosecond, Activation: 7 * time.Microsecond}
}

// DefaultFlushQuantum is the default cap on virtual time accrued locally by
// the executor between clock flushes (100 commands at the calibrated 50 ns).
// See Executor.FlushQuantum.
const DefaultFlushQuantum = 5 * time.Microsecond

// Executor is the application-specific policy executor (§4.3.2). It runs in
// "kernel mode": it fetches commands from the (conceptually wired-down,
// read-only) policy buffer, decodes them and performs the operations,
// without crossing the kernel/user boundary.
type Executor struct {
	kernel *Kernel
	Costs  ExecCosts

	// Trace, when non-nil, receives one EvPolicyCommand event per executed
	// command — the policy developer's printf. Per-command events flow only
	// to this sink (never to the kernel spine or registry), and only the
	// nil check sits on the hot path. Kernel.NewTextTrace adapts an
	// io.Writer into the classic one-line-per-command format.
	Trace kevent.Sink

	// MaxSteps bounds commands per outer activation as a hard backstop
	// against runaway policies when command costs are zero (the adaptive
	// security checker handles the timed case).
	MaxSteps int
	// MaxActivateDepth bounds Activate nesting ("non-HiPEC-defined events
	// ... can be viewed as procedure calls").
	MaxActivateDepth int

	// FlushQuantum caps the virtual time the executor accrues locally
	// before charging it to the kernel clock in one batch. Charging the
	// clock per command walks the event queue on every command; batching
	// amortizes that while flushCharge's event-boundary stepping keeps
	// every scheduled callback (security-checker wakeups, disk
	// completions) firing at exactly the clock it would see under
	// per-command charging. A value <= Costs.PerCommand restores the
	// serial per-command charge.
	FlushQuantum time.Duration
	// pending is the accrued, not-yet-charged command time.
	pending time.Duration
}

// TotalActivations reports event-program activations across all containers,
// derived from the event spine.
func (x *Executor) TotalActivations() int64 {
	return x.kernel.Registry().Count(kevent.EvPolicyActivation)
}

// TotalCommands reports commands interpreted across all containers, derived
// from the event spine.
func (x *Executor) TotalCommands() int64 {
	return x.kernel.Registry().Sum(kevent.EvPolicyActivation)
}

func newExecutor(k *Kernel, costs ExecCosts) *Executor {
	return &Executor{
		kernel:           k,
		Costs:            costs,
		MaxSteps:         1 << 20,
		MaxActivateDepth: 8,
		FlushQuantum:     DefaultFlushQuantum,
	}
}

// Run executes event ev of container c and returns the operand named by the
// program's Return command. A runtime fault terminates the container and is
// returned as an error.
func (x *Executor) Run(c *Container, ev int) (*Operand, error) {
	if c.state != StateActive {
		sentinel := hiperr.ErrPolicyFault
		if c.state == StateRevoked {
			sentinel = hiperr.ErrRevoked
		}
		return nil, &hiperr.Error{Op: "hipec.exec", Container: c.ID,
			Err: fmt.Errorf("container is %v: %w", c.state, sentinel)}
	}
	c.executing = true
	c.timestamp = x.kernel.Clock.Now()
	c.timedOut = false
	if x.Costs.Activation > 0 {
		x.kernel.Clock.Sleep(x.Costs.Activation)
	}
	steps := 0
	res, err := x.exec(c, ev, 0, &steps)
	// steps counted every interpreted command (including nested Activate
	// frames, which share the counter); the whole activation is one event —
	// emitted once, at completion — so nothing lands on the per-command path
	// and the spine costs one emission per fault, not per command.
	x.kernel.emit(kevent.Event{Type: kevent.EvPolicyActivation, Container: int32(c.ID), Arg: int64(steps), Aux: int64(ev)})
	// Charge any batched command time before the activation ends so
	// callers measuring elapsed virtual time see the full cost (the
	// success path has already flushed at its Return boundary).
	if x.pending > 0 {
		x.flushCharge(c)
	}
	c.executing = false
	if err != nil {
		x.kernel.terminate(c, err.Error())
		return nil, err
	}
	return res, nil
}

// flushCharge charges the accrued per-command time to the kernel clock. It
// advances to each intervening event boundary in turn, so scheduled
// callbacks (security-checker wakeups, disk completions, daemon balances)
// fire with exactly the clock they would observe under serial per-command
// charging. If a callback kills the container mid-batch, the clock is
// rounded up to the end of the command whose charge crossed the wakeup —
// the same simulated instant the serial path aborts at — and the rest of
// the batch is discarded (those commands never run in the serial world).
func (x *Executor) flushCharge(c *Container) {
	clock := x.kernel.Clock
	for x.pending > 0 {
		next, ok := clock.PeekNext()
		if !ok {
			clock.Sleep(x.pending)
			x.pending = 0
			return
		}
		d := next.Sub(clock.Now())
		if d <= 0 || d > x.pending {
			// No event inside the remaining window — or an overdue event,
			// which means the clock is inside a nested dispatch (the
			// executor was entered from an event callback) where advances
			// fire nothing anyway: charge the rest in one step.
			clock.Sleep(x.pending)
			x.pending = 0
			return
		}
		clock.Sleep(d) // fires the event(s) due at the boundary
		x.pending -= d
		if c.timedOut || c.state != StateActive {
			if per := x.Costs.PerCommand; per > 0 {
				if rem := x.pending % per; rem > 0 {
					clock.Sleep(rem)
				}
			}
			x.pending = 0
			return
		}
	}
}

// syncClock flushes batched command time before a kernel-visible operation
// (frame-manager calls, VM calls, Return) so those paths observe — and
// schedule I/O completions against — the exact clock the serial charge
// would produce. It surfaces a security-checker kill raised during the
// flush. With nothing pending it is a no-op: the loop-top check has
// already seen every event fired so far.
func (x *Executor) syncClock(c *Container, ev, cc int) error {
	if x.pending == 0 {
		return nil
	}
	x.flushCharge(c)
	if c.timedOut || c.state != StateActive {
		return x.fail(c, ev, cc, "terminated by security checker (timeout)")
	}
	return nil
}

// fail builds the typed runtime-fault error that terminates the container.
// It wraps hiperr.ErrPolicyFault so callers can classify with errors.Is and
// recover the container ID and command counter with errors.As.
func (x *Executor) fail(c *Container, ev, cc int, format string, args ...any) error {
	return &hiperr.Error{
		Op:        "hipec.exec",
		Container: c.ID,
		PC:        cc,
		Err: fmt.Errorf("policy %q event %s: %s: %w",
			c.spec.Name, c.eventName(ev), fmt.Sprintf(format, args...), hiperr.ErrPolicyFault),
	}
}

// operand accessors with runtime type checking --------------------------

// intOp reads an integer operand. The common case (plain stored int) is
// kept small enough to inline at the Arith/Comp call sites; live operands
// and type errors take the outlined slow path.
func (x *Executor) intOp(c *Container, ev, cc int, slot uint8) (int64, error) {
	o := &c.operands[slot]
	if o.Kind != KindInt || o.live != nil {
		return x.intOpSlow(c, ev, cc, slot)
	}
	return o.Int, nil
}

func (x *Executor) intOpSlow(c *Container, ev, cc int, slot uint8) (int64, error) {
	o := &c.operands[slot]
	if o.Kind != KindInt {
		return 0, x.fail(c, ev, cc, "operand %#02x (%s) is %v, want int", slot, o.Name, o.Kind)
	}
	return o.IntValue(), nil
}

func (x *Executor) boolOp(c *Container, ev, cc int, slot uint8) (bool, error) {
	o := &c.operands[slot]
	switch o.Kind {
	case KindBool:
		return o.Bool, nil
	case KindInt:
		return o.IntValue() != 0, nil
	}
	return false, x.fail(c, ev, cc, "operand %#02x (%s) is %v, want bool", slot, o.Name, o.Kind)
}

func (x *Executor) queueOp(c *Container, ev, cc int, slot uint8) (*mem.Queue, error) {
	o := &c.operands[slot]
	if o.Kind != KindQueue || o.Queue == nil {
		return nil, x.fail(c, ev, cc, "operand %#02x (%s) is %v, want queue", slot, o.Name, o.Kind)
	}
	return o.Queue, nil
}

func (x *Executor) pageOp(c *Container, ev, cc int, slot uint8) (*mem.Page, error) {
	o := &c.operands[slot]
	if o.Kind != KindPage {
		return nil, x.fail(c, ev, cc, "operand %#02x (%s) is %v, want page", slot, o.Name, o.Kind)
	}
	if o.Page == nil {
		return nil, x.fail(c, ev, cc, "page register %#02x (%s) is empty", slot, o.Name)
	}
	return o.Page, nil
}

// exec interprets one event program. depth counts Activate nesting; steps
// is shared across the whole activation.
func (x *Executor) exec(c *Container, ev, depth int, steps *int) (*Operand, error) {
	if ev < 0 || ev >= len(c.decoded) || c.decoded[ev] == nil {
		return nil, x.fail(c, ev, 0, "undefined event %d", ev)
	}
	prog := c.decoded[ev]
	per := x.Costs.PerCommand
	quantum := x.FlushQuantum
	// Every command is checked as it runs — operand kinds, read-only
	// writes, jump-target and command-counter ranges — whether or not the
	// static verifier admitted the spec: the verifier is the admission
	// gate, these checks are what a corrupted container hits.
	cc := 1 // CC 0 is the magic word
	for {
		if cc < 1 || cc >= len(prog) {
			return nil, x.fail(c, ev, cc, "command counter out of range (missing Return?)")
		}
		*steps++
		if *steps > x.MaxSteps {
			return nil, x.fail(c, ev, cc, "exceeded %d commands (runaway policy)", x.MaxSteps)
		}
		if per > 0 {
			// Charging command time is also what lets the asynchronous
			// security checker observe a long-running execution: the
			// accrued charge is flushed to the clock — firing its
			// wakeups — every quantum and at kernel-visible boundaries.
			x.pending += per
			if x.pending >= quantum {
				x.flushCharge(c)
			}
		}
		if c.timedOut || c.state != StateActive {
			return nil, x.fail(c, ev, cc, "terminated by security checker (timeout)")
		}
		dc := prog[cc]
		if x.Trace != nil {
			c.cc = cc
			x.traceCmd(c, ev, cc, dc)
		}
		op1, op2, flag := dc.a, dc.b, dc.c

		switch dc.op {
		case OpReturn:
			if err := x.syncClock(c, ev, cc); err != nil {
				return nil, err
			}
			return &c.operands[op1], nil

		case OpArith:
			dst := &c.operands[op1]
			if dst.Kind != KindInt {
				return nil, x.fail(c, ev, cc, "Arith destination %#02x (%s) is %v", op1, dst.Name, dst.Kind)
			}
			if dst.readOnly || dst.live != nil {
				return nil, x.fail(c, ev, cc, "Arith write to read-only operand %#02x (%s)", op1, dst.Name)
			}
			var src int64
			switch flag {
			case ArithInc, ArithDec:
				// no source operand
			default:
				v, err := x.intOp(c, ev, cc, op2)
				if err != nil {
					return nil, err
				}
				src = v
			}
			switch flag {
			case ArithAdd:
				dst.Int += src
			case ArithSub:
				dst.Int -= src
			case ArithMul:
				dst.Int *= src
			case ArithDiv:
				if src == 0 {
					return nil, x.fail(c, ev, cc, "division by zero")
				}
				dst.Int /= src
			case ArithMod:
				if src == 0 {
					return nil, x.fail(c, ev, cc, "modulo by zero")
				}
				dst.Int %= src
			case ArithMov:
				dst.Int = src
			case ArithInc:
				dst.Int++
			case ArithDec:
				dst.Int--
			default:
				return nil, x.fail(c, ev, cc, "bad Arith flag %d", flag)
			}
			c.cr = false

		case OpComp:
			// Hand-inlined operand reads: Comp is the workhorse of policy
			// scan loops and intOp is just over the compiler's inline
			// budget. The error path falls back to intOp for diagnostics.
			ao, bo := &c.operands[op1], &c.operands[op2]
			if ao.Kind != KindInt || bo.Kind != KindInt {
				if _, err := x.intOp(c, ev, cc, op1); err != nil {
					return nil, err
				}
				_, err := x.intOp(c, ev, cc, op2)
				return nil, err
			}
			a, b := ao.Int, bo.Int
			if ao.live != nil {
				a = ao.live()
			}
			if bo.live != nil {
				b = bo.live()
			}
			switch flag {
			case CompEQ:
				c.cr = a == b
			case CompGT:
				c.cr = a > b
			case CompLT:
				c.cr = a < b
			case CompNE:
				c.cr = a != b
			case CompGE:
				c.cr = a >= b
			case CompLE:
				c.cr = a <= b
			default:
				return nil, x.fail(c, ev, cc, "bad Comp flag %d", flag)
			}

		case OpLogic:
			a, err := x.boolOp(c, ev, cc, op1)
			if err != nil {
				return nil, err
			}
			switch flag {
			case LogicNot:
				c.cr = !a
			case LogicAnd, LogicOr, LogicXor:
				b, err := x.boolOp(c, ev, cc, op2)
				if err != nil {
					return nil, err
				}
				switch flag {
				case LogicAnd:
					c.cr = a && b
				case LogicOr:
					c.cr = a || b
				case LogicXor:
					c.cr = a != b
				}
			default:
				return nil, x.fail(c, ev, cc, "bad Logic flag %d", flag)
			}

		case OpEmptyQ:
			q, err := x.queueOp(c, ev, cc, op1)
			if err != nil {
				return nil, err
			}
			c.cr = q.Empty()

		case OpInQ:
			q, err := x.queueOp(c, ev, cc, op1)
			if err != nil {
				return nil, err
			}
			reg := &c.operands[op2]
			if reg.Kind != KindPage {
				return nil, x.fail(c, ev, cc, "InQ operand %#02x is %v, want page", op2, reg.Kind)
			}
			c.cr = reg.Page != nil && reg.Page.InQueue(q)

		case OpJump:
			target := int(flag)
			take := false
			switch op1 {
			case JumpIfFalse:
				take = !c.cr
			case JumpAlways:
				take = true
			case JumpIfTrue:
				take = c.cr
			default:
				return nil, x.fail(c, ev, cc, "bad Jump mode %d", op1)
			}
			c.cr = false
			if take {
				if target < 1 || target >= len(prog) {
					return nil, x.fail(c, ev, cc, "jump target %d out of range", target)
				}
				cc = target
				continue
			}

		case OpDeQueue:
			q, err := x.queueOp(c, ev, cc, op2)
			if err != nil {
				return nil, err
			}
			reg := &c.operands[op1]
			if reg.Kind != KindPage {
				return nil, x.fail(c, ev, cc, "DeQueue destination %#02x is %v, want page", op1, reg.Kind)
			}
			if err := x.checkOverwrite(c, ev, cc, reg); err != nil {
				return nil, err
			}
			var p *mem.Page
			switch flag {
			case QueueHead:
				p = q.DequeueHead()
			case QueueTail:
				p = q.DequeueTail()
			default:
				return nil, x.fail(c, ev, cc, "bad DeQueue flag %d", flag)
			}
			if p == nil {
				return nil, x.fail(c, ev, cc, "DeQueue from empty queue %s", q.Name)
			}
			reg.Page = p
			c.cr = false

		case OpEnQueue:
			p, err := x.pageOp(c, ev, cc, op1)
			if err != nil {
				return nil, err
			}
			q, err := x.queueOp(c, ev, cc, op2)
			if err != nil {
				return nil, err
			}
			if p.Queue() != nil {
				return nil, x.fail(c, ev, cc, "EnQueue of page already on queue %s", p.Queue().Name)
			}
			if q == c.Free {
				// Moving a page to the private free list implies it
				// leaves residency; the kernel performs the detach
				// (applications cannot corrupt VM state, §3). Laundering
				// may schedule disk I/O: sync the clock first.
				if err := x.syncClock(c, ev, cc); err != nil {
					return nil, err
				}
				if err := x.kernel.FM.retire(c, p); err != nil {
					return nil, x.fail(c, ev, cc, "EnQueue to free list: %v", err)
				}
			}
			switch flag {
			case QueueHead:
				q.EnqueueHead(p)
			case QueueTail:
				q.EnqueueTail(p)
			default:
				return nil, x.fail(c, ev, cc, "bad EnQueue flag %d", flag)
			}
			c.operands[op1].Page = nil
			c.cr = false

		case OpRequest:
			n, err := x.intOp(c, ev, cc, op1)
			if err != nil {
				return nil, err
			}
			if n < 0 {
				return nil, x.fail(c, ev, cc, "Request of %d frames", n)
			}
			if err := x.syncClock(c, ev, cc); err != nil {
				return nil, err
			}
			granted := x.kernel.FM.Request(c, int(n))
			x.kernel.emit(kevent.Event{Type: kevent.EvPolicyRequest, Container: int32(c.ID), Arg: n, Flag: !granted})
			c.cr = granted

		case OpRelease:
			if err := x.syncClock(c, ev, cc); err != nil {
				return nil, err
			}
			o := &c.operands[op1]
			switch o.Kind {
			case KindPage:
				if o.Page == nil {
					return nil, x.fail(c, ev, cc, "Release of empty page register %#02x", op1)
				}
				p := o.Page
				o.Page = nil
				if q := p.Queue(); q != nil {
					q.Remove(p)
				}
				if !x.kernel.FM.ReleaseFrame(c, p) {
					// Wired page or failed laundering: the frame stays with
					// the container. Put it back in the register so it is
					// not orphaned; CR tells the policy it wasn't released.
					o.Page = p
					c.cr = false
					break
				}
				x.kernel.emit(kevent.Event{Type: kevent.EvPolicyRelease, Container: int32(c.ID), Arg: 1})
				c.cr = true
			case KindInt:
				n := o.IntValue()
				released := x.kernel.FM.ReleaseFromFree(c, int(n))
				x.kernel.emit(kevent.Event{Type: kevent.EvPolicyRelease, Container: int32(c.ID), Arg: int64(released)})
				c.cr = int64(released) == n
			default:
				return nil, x.fail(c, ev, cc, "Release operand %#02x is %v", op1, o.Kind)
			}

		case OpFlush:
			reg := &c.operands[op1]
			if reg.Kind != KindPage {
				return nil, x.fail(c, ev, cc, "Flush operand %#02x is %v, want page", op1, reg.Kind)
			}
			if reg.Page == nil {
				return nil, x.fail(c, ev, cc, "Flush of empty page register %#02x", op1)
			}
			if reg.Page.Queue() != nil {
				return nil, x.fail(c, ev, cc, "Flush of page still on queue %s", reg.Page.Queue().Name)
			}
			// Asynchronous exchange (§4.3.1 I/O Handling): the dirty
			// page goes to the global frame manager for laundering and
			// a clean free frame comes back in its place, so the
			// executor never waits for disk I/O. The disk completion is
			// scheduled off the clock: sync it first.
			if err := x.syncClock(c, ev, cc); err != nil {
				return nil, err
			}
			np, ok := x.kernel.FM.FlushExchange(c, reg.Page)
			reg.Page = np
			x.kernel.emit(kevent.Event{Type: kevent.EvPolicyFlush, Container: int32(c.ID)})
			c.cr = ok

		case OpSet:
			p, err := x.pageOp(c, ev, cc, op1)
			if err != nil {
				return nil, err
			}
			var bit *bool
			switch op2 {
			case SetBitModify:
				bit = &p.Modified
			case SetBitReference:
				bit = &p.Referenced
			default:
				return nil, x.fail(c, ev, cc, "bad Set bit selector %d", op2)
			}
			switch flag {
			case SetOpSet:
				*bit = true
			case SetOpClear:
				*bit = false
			default:
				return nil, x.fail(c, ev, cc, "bad Set operation %d", flag)
			}
			c.cr = false

		case OpRef:
			p, err := x.pageOp(c, ev, cc, op1)
			if err != nil {
				return nil, err
			}
			c.cr = p.Referenced

		case OpMod:
			p, err := x.pageOp(c, ev, cc, op1)
			if err != nil {
				return nil, err
			}
			c.cr = p.Modified

		case OpFind:
			reg := &c.operands[op1]
			if reg.Kind != KindPage {
				return nil, x.fail(c, ev, cc, "Find destination %#02x is %v, want page", op1, reg.Kind)
			}
			if err := x.checkOverwrite(c, ev, cc, reg); err != nil {
				return nil, err
			}
			addr, err := x.intOp(c, ev, cc, op2)
			if err != nil {
				return nil, err
			}
			ps := int64(x.kernel.VM.PageSize())
			reg.Page = c.object.Resident(addr / ps * ps)
			c.cr = reg.Page != nil

		case OpActivate:
			if depth+1 > x.MaxActivateDepth {
				return nil, x.fail(c, ev, cc, "Activate nesting exceeds %d", x.MaxActivateDepth)
			}
			if _, err := x.exec(c, int(op1), depth+1, steps); err != nil {
				return nil, err
			}
			c.cr = false

		case OpFIFO, OpLRU, OpMRU:
			q, err := x.queueOp(c, ev, cc, op1)
			if err != nil {
				return nil, err
			}
			if err := x.syncClock(c, ev, cc); err != nil {
				return nil, err
			}
			victim := x.selectVictim(dc.op, q)
			if victim == nil {
				c.cr = false
				break
			}
			q.Remove(victim)
			if victim.Modified {
				nv, ok := x.kernel.FM.FlushExchange(c, victim)
				if !ok {
					// Write-back failed; the dirty page goes back where it
					// was and the policy sees CR=false.
					if nv != nil {
						q.EnqueueTail(nv)
					}
					c.cr = false
					break
				}
				victim = nv
			} else if err := x.kernel.FM.retire(c, victim); err != nil {
				return nil, x.fail(c, ev, cc, "%v: %v", dc.op, err)
			}
			if victim == nil {
				c.cr = false
				break
			}
			c.Free.EnqueueTail(victim)
			c.cr = true

		case OpMigrate:
			if !c.extensions {
				return nil, x.fail(c, ev, cc, "Migrate requires EnableExtensions")
			}
			p, err := x.pageOp(c, ev, cc, op1)
			if err != nil {
				return nil, err
			}
			id, err := x.intOp(c, ev, cc, op2)
			if err != nil {
				return nil, err
			}
			if err := x.syncClock(c, ev, cc); err != nil {
				return nil, err
			}
			if err := x.kernel.FM.Migrate(c, int(id), p); err != nil {
				c.cr = false
				break
			}
			c.operands[op1].Page = nil
			c.cr = true

		case OpAge:
			if !c.extensions {
				return nil, x.fail(c, ev, cc, "Age requires EnableExtensions")
			}
			q, err := x.queueOp(c, ev, cc, op1)
			if err != nil {
				return nil, err
			}
			// Clock-style aging sweep: clear reference bits so the next
			// pass distinguishes recently used pages.
			q.Each(func(p *mem.Page) bool { p.Referenced = false; return true })
			c.cr = false

		default:
			return nil, x.fail(c, ev, cc, "illegal opcode %#02x", uint8(dc.op))
		}
		cc++
	}
}

// traceCmd delivers the per-command event to the attached Trace sink. It
// lives outside exec so the Event construction is only materialized when
// tracing is enabled, keeping the hot loop allocation-free. The event is
// stamped here because it bypasses the Emitter (and hence the registry).
func (x *Executor) traceCmd(c *Container, ev, cc int, dc decodedCmd) {
	x.Trace.Emit(kevent.Event{
		Time:      x.kernel.Clock.Now(),
		Type:      kevent.EvPolicyCommand,
		Container: int32(c.ID),
		Addr:      int64(dc.encoded()),
		Arg:       int64(cc),
		Aux:       int64(ev),
		Flag:      c.cr,
	})
}

// checkOverwrite rejects writes to a page register that still holds a
// detached frame: overwriting the only reference to a non-resident,
// unqueued frame would orphan it forever (a frame leak the security model
// cannot allow). Policies must EnQueue, Flush or Release a frame before
// reusing its register. Overwriting a reference to a resident or queued
// page is harmless and permitted.
func (x *Executor) checkOverwrite(c *Container, ev, cc int, reg *Operand) error {
	p := reg.Page
	if p == nil || p.Queue() != nil || x.kernel.isResident(p) {
		return nil
	}
	return x.fail(c, ev, cc, "overwriting register %q would orphan frame %d (EnQueue, Flush or Release it first)", reg.Name, p.Frame)
}

// selectVictim applies the canned replacement policies. FIFO takes the
// oldest enqueued page (queue head); LRU the least recently used; MRU the
// most recently used. Wired pages are never selected.
//
// On AccessOrder queues (kept in exact recency order by the VM layer) LRU
// and MRU are O(1): head and tail respectively. Otherwise they fall back to
// a LastAccess scan.
func (x *Executor) selectVictim(op Opcode, q *mem.Queue) *mem.Page {
	eligible := func(p *mem.Page) bool { return !p.Wired }
	firstFromHead := func() *mem.Page {
		var v *mem.Page
		q.Each(func(p *mem.Page) bool {
			if eligible(p) {
				v = p
				return false
			}
			return true
		})
		return v
	}
	firstFromTail := func() *mem.Page {
		var v *mem.Page
		q.EachReverse(func(p *mem.Page) bool {
			if eligible(p) {
				v = p
				return false
			}
			return true
		})
		return v
	}
	switch op {
	case OpFIFO:
		return firstFromHead()
	case OpLRU:
		if q.AccessOrder {
			return firstFromHead()
		}
		var v *mem.Page
		var best int64
		q.Each(func(p *mem.Page) bool {
			if eligible(p) && (v == nil || int64(p.LastAccess) < best) {
				v, best = p, int64(p.LastAccess)
			}
			return true
		})
		return v
	case OpMRU:
		if q.AccessOrder {
			return firstFromTail()
		}
		var v *mem.Page
		var best int64
		q.Each(func(p *mem.Page) bool {
			if eligible(p) && (v == nil || int64(p.LastAccess) > best) {
				v, best = p, int64(p.LastAccess)
			}
			return true
		})
		return v
	}
	return nil
}
