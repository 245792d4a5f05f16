// Package verify is the HPL static verifier: an eBPF-style analysis
// pipeline that proves policy programs safe before they enter the kernel
// (the §6 future-work direction "the security checker could do more").
//
// It works on compiled programs (isa.Program) plus a description of the
// operand array, and needs no kernel objects, so the same pipeline serves
// three layers: hipec compile, hipec lint (source and binary policies,
// inferring operand kinds for binaries), and the in-kernel security
// checker at registration time.
//
// The passes, in order:
//
//  1. Structural/typing: magic word, legal opcodes and flags, operand-kind
//     checks against the operand array (or kind inference with conflict
//     detection when kinds are unknown), read-only write rejection,
//     jump-target ranges, extension gating, Return presence.
//  2. Activate call graph: cross-event cycle detection (mutual recursion —
//     A activates B activates A — is as fatal as self-activation) and
//     static nesting depth against the executor's Activate budget.
//  3. Page-register def-before-use: a page register that is used (EnQueue,
//     Flush, Set, Ref, Mod, Release, Migrate, Return-from-PageFault) but
//     never defined (DeQueue, Find) anywhere in the spec is a guaranteed
//     first-execution fault.
//  4. CR-aware flow: a symbolic walk of each event tracking the condition
//     register (three-valued, with constant folding of Comp on read-only
//     constants) and the emptiness of up to four page registers. Yields
//     run-off-end errors, unreachable-code warnings, empty-register-use
//     warnings, and the realizable control-flow edges the loop passes use.
//  5. Loop boundedness: strongly connected components of the realizable
//     CFG, dominator-based back-edge identification; loops with no exit
//     edge or with no state change feeding their exit tests are errors
//     (the checker's wall-clock timeout becomes a backstop, not the
//     primary defense).
//  6. Frame balance: a Request inside a loop with no Release and no exit
//     conditioned on the request outcome is an unbounded grant leak;
//     specs that Request but never Release anywhere get a warning.
package verify

import (
	"fmt"

	"hipec/internal/isa"
)

// DefaultMaxActivateDepth mirrors core.Executor.MaxActivateDepth.
const DefaultMaxActivateDepth = 8

// OperandInfo describes one operand-array slot to the verifier.
type OperandInfo struct {
	Kind     isa.Kind
	Name     string
	ReadOnly bool // constants and kernel-maintained (live) counters
	Live     bool // kernel-maintained counter
	// LiveQueue is the queue slot whose length a live counter mirrors
	// (isa.SlotNoQueue otherwise); the loop-progress pass uses it to tie
	// counter reads to queue mutations.
	LiveQueue uint8
	// HasConst marks a read-only integer whose value is statically known
	// (ConstVal), enabling Comp constant folding.
	HasConst bool
	ConstVal int64
	// Known marks the Kind as authoritative. Unknown slots (linting a
	// binary policy, which carries no operand table) get their kinds
	// inferred from use, with conflicting uses reported.
	Known bool
}

// Unit is the verifier's input: a compiled policy plus its operand
// contract.
type Unit struct {
	Name       string
	Events     []isa.Program
	EventNames []string
	Operands   [256]OperandInfo
	Extensions bool
	// MaxActivateDepth bounds static Activate nesting (0 = default 8).
	MaxActivateDepth int
}

// NewUnit builds a unit with the well-known builtin slots populated from
// the isa contract and every other slot unknown (kind inference mode).
func NewUnit(name string) *Unit {
	u := &Unit{Name: name}
	for i := range u.Operands {
		u.Operands[i].LiveQueue = isa.SlotNoQueue
	}
	for _, s := range isa.WellKnownSlots() {
		u.Operands[s.Slot] = OperandInfo{
			Kind: s.Kind, Name: s.Name, ReadOnly: s.ReadOnly,
			Live: s.Live, LiveQueue: s.LiveQueue, Known: true,
		}
	}
	z := &u.Operands[isa.SlotZero]
	z.HasConst, z.ConstVal = true, 0
	o := &u.Operands[isa.SlotOne]
	o.HasConst, o.ConstVal = true, 1
	return u
}

// Declare sets the authoritative kind of a slot (source/registration mode).
func (u *Unit) Declare(slot uint8, kind isa.Kind, name string, readOnly bool) {
	u.Operands[slot] = OperandInfo{
		Kind: kind, Name: name, ReadOnly: readOnly,
		LiveQueue: isa.SlotNoQueue, Known: true,
	}
}

// EventName returns a printable name for an event number.
func (u *Unit) EventName(ev int) string {
	switch ev {
	case isa.EventPageFault:
		return "PageFault"
	case isa.EventReclaimFrame:
		return "ReclaimFrame"
	}
	if ev >= 0 && ev < len(u.EventNames) && u.EventNames[ev] != "" {
		return u.EventNames[ev]
	}
	return fmt.Sprintf("event%d", ev)
}

// kindMask is a set of acceptable kinds for a slot.
type kindMask uint8

func maskOf(ks ...isa.Kind) kindMask {
	var m kindMask
	for _, k := range ks {
		m |= 1 << k
	}
	return m
}

var (
	maskInt       = maskOf(isa.KindInt)
	maskBoolish   = maskOf(isa.KindInt, isa.KindBool)
	maskQueue     = maskOf(isa.KindQueue)
	maskPage      = maskOf(isa.KindPage)
	maskIntOrPage = maskOf(isa.KindInt, isa.KindPage)
)

func (m kindMask) String() string {
	switch m {
	case maskInt:
		return "int"
	case maskBoolish:
		return "int or bool"
	case maskQueue:
		return "queue"
	case maskPage:
		return "page"
	case maskIntOrPage:
		return "int or page"
	}
	return fmt.Sprintf("kindMask(%#x)", uint8(m))
}

func (m kindMask) single() (isa.Kind, bool) {
	for k := isa.KindInt; k <= isa.KindPage; k++ {
		if m == 1<<k {
			return k, true
		}
	}
	return isa.KindNone, false
}

// analysis carries the pipeline state for one Analyze call.
type analysis struct {
	u        *Unit
	maxDepth int
	diags    []Diagnostic

	// constraints narrows the possible kinds of unknown slots; conflicted
	// marks slots already reported so each conflict errors once.
	constraints [256]kindMask
	conflicted  [256]bool

	hasRelease bool // any Release anywhere in the spec
	// flows holds the per-event symbolic-walk results for the loop passes.
	flows map[int]*eventFlow
}

// Analyze runs the full pipeline and returns severity-sorted diagnostics.
func Analyze(u *Unit) []Diagnostic {
	a := &analysis{u: u, maxDepth: u.MaxActivateDepth, flows: map[int]*eventFlow{}}
	if a.maxDepth <= 0 {
		a.maxDepth = DefaultMaxActivateDepth
	}
	for i := range a.constraints {
		a.constraints[i] = ^kindMask(0)
	}

	if len(u.Events) < 2 || u.Events[isa.EventPageFault] == nil || u.Events[isa.EventReclaimFrame] == nil {
		a.spec(SevError, CodeMissingEvent, "must define the PageFault and ReclaimFrame events")
		if len(u.Events) < 2 {
			sortDiags(a.diags)
			return a.diags
		}
	}

	structuralOK := make([]bool, len(u.Events))
	for ev, prog := range u.Events {
		if prog == nil {
			continue
		}
		structuralOK[ev] = a.structural(ev, prog)
	}
	a.callGraph()
	a.pageRegDefUse()
	for ev, prog := range u.Events {
		if prog == nil || !structuralOK[ev] {
			continue
		}
		f := a.flow(ev, prog)
		a.flows[ev] = f
		a.loops(ev, prog, f)
	}
	a.frameBalance()
	sortDiags(a.diags)
	return a.diags
}

func (a *analysis) report(sev Severity, code Code, ev, cc int, format string, args ...any) {
	a.diags = append(a.diags, Diagnostic{
		Code: code, Severity: sev, Event: ev, EventName: a.u.EventName(ev),
		CC: cc, Msg: fmt.Sprintf(format, args...),
	})
}

func (a *analysis) spec(sev Severity, code Code, format string, args ...any) {
	a.diags = append(a.diags, Diagnostic{
		Code: code, Severity: sev, Event: -1, Msg: fmt.Sprintf(format, args...),
	})
}

// kindOf resolves the kind of a slot: authoritative when known, inferred
// when use narrowed an unknown slot to a single kind.
func (a *analysis) kindOf(slot uint8) (isa.Kind, bool) {
	o := &a.u.Operands[slot]
	if o.Known {
		return o.Kind, true
	}
	if k, ok := a.constraints[slot].single(); ok {
		return k, true
	}
	return isa.KindNone, false
}

func (a *analysis) slotName(slot uint8) string {
	if n := a.u.Operands[slot].Name; n != "" {
		return n
	}
	return fmt.Sprintf("slot %#02x", slot)
}

// demand requires slot to hold one of the kinds in want. Known slots are
// checked directly; unknown slots accumulate the constraint, reporting a
// conflict when the acceptable set becomes empty.
func (a *analysis) demand(ev, cc int, slot uint8, want kindMask, what string) {
	o := &a.u.Operands[slot]
	if o.Known {
		if want&(1<<o.Kind) == 0 {
			a.report(SevError, CodeOperandKind, ev, cc,
				"%s operand %#02x is %v, want %v", what, slot, o.Kind, want)
		}
		return
	}
	prev := a.constraints[slot]
	a.constraints[slot] = prev & want
	if a.constraints[slot] == 0 && !a.conflicted[slot] {
		a.conflicted[slot] = true
		a.constraints[slot] = prev // keep the earlier inference for later checks
		a.report(SevError, CodeKindConflict, ev, cc,
			"operand %#02x used as %v here but earlier uses imply %v", slot, want, prev)
	}
}

// demandWrite additionally rejects writes to read-only slots.
func (a *analysis) demandWrite(ev, cc int, slot uint8, what string) {
	a.demand(ev, cc, slot, maskInt, what)
	o := &a.u.Operands[slot]
	if o.Known && (o.ReadOnly || o.Live) {
		a.report(SevError, CodeReadOnlyWrite, ev, cc,
			"%s writes read-only operand %#02x (%s)", what, slot, o.Name)
	}
}

// structural runs the per-command checks on one event program. It returns
// false when the program is too malformed (missing magic, empty) for the
// flow passes to run.
func (a *analysis) structural(ev int, prog isa.Program) bool {
	if len(prog) == 0 || prog[0] != isa.Magic {
		a.report(SevError, CodeMissingMagic, ev, 0, "missing HiPEC magic number")
		return false
	}
	if len(prog) == 1 {
		a.report(SevError, CodeEmptyProgram, ev, 0, "empty program")
		return false
	}
	hasReturn := false
	for cc := 1; cc < len(prog); cc++ {
		cmd := prog[cc]
		op1, op2, flag := cmd.A(), cmd.B(), cmd.C()
		switch cmd.Op() {
		case isa.OpReturn:
			hasReturn = true
		case isa.OpArith:
			a.demandWrite(ev, cc, op1, "Arith destination")
			if flag > isa.ArithDec {
				a.report(SevError, CodeBadFlag, ev, cc, "bad Arith flag %d", flag)
			}
			if flag != isa.ArithInc && flag != isa.ArithDec {
				a.demand(ev, cc, op2, maskInt, "Arith source")
			}
		case isa.OpComp:
			a.demand(ev, cc, op1, maskInt, "Comp")
			a.demand(ev, cc, op2, maskInt, "Comp")
			if flag > isa.CompLE {
				a.report(SevError, CodeBadFlag, ev, cc, "bad Comp flag %d", flag)
			}
		case isa.OpLogic:
			a.demand(ev, cc, op1, maskBoolish, "Logic")
			if flag != isa.LogicNot {
				a.demand(ev, cc, op2, maskBoolish, "Logic")
			}
			if flag > isa.LogicXor {
				a.report(SevError, CodeBadFlag, ev, cc, "bad Logic flag %d", flag)
			}
		case isa.OpEmptyQ:
			a.demand(ev, cc, op1, maskQueue, "EmptyQ")
		case isa.OpInQ:
			a.demand(ev, cc, op1, maskQueue, "InQ queue")
			a.demand(ev, cc, op2, maskPage, "InQ page")
		case isa.OpJump:
			if op1 > isa.JumpIfTrue {
				a.report(SevError, CodeBadFlag, ev, cc, "bad Jump mode %d", op1)
			}
			if t := int(flag); t < 1 || t >= len(prog) {
				a.report(SevError, CodeJumpRange, ev, cc,
					"jump target %d out of range [1,%d)", t, len(prog))
			}
		case isa.OpDeQueue:
			a.demand(ev, cc, op1, maskPage, "DeQueue destination")
			a.demand(ev, cc, op2, maskQueue, "DeQueue source")
			if flag != isa.QueueHead && flag != isa.QueueTail {
				a.report(SevError, CodeBadFlag, ev, cc, "bad DeQueue flag %d", flag)
			}
		case isa.OpEnQueue:
			a.demand(ev, cc, op1, maskPage, "EnQueue page")
			a.demand(ev, cc, op2, maskQueue, "EnQueue queue")
			if flag != isa.QueueHead && flag != isa.QueueTail {
				a.report(SevError, CodeBadFlag, ev, cc, "bad EnQueue flag %d", flag)
			}
		case isa.OpRequest:
			a.demand(ev, cc, op1, maskInt, "Request size")
		case isa.OpRelease:
			a.demand(ev, cc, op1, maskIntOrPage, "Release")
			a.hasRelease = true
		case isa.OpFlush:
			a.demand(ev, cc, op1, maskPage, "Flush")
		case isa.OpSet:
			a.demand(ev, cc, op1, maskPage, "Set")
			if op2 != isa.SetBitModify && op2 != isa.SetBitReference {
				a.report(SevError, CodeBadFlag, ev, cc, "bad Set bit selector %d", op2)
			}
			if flag != isa.SetOpSet && flag != isa.SetOpClear {
				a.report(SevError, CodeBadFlag, ev, cc, "bad Set operation %d", flag)
			}
		case isa.OpRef:
			a.demand(ev, cc, op1, maskPage, "Ref")
		case isa.OpMod:
			a.demand(ev, cc, op1, maskPage, "Mod")
		case isa.OpFind:
			a.demand(ev, cc, op1, maskPage, "Find destination")
			a.demand(ev, cc, op2, maskInt, "Find address")
		case isa.OpActivate:
			if t := int(op1); t >= len(a.u.Events) || a.u.Events[t] == nil {
				a.report(SevError, CodeUndefinedEvent, ev, cc,
					"Activate of undefined event %d", t)
			}
		case isa.OpFIFO, isa.OpLRU, isa.OpMRU:
			a.demand(ev, cc, op1, maskQueue, cmd.Op().String())
		case isa.OpMigrate:
			if !a.u.Extensions {
				a.report(SevError, CodeExtension, ev, cc, "Migrate used without EnableExtensions")
			}
			a.demand(ev, cc, op1, maskPage, "Migrate page")
			a.demand(ev, cc, op2, maskInt, "Migrate target")
		case isa.OpAge:
			if !a.u.Extensions {
				a.report(SevError, CodeExtension, ev, cc, "Age used without EnableExtensions")
			}
			a.demand(ev, cc, op1, maskQueue, "Age")
		default:
			a.report(SevError, CodeIllegalOpcode, ev, cc,
				"illegal opcode %#02x", uint8(cmd.Op()))
		}
	}
	if !hasReturn {
		a.report(SevError, CodeNoReturn, ev, 0, "program has no Return command")
	}
	return true
}

// callGraph checks the cross-event Activate graph for cycles (mutual and
// self recursion) and for static nesting deeper than the executor budget.
func (a *analysis) callGraph() {
	n := len(a.u.Events)
	edges := make([][]int, n)     // callee event numbers
	sites := make([]map[int]int, n) // callee -> first Activate CC
	for ev, prog := range a.u.Events {
		if prog == nil {
			continue
		}
		sites[ev] = map[int]int{}
		for cc := 1; cc < len(prog); cc++ {
			if prog[cc].Op() != isa.OpActivate {
				continue
			}
			t := int(prog[cc].A())
			if t >= n || t < 0 || a.u.Events[t] == nil {
				continue // undefined target already reported
			}
			if _, dup := sites[ev][t]; !dup {
				sites[ev][t] = cc
				edges[ev] = append(edges[ev], t)
			}
		}
	}

	const (
		white = iota
		grey
		black
	)
	color := make([]int, n)
	var path []int
	cyclic := false
	var visit func(ev int)
	visit = func(ev int) {
		color[ev] = grey
		path = append(path, ev)
		for _, t := range edges[ev] {
			switch color[t] {
			case grey:
				// Reconstruct the cycle from the DFS path.
				start := 0
				for i, p := range path {
					if p == t {
						start = i
						break
					}
				}
				names := ""
				for _, p := range path[start:] {
					names += a.u.EventName(p) + " -> "
				}
				names += a.u.EventName(t)
				cyclic = true
				a.report(SevError, CodeActivateCycle, ev, sites[ev][t],
					"Activate cycle: %s (unbounded recursion)", names)
			case white:
				visit(t)
			}
		}
		path = path[:len(path)-1]
		color[ev] = black
	}
	for ev := range a.u.Events {
		if a.u.Events[ev] != nil && color[ev] == white {
			visit(ev)
		}
	}
	if cyclic {
		return
	}

	// Acyclic: the longest Activate chain from any event must fit the
	// executor's nesting budget.
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	var chain func(ev int) int
	chain = func(ev int) int {
		if depth[ev] >= 0 {
			return depth[ev]
		}
		d := 0
		for _, t := range edges[ev] {
			if c := chain(t) + 1; c > d {
				d = c
			}
		}
		depth[ev] = d
		return d
	}
	for ev, prog := range a.u.Events {
		if prog == nil {
			continue
		}
		if d := chain(ev); d > a.maxDepth {
			// Report at the first Activate site of the deepest chain head.
			cc := 0
			for _, c := range sites[ev] {
				if cc == 0 || c < cc {
					cc = c
				}
			}
			a.report(SevError, CodeActivateDepth, ev, cc,
				"Activate chain of depth %d exceeds the executor budget of %d", d, a.maxDepth)
		}
	}
}

// pageRegDefUse flags page registers that some command uses in a way that
// faults on an empty register, but that no command in any event ever
// defines (DeQueue, Find). Registers start empty at container creation and
// only those two commands fill them, so the first execution reaching such
// a use is a guaranteed runtime PolicyFault.
func (a *analysis) pageRegDefUse() {
	type site struct{ ev, cc int }
	defined := [256]bool{}
	uses := map[uint8][]site{}

	noteUse := func(slot uint8, ev, cc int) {
		if k, ok := a.kindOf(slot); ok && k == isa.KindPage {
			uses[slot] = append(uses[slot], site{ev, cc})
		}
	}
	for ev, prog := range a.u.Events {
		if prog == nil {
			continue
		}
		for cc := 1; cc < len(prog); cc++ {
			cmd := prog[cc]
			op1, op2 := cmd.A(), cmd.B()
			switch cmd.Op() {
			case isa.OpDeQueue, isa.OpFind:
				defined[op1] = true
			case isa.OpEnQueue, isa.OpFlush, isa.OpSet, isa.OpRef, isa.OpMod, isa.OpMigrate:
				noteUse(op1, ev, cc)
			case isa.OpRelease:
				noteUse(op1, ev, cc)
			case isa.OpReturn:
				if ev == isa.EventPageFault {
					// PageFor rejects a PageFault activation that returns
					// an empty register.
					noteUse(op1, ev, cc)
				}
			case isa.OpInQ:
				_ = op2 // InQ tolerates an empty register (CR = false)
			}
		}
	}
	for slot, sites := range uses {
		if defined[slot] {
			continue
		}
		s := sites[0]
		a.report(SevError, CodeUndefinedPageReg, s.ev, s.cc,
			"page register %s (%#02x) is used but never defined by DeQueue or Find in any event (guaranteed empty-register fault)",
			a.slotName(slot), slot)
	}
}

// frameBalance emits the spec-wide Request/Release advisory: a policy that
// requests frames from the global frame manager but has no Release path
// anywhere can only give frames back through forced reclamation.
func (a *analysis) frameBalance() {
	if a.hasRelease {
		return
	}
	for ev, prog := range a.u.Events {
		if prog == nil {
			continue
		}
		for cc := 1; cc < len(prog); cc++ {
			if prog[cc].Op() == isa.OpRequest {
				a.report(SevWarning, CodeNoRelease, ev, cc,
					"spec Requests frames but never Releases any (only forced reclamation can recover them)")
				return
			}
		}
	}
}
