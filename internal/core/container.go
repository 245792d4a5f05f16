package core

import (
	"fmt"
	"time"

	"hipec/internal/hiperr"
	"hipec/internal/kevent"
	"hipec/internal/mem"
	"hipec/internal/simtime"
	"hipec/internal/vm"
)

// Operand is one entry of the container's operand array. Its Kind (the
// runtime type of the slot) is defined in package isa and re-exported by
// this package.
type Operand struct {
	Kind  Kind
	Name  string
	Int   int64
	Bool  bool
	Queue *mem.Queue
	Page  *mem.Page

	// live, when non-nil, makes the operand a kernel-maintained counter:
	// integer reads evaluate it (e.g. _free_count is the live length of
	// the private free queue). Live operands are read-only to policies.
	live func() int64
	// readOnly slots reject Arith writes (constants and live counters).
	readOnly bool
}

// IntValue returns the integer value, evaluating live counters.
func (o *Operand) IntValue() int64 {
	if o.live != nil {
		return o.live()
	}
	return o.Int
}

// OperandDecl declares one application operand in a Spec.
type OperandDecl struct {
	Slot uint8
	Kind Kind
	Name string
	Init int64 // initial value for KindInt; nonzero = true for KindBool
	// Const marks the operand read-only (a policy constant).
	Const bool
}

// Spec is a complete user-supplied policy: the event programs, operand
// declarations and resource parameters handed to vm_allocate_hipec() /
// vm_map_hipec(). Produced by hand-encoding or by the hpl translator.
type Spec struct {
	Name string
	// Events indexes programs by event number; entries 0 and 1
	// (PageFault, ReclaimFrame) are mandatory.
	Events []Program
	// EventNames optionally names events for diagnostics.
	EventNames []string
	// Operands declares application slots (>= SlotUser) and may override
	// the initial values of the target slots (reserved/free/inactive).
	Operands []OperandDecl
	// MinFrame is the guaranteed minimum number of frames (§4.3.1
	// Allocation); the kernel rejects activation if it cannot be granted.
	MinFrame int
	// EnableExtensions permits the post-paper opcodes (Migrate, Age).
	EnableExtensions bool
	// AccessOrderQueues keeps the container's active queue in exact
	// recency order (the VM layer moves pages to the tail on every hit),
	// which makes the canned LRU and MRU commands O(1). Policies that
	// depend on fault-insertion order (plain FIFO) should leave it off.
	AccessOrderQueues bool
}

// ContainerState describes the lifecycle of a container.
type ContainerState uint8

const (
	StateActive     ContainerState = iota
	StateTerminated                // killed by the checker or a runtime fault
	StateDestroyed                 // region deallocated
	StateRevoked                   // degraded: region handed back to the default policy
)

func (s ContainerState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateTerminated:
		return "terminated"
	case StateDestroyed:
		return "destroyed"
	case StateRevoked:
		return "revoked"
	}
	return fmt.Sprintf("ContainerState(%d)", uint8(s))
}

// ContainerStats is a snapshot of per-container policy activity, derived
// from the container's scoped view of the kernel event spine.
type ContainerStats struct {
	Activations   int64 // event executions (outer, not Activate-nested)
	Commands      int64 // commands fetched/decoded/executed
	Requests      int64 // Request commands issued
	RequestDenied int64
	Releases      int64 // frames returned via Release
	Flushes       int64 // Flush commands executed
	Migrations    int64 // pages migrated in via the Migrate extension
}

// Container is the kernel object added by HiPEC (§4.1): it records the
// operand array, pointers to the command buffers (event programs), the
// private frame lists, the command counter, and the execution timestamp
// checked by the security checker.
type Container struct {
	ID int

	kernel *Kernel
	object *vm.Object
	spec   *Spec

	operands [256]Operand
	events   []Program
	// decoded mirrors events with each program unpacked once at load time
	// (the executor's fetch/decode fast path; see command.go).
	decoded [][]decodedCmd

	// Private frame lists (the partitioned pool of §3).
	Free     *mem.Queue
	Active   *mem.Queue
	Inactive *mem.Queue

	// MinFrame is the administratively guaranteed minimum (§4.3.1).
	MinFrame int
	// allocated counts frames currently granted by the global frame
	// manager (on private queues, resident, or held in page registers).
	allocated int

	// Executor state.
	cc        int          // command counter of the current execution
	cr        bool         // condition register
	timestamp simtime.Time // start of current execution (checked by checker)
	executing bool
	timedOut  bool // set asynchronously by the security checker

	state      ContainerState
	termReason string

	extensions bool
}

// Stats reports per-container policy counters, derived from the event spine.
func (c *Container) Stats() ContainerStats {
	sc := c.kernel.Registry().Container(c.ID)
	return ContainerStats{
		Activations:   sc.Counts[kevent.EvPolicyActivation],
		Commands:      sc.Sums[kevent.EvPolicyActivation],
		Requests:      sc.Counts[kevent.EvPolicyRequest],
		RequestDenied: sc.Flags[kevent.EvPolicyRequest],
		Releases:      sc.Sums[kevent.EvPolicyRelease],
		Flushes:       sc.Counts[kevent.EvPolicyFlush],
		Migrations:    sc.Counts[kevent.EvPolicyMigrate],
	}
}

// Object returns the VM object this container manages.
func (c *Container) Object() *vm.Object { return c.object }

// State returns the container lifecycle state.
func (c *Container) State() ContainerState { return c.state }

// TerminationReason returns why a terminated container was killed.
func (c *Container) TerminationReason() string { return c.termReason }

// Allocated reports the number of frames currently granted.
func (c *Container) Allocated() int { return c.allocated }

// Operand returns a pointer to slot i's entry for inspection.
func (c *Container) Operand(i uint8) *Operand { return &c.operands[i] }

// Executing reports whether a policy execution is in flight (used by the
// security checker).
func (c *Container) Executing() (bool, simtime.Time) { return c.executing, c.timestamp }

// newContainer wires up the well-known operand slots.
func newContainer(k *Kernel, id int, obj *vm.Object, spec *Spec) (*Container, error) {
	c := &Container{
		ID:         id,
		kernel:     k,
		object:     obj,
		spec:       spec,
		events:     spec.Events,
		MinFrame:   spec.MinFrame,
		extensions: spec.EnableExtensions,
	}
	c.decoded = make([][]decodedCmd, len(spec.Events))
	for i, p := range spec.Events {
		c.decoded[i] = decodeProgram(p)
	}
	c.Free = mem.NewQueue(fmt.Sprintf("hipec%d_free", id))
	c.Active = mem.NewQueue(fmt.Sprintf("hipec%d_active", id))
	c.Inactive = mem.NewQueue(fmt.Sprintf("hipec%d_inactive", id))
	c.Active.AccessOrder = spec.AccessOrderQueues

	set := func(slot uint8, o Operand) { c.operands[slot] = o }
	set(SlotScratch, Operand{Kind: KindInt, Name: "_scratch"})
	set(SlotFreeQueue, Operand{Kind: KindQueue, Name: "_free_queue", Queue: c.Free, readOnly: true})
	set(SlotFreeCount, Operand{Kind: KindInt, Name: "_free_count", live: func() int64 { return int64(c.Free.Len()) }, readOnly: true})
	set(SlotActiveQueue, Operand{Kind: KindQueue, Name: "_active_queue", Queue: c.Active, readOnly: true})
	set(SlotActiveCount, Operand{Kind: KindInt, Name: "_active_count", live: func() int64 { return int64(c.Active.Len()) }, readOnly: true})
	set(SlotInactiveQueue, Operand{Kind: KindQueue, Name: "_inactive_queue", Queue: c.Inactive, readOnly: true})
	set(SlotInactiveCount, Operand{Kind: KindInt, Name: "_inactive_count", live: func() int64 { return int64(c.Inactive.Len()) }, readOnly: true})
	set(SlotAllocated, Operand{Kind: KindInt, Name: "_allocated", live: func() int64 { return int64(c.allocated) }, readOnly: true})
	set(SlotMinFrame, Operand{Kind: KindInt, Name: "_min_frame", live: func() int64 { return int64(c.MinFrame) }, readOnly: true})
	set(SlotInactiveTgt, Operand{Kind: KindInt, Name: "inactive_target", Int: int64(spec.MinFrame / 3)})
	set(SlotFreeTgt, Operand{Kind: KindInt, Name: "free_target", Int: int64(spec.MinFrame/8 + 2)})
	set(SlotPageReg, Operand{Kind: KindPage, Name: "_page"})
	set(SlotReservedTgt, Operand{Kind: KindInt, Name: "reserved_target", Int: 0})
	set(SlotFaultAddr, Operand{Kind: KindInt, Name: "_fault_addr", readOnly: true})
	set(SlotFaultOffset, Operand{Kind: KindInt, Name: "_fault_offset", readOnly: true})
	set(SlotZero, Operand{Kind: KindInt, Name: "_zero", readOnly: true})
	set(SlotOne, Operand{Kind: KindInt, Name: "_one", Int: 1, readOnly: true})

	for _, d := range spec.Operands {
		if d.Slot < SlotUser {
			// Target slots may be re-initialized but not re-typed.
			existing := &c.operands[d.Slot]
			if existing.readOnly || existing.Kind != KindInt || d.Kind != KindInt {
				return nil, fmt.Errorf("core: operand decl %q cannot override reserved slot %#02x: %w", d.Name, d.Slot, hiperr.ErrBadSpec)
			}
			existing.Int = d.Init
			continue
		}
		o := Operand{Kind: d.Kind, Name: d.Name, readOnly: d.Const}
		switch d.Kind {
		case KindInt:
			o.Int = d.Init
		case KindBool:
			o.Bool = d.Init != 0
		case KindQueue:
			o.Queue = mem.NewQueue(fmt.Sprintf("hipec%d_%s", id, d.Name))
		case KindPage:
			// empty page register
		default:
			return nil, fmt.Errorf("core: operand decl %q has invalid kind: %w", d.Name, hiperr.ErrBadSpec)
		}
		c.operands[d.Slot] = o
	}
	return c, nil
}

// SetIntOperand assigns a declared integer operand by name. It is the
// application's control channel into a running policy (e.g. adjusting a
// target or telling a policy which container to cooperate with).
func (c *Container) SetIntOperand(name string, v int64) error {
	for i := range c.operands {
		o := &c.operands[i]
		if o.Name != name {
			continue
		}
		if o.Kind != KindInt {
			return fmt.Errorf("core: operand %q is %v, not int: %w", name, o.Kind, hiperr.ErrBadOperand)
		}
		if o.readOnly || o.live != nil {
			return fmt.Errorf("core: operand %q is read-only: %w", name, hiperr.ErrBadOperand)
		}
		o.Int = v
		return nil
	}
	return fmt.Errorf("core: no operand named %q: %w", name, hiperr.ErrBadOperand)
}

// IntOperand reads a declared integer operand by name.
func (c *Container) IntOperand(name string) (int64, error) {
	for i := range c.operands {
		o := &c.operands[i]
		if o.Name == name && o.Kind == KindInt {
			return o.IntValue(), nil
		}
	}
	return 0, fmt.Errorf("core: no int operand named %q: %w", name, hiperr.ErrBadOperand)
}

// AppendEventForTest registers an additional event program directly,
// bypassing static validation. It exists for tests and benchmarks that
// need to drive individual commands; production policies must go through
// a Spec so the security checker sees them.
func (c *Container) AppendEventForTest(p Program) int {
	c.events = append(c.events, p)
	c.decoded = append(c.decoded, decodeProgram(p))
	return len(c.events) - 1
}

// eventName returns a printable name for an event number.
func (c *Container) eventName(ev int) string {
	switch ev {
	case EventPageFault:
		return "PageFault"
	case EventReclaimFrame:
		return "ReclaimFrame"
	}
	if c.spec != nil && ev < len(c.spec.EventNames) && c.spec.EventNames[ev] != "" {
		return c.spec.EventNames[ev]
	}
	return fmt.Sprintf("event%d", ev)
}

// queues returns the container's built-in and user-declared queues.
func (c *Container) queues() []*mem.Queue {
	qs := []*mem.Queue{c.Free, c.Active, c.Inactive}
	for i := int(SlotUser); i < len(c.operands); i++ {
		if c.operands[i].Kind == KindQueue && c.operands[i].Queue != nil {
			qs = append(qs, c.operands[i].Queue)
		}
	}
	return qs
}

// pageRegisters returns frames currently held in page-register operands.
func (c *Container) pageRegisters() []*mem.Page {
	var out []*mem.Page
	for i := range c.operands {
		if c.operands[i].Kind == KindPage && c.operands[i].Page != nil {
			out = append(out, c.operands[i].Page)
		}
	}
	return out
}

// --- vm.Policy implementation -------------------------------------------

// Name implements vm.Policy.
func (c *Container) Name() string { return fmt.Sprintf("hipec:%s", c.spec.Name) }

// PageFor implements vm.Policy: a fault on the container's region runs the
// PageFault event program; its Return operand must name a free page.
func (c *Container) PageFor(f *vm.Fault) (*mem.Page, error) {
	if c.state != StateActive {
		sentinel := hiperr.ErrPolicyFault
		if c.state == StateRevoked {
			sentinel = hiperr.ErrRevoked
		}
		return nil, &hiperr.Error{Op: "hipec.pagefor", Container: c.ID,
			Err: fmt.Errorf("container is %v: %w", c.state, sentinel)}
	}
	c.operands[SlotFaultAddr].Int = f.Addr
	c.operands[SlotFaultOffset].Int = f.Offset
	res, err := c.kernel.Executor.Run(c, EventPageFault)
	if err != nil {
		return nil, err
	}
	if res == nil || res.Kind != KindPage || res.Page == nil {
		c.kernel.terminate(c, "PageFault event did not return a page")
		return nil, &hiperr.Error{Op: "hipec.pagefor", Container: c.ID,
			Err: fmt.Errorf("PageFault returned no page: %w", hiperr.ErrPolicyFault)}
	}
	p := res.Page
	if p.Queue() != nil {
		c.kernel.terminate(c, "PageFault returned a page still on a queue")
		return nil, &hiperr.Error{Op: "hipec.pagefor", Container: c.ID,
			Err: fmt.Errorf("PageFault returned queued page: %w", hiperr.ErrPolicyFault)}
	}
	if p.Object != 0 {
		c.kernel.terminate(c, "PageFault returned a page still mapped to an object")
		return nil, &hiperr.Error{Op: "hipec.pagefor", Container: c.ID,
			Err: fmt.Errorf("PageFault returned resident page: %w", hiperr.ErrPolicyFault)}
	}
	// The frame leaves the page register: it now belongs to the fault.
	if reg := &c.operands[SlotPageReg]; reg.Page == p {
		reg.Page = nil
	}
	return p, nil
}

// Installed implements vm.Policy: newly resident pages join the
// container's active list (wired pages stay off-queue).
func (c *Container) Installed(f *vm.Fault, p *mem.Page) {
	if p.Wired {
		return
	}
	c.Active.EnqueueTail(p)
}

// Release implements vm.Policy: the VM layer is detaching a resident page
// (object destruction). Drop it from private queues and registers; the
// caller frees the frame, so adjust the grant count.
func (c *Container) Release(p *mem.Page) {
	if q := p.Queue(); q != nil {
		q.Remove(p)
	}
	for i := range c.operands {
		if c.operands[i].Kind == KindPage && c.operands[i].Page == p {
			c.operands[i].Page = nil
		}
	}
	if c.allocated > 0 {
		c.allocated--
		c.kernel.FM.noteReleased(c, 1)
	}
}

// FaultAborted implements vm.FaultAborter: a fault the container supplied a
// frame for failed during page-in. The frame is still granted to the
// container, so it goes back on the private free list (or to the machine
// pool if the container is no longer active — its grant accounting has
// already been torn down).
func (c *Container) FaultAborted(f *vm.Fault, p *mem.Page) {
	if c.state == StateActive {
		c.Free.EnqueueTail(p)
		return
	}
	c.kernel.Daemon.ReturnFrame(p)
}

var (
	_ vm.Policy       = (*Container)(nil)
	_ vm.FaultAborter = (*Container)(nil)
)

// Timeout durations for the security checker; see checker.go.
const defaultExecTimeout = 100 * time.Millisecond
