package core

import (
	"fmt"

	"hipec/internal/disk"
	"hipec/internal/faultinj"
	"hipec/internal/hiperr"
	"hipec/internal/kevent"
	"hipec/internal/mem"
	"hipec/internal/pageout"
	"hipec/internal/substrate"
	"hipec/internal/vm"
)

// Config assembles a simulated kernel. Zero-valued fields take calibrated
// defaults.
type Config struct {
	Frames   int // physical memory size in frames
	PageSize int // default 4096
	KeepData bool

	VMCosts   vm.Costs
	ExecCosts ExecCosts
	Disk      disk.Params
	Targets   pageout.Targets

	// Faults configures the deterministic fault-injection plane (chaos
	// testing). The zero value (Seed 0) builds no plane: no code path
	// consults it and behaviour is bit-for-bit the non-chaos baseline.
	Faults faultinj.Config
	// Retry bounds the VM fault path's page-in retries; the zero value
	// takes vm.DefaultRetry.
	Retry vm.Retry

	// BurstFraction sets partition_burst as a fraction of the free frames
	// at startup (the paper uses 50%).
	BurstFraction float64
	// StartChecker launches the security-checker watchdog immediately.
	StartChecker bool
	// HiPECDisabled builds a vanilla Mach kernel: the per-fault region
	// check is not charged and HiPEC activation calls fail. Used as the
	// unmodified-kernel baseline in the experiments.
	HiPECDisabled bool

	// Sinks are attached to the kernel event spine at construction:
	// every subsystem event (faults, evictions, disk I/O, frame-manager
	// grants, checker wakeups, ...) is delivered to each sink in order,
	// after the metrics registry. See package kevent.
	Sinks []kevent.Sink

	// Substrate selects the world the kernel runs in. The zero value is the
	// deterministic simulation on an in-memory store — byte-identical to the
	// pre-seam kernel. substrate.Config{Kind: substrate.KindReal} runs on
	// wall-clock time: cost and disk models default to zero (measured, not
	// modeled), frames carry real page payloads cut from one arena, and
	// Substrate.Store (e.g. a filestore) supplies persistent backing.
	Substrate substrate.Config
}

// KernelStats is a snapshot of top-level counters, derived from the kernel
// event spine.
type KernelStats struct {
	ContainersCreated int64
	ActivationErrors  int64
}

// Kernel is the simulated OSF/1-MK-with-HiPEC kernel: the VM substrate, the
// pageout daemon (doubling as the global frame manager engine), the policy
// executor and the security checker.
type Kernel struct {
	Clock    substrate.Clock
	VM       *vm.System
	Daemon   *pageout.Daemon
	FM       *FrameManager
	Executor *Executor
	Checker  *Checker
	// Inject is the fault-injection plane (nil unless Config.Faults has a
	// seed). Shared with the disk and consultable by external pagers.
	Inject *faultinj.Plane

	hipecDisabled bool
	nextContainer int
	containers    []*Container // every container created, less those a CacheSession freed
}

// Events returns the kernel's event spine (shared with the VM substrate);
// attach kevent.Sink consumers here at runtime.
func (k *Kernel) Events() *kevent.Emitter { return k.VM.Events }

// Registry returns the spine's metrics registry: the single source of truth
// for every counter surfaced by Report() and the experiment harness.
func (k *Kernel) Registry() *kevent.Registry { return k.VM.Events.Registry() }

// Stats reports top-level counters, derived from the event spine.
func (k *Kernel) Stats() KernelStats {
	sc := k.Registry().Global()
	return KernelStats{
		ContainersCreated: sc.Counts[kevent.EvContainerCreated],
		ActivationErrors:  sc.Counts[kevent.EvActivationError],
	}
}

// emit sends an event down the kernel spine.
func (k *Kernel) emit(e kevent.Event) { k.VM.Events.Emit(e) }

// New builds a kernel.
func New(cfg Config) *Kernel {
	real := cfg.Substrate.Kind == substrate.KindReal
	var clock substrate.Clock
	if real {
		clock = substrate.NewRealClock()
	} else {
		clock = substrate.NewSimClock()
	}
	costs := cfg.VMCosts
	if costs == (vm.Costs{}) && !real {
		// Realtime keeps zero costs zero: real time is measured by the
		// wall clock, not modeled by charges.
		costs = vm.DefaultCosts()
	}
	if cfg.HiPECDisabled {
		costs.RegionCheck = 0
	}
	inject := faultinj.New(cfg.Faults)
	sys := vm.NewSystem(clock, vm.Config{
		Frames:       cfg.Frames,
		PageSize:     cfg.PageSize,
		KeepData:     cfg.KeepData || real,
		Costs:        costs,
		Disk:         cfg.Disk,
		Retry:        cfg.Retry,
		Inject:       inject,
		Store:        cfg.Substrate.Store,
		PayloadArena: real,
		RawCosts:     real,
	})
	for _, s := range cfg.Sinks {
		sys.Events.Attach(s)
	}
	daemon := pageout.New(sys, cfg.Targets)
	sys.SetDefaultPolicy(daemon)
	k := &Kernel{
		Clock:         clock,
		VM:            sys,
		Daemon:        daemon,
		Inject:        inject,
		hipecDisabled: cfg.HiPECDisabled,
	}
	sys.OnFaultFailure = k.degradeFault
	ec := cfg.ExecCosts
	if ec == (ExecCosts{}) && !real {
		ec = DefaultExecCosts()
	}
	k.Executor = newExecutor(k, ec)
	k.FM = newFrameManager(k, daemon, cfg.BurstFraction)
	k.Checker = newChecker(k)
	if cfg.StartChecker && !cfg.HiPECDisabled {
		k.Checker.Start()
	}
	return k
}

// NewSpace creates a task address space.
func (k *Kernel) NewSpace() *vm.AddressSpace { return k.VM.NewSpace() }

// activate builds, validates and funds a container for obj.
func (k *Kernel) activate(obj *vm.Object, spec *Spec) (*Container, error) {
	if k.hipecDisabled {
		return nil, &hiperr.Error{Op: "hipec.activate",
			Err: fmt.Errorf("kernel built without HiPEC support: %w", hiperr.ErrPolicyFault)}
	}
	if spec == nil {
		return nil, &hiperr.Error{Op: "hipec.activate",
			Err: fmt.Errorf("nil policy spec: %w", hiperr.ErrPolicyFault)}
	}
	if obj.Policy != nil {
		return nil, &hiperr.Error{Op: "hipec.activate",
			Err: fmt.Errorf("object %d already has a container: %w", obj.ID, hiperr.ErrPolicyFault)}
	}
	k.nextContainer++
	c, err := newContainer(k, k.nextContainer, obj, spec)
	if err != nil {
		return nil, err
	}
	if errs := k.Checker.ValidateSpec(c); len(errs) > 0 {
		k.emit(kevent.Event{Type: kevent.EvActivationError, Container: int32(c.ID)})
		return nil, &hiperr.Error{Op: "hipec.activate", Container: c.ID,
			Err: fmt.Errorf("policy %q rejected by security checker: %v (and %d more): %w",
				spec.Name, errs[0], len(errs)-1, hiperr.ErrPolicyRejected)}
	}
	if err := k.FM.attach(c); err != nil {
		k.emit(kevent.Event{Type: kevent.EvActivationError, Container: int32(c.ID)})
		return nil, err
	}
	obj.Policy = c
	k.containers = append(k.containers, c)
	k.emit(kevent.Event{Type: kevent.EvContainerCreated, Container: int32(c.ID), Arg: int64(obj.ID)})
	return c, nil
}

// terminate kills a specific application's policy: the container stops
// handling events, its free frames return to the machine pool, and its
// resident pages revert to default (pageout daemon) management. Idempotent.
func (k *Kernel) terminate(c *Container, reason string) {
	if c.state != StateActive {
		return
	}
	c.state = StateTerminated
	c.termReason = reason
	c.timedOut = true // abort any in-flight execution at its next step
	k.emit(kevent.Event{Type: kevent.EvCheckerKill, Container: int32(c.ID)})
	k.releaseContainer(c, true)
}

// degradeFault is installed as the VM's OnFaultFailure hook: when a fault on
// a HiPEC-managed region exhausts its retry budget, the region degrades
// gracefully — the container is revoked, its resident pages revert to the
// pageout daemon, and the fault replays once under the default policy. A
// failure on an already-degraded (or never-HiPEC) region is final.
func (k *Kernel) degradeFault(o *vm.Object, cause error) bool {
	c, ok := o.Policy.(*Container)
	if !ok || c.state != StateActive {
		return false
	}
	k.RevokeContainer(c, fmt.Sprintf("fault recovery exhausted: %v", cause))
	return true
}

// RevokeContainer degrades a specific application: the container stops
// handling events (Run and PageFor return ErrRevoked), its free frames
// return to the machine pool, and its resident pages revert to default
// (pageout daemon) management — no resident page is lost. Idempotent.
func (k *Kernel) RevokeContainer(c *Container, reason string) {
	if c.state != StateActive {
		return
	}
	c.state = StateRevoked
	c.termReason = reason
	c.timedOut = true // abort any in-flight execution at its next step
	k.emit(kevent.Event{Type: kevent.EvContainerRevoked, Container: int32(c.ID)})
	k.releaseContainer(c, true)
}

// DestroyContainer tears down a container whose region is being
// deallocated: every frame (resident or free) returns to the global frame
// manager (§4.3.1 Deallocation).
func (k *Kernel) DestroyContainer(c *Container) {
	if c.state == StateDestroyed {
		return
	}
	c.state = StateDestroyed
	// DestroyObject runs with the container still installed as the
	// object's policy so that Release hooks clear queues, registers and
	// grant accounting for each resident page.
	k.VM.DestroyObject(c.object)
	k.releaseContainer(c, false)
}

// releaseContainer empties the container's private lists. When
// handResidents is true, resident pages are handed to the pageout daemon's
// active queue (management reverts to the default policy); otherwise
// residency has already been torn down.
func (k *Kernel) releaseContainer(c *Container, handResidents bool) {
	// Page registers first: a register may hold a detached frame.
	for i := range c.operands {
		o := &c.operands[i]
		if o.Kind != KindPage || o.Page == nil {
			continue
		}
		p := o.Page
		o.Page = nil
		if p.Queue() == nil && !k.isResident(p) {
			k.Daemon.ReturnFrame(p)
		}
	}
	for p := c.Free.DequeueHead(); p != nil; p = c.Free.DequeueHead() {
		k.Daemon.ReturnFrame(p)
	}
	for _, q := range c.queues() {
		for p := q.DequeueHead(); p != nil; p = q.DequeueHead() {
			if handResidents && k.isResident(p) {
				k.Daemon.Active.EnqueueTail(p)
			} else if !k.isResident(p) {
				k.Daemon.ReturnFrame(p)
			}
			// Resident pages with handResidents=false were already
			// freed by DestroyObject -> Release; nothing to do.
		}
	}
	k.FM.noteReleased(c, c.allocated)
	c.allocated = 0
	if c.object.Policy == c {
		c.object.Policy = nil
	}
	k.FM.detach(c)
}

func (k *Kernel) isResident(p *mem.Page) bool {
	if p.Object == 0 {
		return false
	}
	obj := k.VM.Object(p.Object)
	return obj != nil && obj.Resident(p.Offset) == p
}

// Containers returns every container created (including terminated and
// destroyed ones) for inspection, except those whose region a CacheSession
// has freed.
func (k *Kernel) Containers() []*Container { return k.containers }
