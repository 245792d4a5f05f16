// Package vm implements the Mach-3.0-like virtual memory substrate that
// HiPEC plugs into: address spaces made of map entries, VM objects with
// resident-page tables, and the page-fault state machine.
//
// The design mirrors the structures named in the paper: a VM object
// "represents a segment of virtual memory region that can be a memory-mapped
// data file or a segment of address space with the same protection
// attributes" (§4.1), the region (map entry) is the unit of specific
// control (§3), and page replacement is delegated to a Policy — either the
// default pageout daemon (package pageout) or a HiPEC container
// (package core).
package vm

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"hipec/internal/disk"
	"hipec/internal/faultinj"
	"hipec/internal/hiperr"
	"hipec/internal/kevent"
	"hipec/internal/mem"
	"hipec/internal/simtime"
	"hipec/internal/substrate"
)

// Costs are the calibrated CPU costs charged to the virtual clock by the VM
// layer. Defaults reproduce the paper's testbed (see DESIGN.md §4).
type Costs struct {
	// FaultService is the base cost of the kernel fault path exclusive of
	// disk I/O and policy execution. Calibrated from Table 3:
	// 4016.5 ms / 10240 faults ≈ 392 µs.
	FaultService time.Duration
	// MemAccess is the cost charged for a resident (non-faulting) access.
	MemAccess time.Duration
	// RegionCheck is the extra cost added to every fault when the kernel
	// is built with HiPEC support (the "checking statements ... to decide
	// whether the faulted virtual address is located in the regions
	// controlled by the specific applications", §5.2).
	RegionCheck time.Duration
}

// DefaultCosts returns the calibration documented in EXPERIMENTS.md.
func DefaultCosts() Costs {
	return Costs{
		FaultService: 392 * time.Microsecond,
		MemAccess:    0,
		RegionCheck:  200 * time.Nanosecond,
	}
}

// Stats is a snapshot of VM activity, derived from the kernel event spine
// (package kevent). System.Stats() reports machine-wide totals;
// AddressSpace.Stats() reports one space's share. There is no separate
// bookkeeping: every counter is a view over the event registry, so
// per-space and system totals can never drift apart.
type Stats struct {
	Accesses  int64
	Hits      int64
	Faults    int64
	PageIns   int64 // faults served from backing store (disk read)
	ZeroFills int64 // faults served by zero-fill
	PageOuts  int64 // dirty pages written to backing store
	Evictions int64 // resident pages detached by a policy
}

// statsFromScope derives a Stats snapshot from one registry scope.
func statsFromScope(sc *kevent.ScopeCounters) Stats {
	hits := sc.Counts[kevent.EvHit]
	faults := sc.Counts[kevent.EvFault]
	return Stats{
		Accesses:  hits + faults + sc.Counts[kevent.EvBadAddress],
		Hits:      hits,
		Faults:    faults,
		PageIns:   sc.Counts[kevent.EvPageIn],
		ZeroFills: sc.Counts[kevent.EvZeroFill],
		PageOuts:  sc.Counts[kevent.EvPageOut],
		Evictions: sc.Counts[kevent.EvEviction],
	}
}

// Fault describes one page fault being serviced; it is handed to the
// responsible Policy.
type Fault struct {
	Space  *AddressSpace
	Entry  *MapEntry
	Object *Object
	Offset int64 // page-aligned offset within Object
	Addr   int64 // faulting virtual address
	Write  bool
}

// Policy decides page replacement for the regions it controls.
//
// PageFor must return a frame not attached to any object and not on any
// queue; the fault handler installs it. Installed is called after the page
// is resident so the policy can track it (e.g. place it on an active
// queue). Release is called when the VM layer detaches a resident page on
// object destruction; the policy must drop its references (dequeue) and
// must NOT free the frame — the caller does.
type Policy interface {
	Name() string
	PageFor(f *Fault) (*mem.Page, error)
	Installed(f *Fault, p *mem.Page)
	Release(p *mem.Page)
}

// ErrNoMemory is returned when a policy cannot produce a frame.
var ErrNoMemory = errors.New("vm: out of page frames")

// ErrBadAddress is returned for accesses outside any mapped region.
var ErrBadAddress = errors.New("vm: address not mapped")

// ErrBadMap marks a Map/Unmap call with invalid parameters.
var ErrBadMap = errors.New("vm: bad mapping")

// ErrNoPolicy is returned when a fault finds no replacement policy
// installed for the object or the system.
var ErrNoPolicy = errors.New("vm: no replacement policy installed")

// FaultAborter is optionally implemented by policies that own frame grant
// accounting (HiPEC containers). When a fault fails permanently after
// PageFor — the page never became resident — the fault handler calls
// FaultAborted so the policy can reclaim the frame into its private pool
// instead of leaking the grant. Policies that do not implement it get the
// frame returned to the machine free pool.
type FaultAborter interface {
	FaultAborted(f *Fault, p *mem.Page)
}

// Retry configures the fault path's bounded retry-with-backoff for transient
// page-in failures (disk I/O errors, pager loss). Backoff is charged to the
// virtual clock and doubles per attempt.
type Retry struct {
	Budget  int           // total page-in attempts per fault (including the first)
	Backoff time.Duration // initial backoff before the first retry
}

// DefaultRetry returns the kernel default: three attempts with a 500 µs
// initial backoff (a paging operation already costs milliseconds; the
// backoff exists to separate retries in time, not to rate-limit).
func DefaultRetry() Retry {
	return Retry{Budget: 3, Backoff: 500 * time.Microsecond}
}

// Pager is the external-memory-management interface (Mach EMM): a memory
// object may be backed by a user-level pager instead of the kernel's
// default store. DataRequest supplies page contents on page-in (returning
// false for "zero fill"); DataReturn receives evicted contents on
// page-out. Implementations charge their own costs (IPC, network, disk) to
// the clock. See package emm.
type Pager interface {
	PagerName() string
	DataRequest(obj uint64, off int64, dst []byte) (present bool, err error)
	DataReturn(obj uint64, off int64, src []byte) error
	PagerTerminate(obj uint64)
}

// flatMaxPages bounds the dense page table: objects above this page count
// (4 GiB of 4 KiB pages — none of the paper's workloads come close) fall
// back to a sparse map so a huge, thinly-touched object does not pay a
// pointer slot per possible page.
const flatMaxPages = 1 << 20

// Object is a Mach VM object: a pager-backed or zero-fill segment of data.
type Object struct {
	ID       uint64
	Size     int64
	ZeroFill bool  // anonymous memory: first touch zero-fills, no page-in
	DiskBase int64 // block address of the object's first page on disk

	// The resident-page table. Objects are contiguous, so the common case
	// is the flat slice indexed by off>>pageShift — the fault path's
	// resident lookup is then a shift and a bounds-checked load, no
	// hashing. Objects beyond flatMaxPages use sparse instead; exactly
	// one of flat/sparse is non-nil.
	flat      []*mem.Page
	sparse    map[int64]*mem.Page
	nres      int
	pageShift uint8

	sys *System
	// Policy optionally overrides the system default for every region
	// mapping this object (HiPEC mounts a container here, mirroring the
	// paper's container-under-VM-object design).
	Policy Policy
	// ExternalPager, when set, replaces the kernel's default store/disk
	// backing for this object (the Mach external pager of §2/§4).
	ExternalPager Pager
	// RetryBudget, when positive, overrides System.Retry.Budget for faults
	// on this object (the WithRetryBudget allocation option).
	RetryBudget int
}

// Resident returns the resident page at offset, or nil.
//
//hipec:hotpath
func (o *Object) Resident(off int64) *mem.Page {
	if o.flat != nil {
		if i := uint64(off) >> o.pageShift; i < uint64(len(o.flat)) {
			return o.flat[i]
		}
		return nil
	}
	//hipec:vet-ignore mapinloop -- sparse fallback for objects past the flat-table limit (and the package tests' forceSparse runs); the flat path above is the hot one
	return o.sparse[off]
}

// setResident installs p as the resident page at off.
//
//hipec:hotpath
func (o *Object) setResident(off int64, p *mem.Page) {
	if o.flat != nil {
		if prev := o.flat[uint64(off)>>o.pageShift]; prev == nil {
			o.nres++
		}
		o.flat[uint64(off)>>o.pageShift] = p
	} else {
		//hipec:vet-ignore mapinloop -- sparse fallback branch; flat-table objects take the branch above
		if _, had := o.sparse[off]; !had {
			o.nres++
		}
		//hipec:vet-ignore mapinloop -- sparse fallback branch; flat-table objects take the branch above
		o.sparse[off] = p
	}
}

// clearResident removes the resident page at off.
//
//hipec:hotpath
func (o *Object) clearResident(off int64) {
	if o.flat != nil {
		if o.flat[uint64(off)>>o.pageShift] != nil {
			o.nres--
		}
		o.flat[uint64(off)>>o.pageShift] = nil
	} else {
		//hipec:vet-ignore mapinloop -- sparse fallback branch; flat-table objects take the branch above
		if _, had := o.sparse[off]; had {
			o.nres--
		}
		delete(o.sparse, off)
	}
}

// ResidentCount reports the number of resident pages.
func (o *Object) ResidentCount() int { return o.nres }

// EachResident calls fn for every resident (offset, page) pair; fn
// returning false stops the walk. Flat objects walk in ascending offset
// order; sparse objects walk in map order. Callers must not rely on
// either — the order is unspecified, as it was when every object was
// map-backed.
func (o *Object) EachResident(fn func(off int64, p *mem.Page) bool) {
	if o.flat != nil {
		for i, p := range o.flat {
			if p != nil && !fn(int64(i)<<o.pageShift, p) {
				return
			}
		}
		return
	}
	for off, p := range o.sparse {
		if !fn(off, p) {
			return
		}
	}
}

// MapEntry is one contiguous mapped region of an address space.
type MapEntry struct {
	Start, End int64 // [Start, End) virtual byte range
	Object     *Object
	ObjOffset  int64 // offset into Object corresponding to Start
	Wired      bool  // pages faulted through this entry are wired
}

// Contains reports whether addr falls inside the entry.
func (e *MapEntry) Contains(addr int64) bool { return addr >= e.Start && addr < e.End }

// Size returns the byte length of the region.
func (e *MapEntry) Size() int64 { return e.End - e.Start }

// AddressSpace is a task's virtual address space (Mach vm_map).
type AddressSpace struct {
	ID      int
	sys     *System
	entries []*MapEntry // sorted by Start, non-overlapping
	nextVA  int64       // simple bump allocator for vm_allocate
	// hot is a one-entry translation cache (a software TLB): the entry the
	// last access resolved to. Accesses have strong region locality, so
	// the common case skips the binary search. Invalidated on Unmap.
	hot *MapEntry
}

// Stats reports the space's VM activity, derived from the event spine.
func (sp *AddressSpace) Stats() Stats {
	return statsFromScope(sp.sys.Events.Registry().Space(sp.ID))
}

// System owns physical memory, the paging device, all objects and spaces.
type System struct {
	Clock  substrate.Clock
	Frames *mem.FrameTable
	Disk   *disk.Disk
	Store  substrate.Store
	Costs  Costs
	// Events is the kernel event spine; every layer of the simulated
	// kernel (fault path, pageout daemon, disk, HiPEC core) emits through
	// it, and its Registry is the single source of truth for counters.
	Events *kevent.Emitter
	// Retry bounds the fault path's page-in retries (see Retry).
	Retry Retry
	// OnFaultFailure, when set, is called after a fault exhausts its retry
	// budget, with the object and the final error. Returning true means the
	// hook degraded the region (e.g. revoked its HiPEC container) and the
	// fault should be replayed once under the replacement policy; package
	// core installs the kernel's revocation hook here.
	OnFaultFailure func(o *Object, cause error) bool

	// forceSparse is a test hook, set only by this package's tests: every
	// subsequently created object uses the sparse (map-backed) page table
	// regardless of size, and address spaces skip the one-entry hot-entry
	// cache and binary-search the map list on every access. It is the
	// reference side of the flat-vs-sparse differential fuzz, which proves
	// the two tables differ only in speed.
	forceSparse bool

	defaultPolicy Policy
	// objects is indexed by object ID. IDs are never reused (the slot of a
	// destroyed object stays nil forever), so the monotonically increasing
	// ID doubles as its generation: a stale ID can only ever resolve to
	// nil, never to a recycled object.
	objects      []*Object
	nextSpaceID  int
	nextDiskBase int64

	pageShift uint8
	pageMask  int64 // PageSize-1

	// faultScratch pools Fault records so the fault path does not allocate
	// per fault. Depth exceeds 1 only on the degrade-replay recursion;
	// deeper nesting (a pathological policy) falls back to the heap.
	faultScratch [4]Fault
	faultDepth   int
}

// takeFault returns a zeroed Fault record, pooled up to the scratch depth.
func (s *System) takeFault() *Fault {
	if s.faultDepth < len(s.faultScratch) {
		f := &s.faultScratch[s.faultDepth]
		s.faultDepth++
		return f
	}
	s.faultDepth++
	return &Fault{}
}

// putFault releases the most recently taken Fault record, clearing the
// pooled slot so it does not pin the space/entry/object it referenced.
func (s *System) putFault() {
	s.faultDepth--
	if s.faultDepth < len(s.faultScratch) {
		s.faultScratch[s.faultDepth] = Fault{}
	}
}

// Stats reports machine-wide VM activity, derived from the event spine.
func (s *System) Stats() Stats {
	return statsFromScope(s.Events.Registry().Global())
}

// Config configures a System.
type Config struct {
	Frames   int  // number of physical page frames
	PageSize int  // bytes per page
	KeepData bool // allocate and track page contents
	Costs    Costs
	Disk     disk.Params
	// Retry bounds page-in retries; the zero value takes DefaultRetry.
	Retry Retry
	// Inject, when non-nil, attaches the fault-injection plane to the
	// paging device (pager-side injection is configured on the pagers).
	Inject *faultinj.Plane
	// Store overrides the backing store (nil = the in-memory MemStore).
	// The realtime substrate passes a file-backed store here.
	Store substrate.Store
	// PayloadArena backs every frame with a real page-sized payload cut
	// from one contiguous arena (implies KeepData). The realtime substrate
	// sets it so cached pages hold actual bytes.
	PayloadArena bool

	// RawCosts keeps zero Costs and Disk values as-is instead of
	// substituting the calibrated 1994 defaults. The realtime substrate
	// sets it: real time is measured by the clock, not modeled by charges,
	// so page-ins and write-backs cost what the store's I/O costs.
	RawCosts bool
}

// NewSystem builds the VM substrate on the given clock.
func NewSystem(clock substrate.Clock, cfg Config) *System {
	if clock.IsZero() {
		panic("vm: zero substrate clock")
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	if cfg.PageSize&(cfg.PageSize-1) != 0 {
		panic(fmt.Sprintf("vm: page size %d is not a power of two", cfg.PageSize))
	}
	if cfg.Frames <= 0 {
		panic("vm: config needs a positive frame count")
	}
	if cfg.Costs == (Costs{}) && !cfg.RawCosts {
		cfg.Costs = DefaultCosts()
	}
	if cfg.Disk == (disk.Params{}) && !cfg.RawCosts {
		cfg.Disk = disk.DefaultParams()
	}
	if cfg.Retry == (Retry{}) {
		cfg.Retry = DefaultRetry()
	}
	events := kevent.NewEmitter(clock)
	d := disk.New(clock, cfg.Disk, events)
	d.SetInjector(cfg.Inject)
	frames := mem.NewFrameTable(cfg.Frames, cfg.PageSize, cfg.KeepData)
	if cfg.PayloadArena {
		frames = mem.NewFrameTableArena(cfg.Frames, cfg.PageSize)
	}
	store := cfg.Store
	if store == nil {
		store = disk.NewStore(cfg.PageSize, cfg.KeepData)
	}
	return &System{
		Clock:  clock,
		Frames: frames,
		Disk:   d,
		Store:  store,
		Costs:  cfg.Costs,
		Events: events,
		Retry:  cfg.Retry,
		// Slot 0 is a permanent nil: object IDs start at 1.
		objects:   make([]*Object, 1, 64),
		pageShift: uint8(bits.TrailingZeros64(uint64(cfg.PageSize))),
		pageMask:  int64(cfg.PageSize) - 1,
	}
}

// PageSize returns the system page size.
func (s *System) PageSize() int { return s.Frames.PageSize() }

// SetDefaultPolicy installs the replacement policy used for regions without
// a specific one (the Mach pageout daemon in this reproduction). It must be
// called before the first fault on a default region.
func (s *System) SetDefaultPolicy(p Policy) { s.defaultPolicy = p }

// DefaultPolicy returns the installed default policy.
func (s *System) DefaultPolicy() Policy { return s.defaultPolicy }

// NewObject creates a VM object of size bytes (rounded up to whole pages).
// zeroFill objects page in as zeroes; otherwise the object is backed by the
// paging store at a fresh disk extent.
func (s *System) NewObject(size int64, zeroFill bool) *Object {
	if size <= 0 {
		panic(fmt.Sprintf("vm: object size %d", size))
	}
	ps := int64(s.PageSize())
	size = (size + ps - 1) / ps * ps
	o := &Object{
		ID:        uint64(len(s.objects)),
		Size:      size,
		ZeroFill:  zeroFill,
		DiskBase:  s.nextDiskBase,
		pageShift: s.pageShift,
		sys:       s,
	}
	if pages := size / ps; pages > flatMaxPages || s.forceSparse {
		o.sparse = make(map[int64]*mem.Page)
	} else {
		o.flat = make([]*mem.Page, pages)
	}
	s.nextDiskBase += size / ps
	s.objects = append(s.objects, o)
	return o
}

// Object looks up an object by ID; destroyed or never-issued IDs return
// nil. IDs index the object table directly (they are assigned densely and
// never reused), so the lookup is a bounds-checked load.
func (s *System) Object(id uint64) *Object {
	if id < uint64(len(s.objects)) {
		return s.objects[id]
	}
	return nil
}

// NewSpace creates an empty address space.
func (s *System) NewSpace() *AddressSpace {
	s.nextSpaceID++
	return &AddressSpace{ID: s.nextSpaceID, sys: s, nextVA: int64(s.PageSize())}
}

// Map maps object o at the lowest free address of the space and returns the
// entry. This corresponds to vm_map() (file mapping) when o is store-backed
// and vm_allocate() when o is zero-fill.
func (sp *AddressSpace) Map(o *Object, objOffset, length int64) (*MapEntry, error) {
	ps := int64(sp.sys.PageSize())
	if objOffset%ps != 0 || length <= 0 {
		return nil, fmt.Errorf("%w: off=%d len=%d", ErrBadMap, objOffset, length)
	}
	length = (length + ps - 1) / ps * ps
	if objOffset+length > o.Size {
		return nil, fmt.Errorf("%w: [%d,%d) exceeds object size %d", ErrBadMap, objOffset, objOffset+length, o.Size)
	}
	start := sp.nextVA
	sp.nextVA += length + ps // one-page guard gap between regions
	e := &MapEntry{Start: start, End: start + length, Object: o, ObjOffset: objOffset}
	sp.entries = append(sp.entries, e)
	sort.Slice(sp.entries, func(i, j int) bool { return sp.entries[i].Start < sp.entries[j].Start })
	return e, nil
}

// Allocate is vm_allocate(): create and map fresh zero-fill memory.
func (sp *AddressSpace) Allocate(length int64) (*MapEntry, error) {
	o := sp.sys.NewObject(length, true)
	return sp.Map(o, 0, length)
}

// Unmap removes a map entry from the space (vm_deallocate of the range).
// The backing object and its resident pages are untouched; callers that
// want the memory back destroy the object (or its container) separately.
func (sp *AddressSpace) Unmap(e *MapEntry) error {
	for i, cand := range sp.entries {
		if cand == e {
			sp.entries = append(sp.entries[:i], sp.entries[i+1:]...)
			if sp.hot == e {
				sp.hot = nil
			}
			return nil
		}
	}
	return fmt.Errorf("%w: entry [%#x,%#x) not in this space", ErrBadAddress, e.Start, e.End)
}

// Lookup finds the entry containing addr.
func (sp *AddressSpace) Lookup(addr int64) (*MapEntry, bool) {
	i := sort.Search(len(sp.entries), func(i int) bool { return sp.entries[i].End > addr })
	if i < len(sp.entries) && sp.entries[i].Contains(addr) {
		return sp.entries[i], true
	}
	return nil, false
}

// Entries returns the space's map entries (do not mutate).
func (sp *AddressSpace) Entries() []*MapEntry { return sp.entries }

// Touch performs a read access at addr. Write performs a write access.
// Both return the page (resident afterwards) or an error.
func (sp *AddressSpace) Touch(addr int64) (*mem.Page, error) { return sp.access(addr, false) }

// Write performs a write access at addr.
func (sp *AddressSpace) Write(addr int64) (*mem.Page, error) { return sp.access(addr, true) }

// access is the core of the fault state machine. Each outcome — hit, bad
// address, fault (plus its page-in or zero-fill resolution) — is a single
// event emission on the spine; the access count is derived, never
// separately tracked.
//
//hipec:hotpath
func (sp *AddressSpace) access(addr int64, write bool) (*mem.Page, error) {
	s := sp.sys
	e := sp.hot
	if e == nil || !e.Contains(addr) {
		var ok bool
		e, ok = sp.Lookup(addr)
		if !ok {
			s.Events.Emit(kevent.Event{Type: kevent.EvBadAddress, Space: int32(sp.ID), Addr: addr})
			return nil, fmt.Errorf("%w: %#x", ErrBadAddress, addr)
		}
		if !s.forceSparse {
			sp.hot = e
		}
	}
	off := e.ObjOffset + ((addr - e.Start) &^ s.pageMask)
	if p := e.Object.Resident(off); p != nil {
		// Resident: hardware sets reference (and modify) bits.
		p.Referenced = true
		if write {
			p.Modified = true
		}
		p.LastAccess = s.Clock.Now()
		if q := p.Queue(); q != nil && q.AccessOrder {
			q.MoveToTail(p)
		}
		if s.Costs.MemAccess > 0 {
			s.Clock.Sleep(s.Costs.MemAccess)
		}
		s.Events.Emit(kevent.Event{Type: kevent.EvHit, Space: int32(sp.ID), Addr: addr, Flag: write})
		return p, nil
	}
	return sp.fault(e, off, addr, write)
}

//hipec:hotpath
func (sp *AddressSpace) fault(e *MapEntry, off, addr int64, write bool) (*mem.Page, error) {
	s := sp.sys
	s.Events.Emit(kevent.Event{Type: kevent.EvFault, Space: int32(sp.ID), Addr: addr, Flag: write})
	s.Clock.Sleep(s.Costs.FaultService)
	if s.Costs.RegionCheck > 0 {
		// HiPEC-enabled kernels check whether the fault lies in a
		// specific region (§5.2); charged on every fault.
		s.Clock.Sleep(s.Costs.RegionCheck)
	}
	policy := e.Object.Policy
	if policy == nil {
		policy = s.defaultPolicy
	}
	if policy == nil {
		return nil, ErrNoPolicy
	}
	f := s.takeFault()
	defer s.putFault()
	*f = Fault{Space: sp, Entry: e, Object: e.Object, Offset: off, Addr: addr, Write: write}
	p, err := policy.PageFor(f)
	if err != nil {
		return nil, &hiperr.Error{Op: "vm.fault", Space: sp.ID, Err: fmt.Errorf("at %#x: %w", addr, err)}
	}
	if p == nil {
		err := fmt.Errorf("at %#x: policy %q returned no page: %w", addr, policy.Name(), hiperr.ErrPolicyFault)
		return nil, &hiperr.Error{Op: "vm.fault", Space: sp.ID, Err: err}
	}
	if p.Queue() != nil {
		panic(fmt.Sprintf("vm: policy %q returned %v still on a queue", policy.Name(), p))
	}
	// Install the frame.
	p.Object = e.Object.ID
	p.Offset = off
	p.Referenced = true
	p.Modified = write
	p.Wired = e.Wired
	p.LastAccess = s.Clock.Now()
	if err := sp.pageIn(e, off, addr, p); err != nil {
		// The fault failed permanently (retry budget exhausted). The frame
		// never became resident: clear its identity and hand it back to
		// the policy's grant accounting (FaultAborter) or the machine
		// free pool.
		p.Object, p.Offset = 0, 0
		p.Referenced, p.Modified, p.Wired = false, false, false
		if ab, ok := policy.(FaultAborter); ok {
			ab.FaultAborted(f, p)
		} else {
			s.Frames.Free(p)
		}
		s.Events.Emit(kevent.Event{Type: kevent.EvFaultAbandon, Space: int32(sp.ID), Addr: addr})
		if s.OnFaultFailure != nil && s.OnFaultFailure(e.Object, err) {
			// The kernel degraded the region (revoked its policy);
			// replay the fault once under the replacement policy. The
			// replay cannot recurse: after revocation the object's
			// policy is the default one, whose next failure returns
			// false from the hook.
			return sp.fault(e, off, addr, write)
		}
		return nil, err
	}
	e.Object.setResident(off, p)
	policy.Installed(f, p)
	return p, nil
}

// pageIn fills p with the contents for (object, off) — from the external
// pager, the backing store, or by zero fill — retrying transient failures
// with doubling virtual-time backoff within the object's retry budget.
func (sp *AddressSpace) pageIn(e *MapEntry, off, addr int64, p *mem.Page) error {
	s := sp.sys
	budget := e.Object.RetryBudget
	if budget <= 0 {
		budget = s.Retry.Budget
	}
	if budget <= 0 {
		budget = 1
	}
	backoff := s.Retry.Backoff
	for attempt := 1; ; attempt++ {
		err := sp.pageInOnce(e, off, addr, p)
		if err == nil {
			return nil
		}
		if attempt >= budget {
			return err
		}
		s.Events.Emit(kevent.Event{Type: kevent.EvFaultRetry, Space: int32(sp.ID), Addr: addr, Arg: int64(attempt), Aux: int64(backoff)})
		if backoff > 0 {
			s.Clock.Sleep(backoff)
			backoff *= 2
		}
	}
}

// pageInOnce is one page-in attempt: exactly the paper-era fill path, plus
// typed errors on the newly fallible disk and pager edges.
func (sp *AddressSpace) pageInOnce(e *MapEntry, off, addr int64, p *mem.Page) error {
	s := sp.sys
	if pg := e.Object.ExternalPager; pg != nil {
		// Memory-object data comes from the external pager (EMM).
		present, perr := pg.DataRequest(e.Object.ID, off, p.Data)
		if perr != nil {
			return &hiperr.Error{Op: "vm.pagein", Space: sp.ID,
				Err: fmt.Errorf("external pager %q: %w", pg.PagerName(), perr)}
		}
		if present {
			s.Events.Emit(kevent.Event{Type: kevent.EvPageIn, Space: int32(sp.ID), Addr: addr, Arg: int64(e.Object.ID), Aux: off})
		} else {
			clear(p.Data) // a recycled frame still holds its last owner's bytes
			s.Events.Emit(kevent.Event{Type: kevent.EvZeroFill, Space: int32(sp.ID), Addr: addr, Arg: int64(e.Object.ID), Aux: off})
		}
		return nil
	}
	// A page present in the backing store must be read back even for
	// zero-fill objects: it was either populated (mapped file) or
	// paged out earlier (anonymous memory gone to swap). Zero-fill
	// only applies to never-written pages.
	key := disk.StoreKey{Object: e.Object.ID, Offset: off}
	if s.Store.Contains(key) {
		// Page-in from backing store: synchronous disk read.
		if _, derr := s.Disk.Read(s.diskAddr(e.Object, off), s.PageSize()); derr != nil {
			return &hiperr.Error{Op: "vm.pagein", Space: sp.ID, Err: fmt.Errorf("at %#x: %w", addr, derr)}
		}
		// A real store (file-backed) can fail the transfer itself; feed the
		// error into the same retry ladder as a modeled device error.
		data, _, serr := s.Store.ReadPage(key)
		if serr != nil {
			return &hiperr.Error{Op: "vm.pagein", Space: sp.ID, Err: fmt.Errorf("at %#x: %w", addr, serr)}
		}
		if data != nil && p.Data != nil {
			copy(p.Data, data)
		}
		s.Events.Emit(kevent.Event{Type: kevent.EvPageIn, Space: int32(sp.ID), Addr: addr, Arg: int64(e.Object.ID), Aux: off})
	} else {
		clear(p.Data)
		s.Events.Emit(kevent.Event{Type: kevent.EvZeroFill, Space: int32(sp.ID), Addr: addr, Arg: int64(e.Object.ID), Aux: off})
	}
	return nil
}

// Detach removes a resident page from its object without freeing the frame;
// the caller (a replacement policy evicting the page) takes ownership. If
// the page is dirty the caller is responsible for writing it back (PageOut).
func (s *System) Detach(p *mem.Page) {
	o := s.Object(p.Object)
	if o == nil || o.Resident(p.Offset) != p {
		panic(fmt.Sprintf("vm: Detach of non-resident %v", p))
	}
	o.clearResident(p.Offset)
	s.Events.Emit(kevent.Event{Type: kevent.EvEviction, Arg: int64(p.Object), Aux: p.Offset})
}

// diskAddr maps an object page to its backing-store block. Blocks are
// deliberately scattered (a multiplicative hash of the logical block):
// the Mach default pager allocates paging-file blocks on demand, so
// successive virtual pages do NOT sit on consecutive disk blocks and every
// page-in pays a full seek — which is what calibrates the paper's
// ~7.66 ms/page figure (Table 3).
func (s *System) diskAddr(o *Object, off int64) int64 {
	base := int64(0)
	if o != nil {
		base = o.DiskBase
	}
	block := uint64(base + off/int64(s.PageSize()))
	return int64((block * 0x9E3779B97F4A7C15) >> 20)
}

// PageOut writes the page's contents to the backing store asynchronously
// and clears its Modified bit. done may be nil. Pages of externally-paged
// objects are returned to their pager (memory_object_data_return) instead;
// a pager write-back failure keeps the page dirty (its contents are the only
// copy) and returns an error — the caller decides whether to keep the page
// resident or retry. The kernel store path has the same contract: on the
// simulation substrate the in-memory store write cannot fail (the disk
// write models timing only), while a realtime store's genuine I/O failure
// (ENOSPC, EIO) keeps the page dirty and surfaces as a typed error.
func (s *System) PageOut(p *mem.Page, done func(simtime.Time)) error {
	o := s.Object(p.Object)
	s.Events.Emit(kevent.Event{Type: kevent.EvPageOut, Arg: int64(p.Object), Aux: p.Offset})
	if o != nil && o.ExternalPager != nil {
		if err := o.ExternalPager.DataReturn(o.ID, p.Offset, p.Data); err != nil {
			s.Events.Emit(kevent.Event{Type: kevent.EvPageOutError, Arg: int64(p.Object), Aux: p.Offset})
			return &hiperr.Error{Op: "vm.pageout",
				Err: fmt.Errorf("external pager %q: %w", o.ExternalPager.PagerName(), err)}
		}
		p.Modified = false
		if done != nil {
			s.Clock.After(0, done)
		}
		return nil
	}
	key := disk.StoreKey{Object: p.Object, Offset: p.Offset}
	if err := s.Store.WritePage(key, p.Data); err != nil {
		s.Events.Emit(kevent.Event{Type: kevent.EvPageOutError, Arg: int64(p.Object), Aux: p.Offset})
		return &hiperr.Error{Op: "vm.pageout", Err: err}
	}
	s.Disk.Write(s.diskAddr(o, p.Offset), s.PageSize(), done)
	p.Modified = false
	return nil
}

// PageOutSync writes the page synchronously (clock advances by the service
// time). Used by policies that must wait for the write. Error semantics
// match PageOut.
func (s *System) PageOutSync(p *mem.Page) error {
	o := s.Object(p.Object)
	s.Events.Emit(kevent.Event{Type: kevent.EvPageOut, Arg: int64(p.Object), Aux: p.Offset, Flag: true})
	if o != nil && o.ExternalPager != nil {
		if err := o.ExternalPager.DataReturn(o.ID, p.Offset, p.Data); err != nil {
			s.Events.Emit(kevent.Event{Type: kevent.EvPageOutError, Arg: int64(p.Object), Aux: p.Offset})
			return &hiperr.Error{Op: "vm.pageout",
				Err: fmt.Errorf("external pager %q: %w", o.ExternalPager.PagerName(), err)}
		}
		p.Modified = false
		return nil
	}
	key := disk.StoreKey{Object: p.Object, Offset: p.Offset}
	if err := s.Store.WritePage(key, p.Data); err != nil {
		s.Events.Emit(kevent.Event{Type: kevent.EvPageOutError, Arg: int64(p.Object), Aux: p.Offset})
		return &hiperr.Error{Op: "vm.pageout", Err: err}
	}
	// Model as a read-shaped synchronous access (same service time). The
	// store write above already made the contents durable, so an injected
	// read error here would not lose data; the timing model ignores it.
	s.Disk.Read(s.diskAddr(o, p.Offset), s.PageSize()) //nolint:errcheck // timing-only access, data already durable in store
	p.Modified = false
	return nil
}

// Populate writes initial content pages for an object into the backing
// store so that subsequent faults page in from disk (a "memory-mapped data
// file"). With nil data only presence is recorded. On a store write error
// (realtime substrate) population stops at the failing page and the typed
// error is returned; pages already written stay present.
func (s *System) Populate(o *Object, data []byte) error {
	ps := int64(s.PageSize())
	for off := int64(0); off < o.Size; off += ps {
		var chunk []byte
		if data != nil {
			lo := off
			if lo >= int64(len(data)) {
				chunk = nil
			} else {
				hi := lo + ps
				if hi > int64(len(data)) {
					hi = int64(len(data))
				}
				chunk = data[lo:hi]
			}
		}
		if err := s.Store.WritePage(disk.StoreKey{Object: o.ID, Offset: off}, chunk); err != nil {
			return &hiperr.Error{Op: "vm.populate", Err: err}
		}
	}
	return nil
}

// WireRange faults in and wires every page of the entry, making the range
// ineligible for replacement (vm_wire). It returns the number of pages
// wired.
func (sp *AddressSpace) WireRange(e *MapEntry) (int, error) {
	e.Wired = true
	ps := int64(sp.sys.PageSize())
	n := 0
	for addr := e.Start; addr < e.End; addr += ps {
		p, err := sp.Touch(addr)
		if err != nil {
			return n, err
		}
		p.Wired = true
		n++
	}
	return n, nil
}

// DestroyObject detaches and frees every resident page of o (notifying the
// responsible policy via Release) and removes the object. Map entries
// referring to it become invalid; destroying an object that is still
// mapped by live workloads is a caller bug.
func (s *System) DestroyObject(o *Object) {
	policy := o.Policy
	if policy == nil {
		policy = s.defaultPolicy
	}
	o.EachResident(func(_ int64, p *mem.Page) bool {
		if policy != nil {
			policy.Release(p)
		}
		if p.Queue() != nil {
			p.Queue().Remove(p)
		}
		s.Frames.Free(p)
		return true
	})
	o.flat, o.sparse, o.nres = nil, nil, 0
	if o.ExternalPager != nil {
		o.ExternalPager.PagerTerminate(o.ID)
	}
	// The slot is retired, never reused: stale IDs resolve to nil.
	s.objects[o.ID] = nil
}
