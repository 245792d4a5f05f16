package core

import (
	"fmt"
	"slices"

	"hipec/internal/hiperr"
	"hipec/internal/vm"
)

// This file is the kernel half of the transport-agnostic client seam: a
// typed command surface — open a region, read/write/touch pages by index,
// fetch stats — that can be carried verbatim over a wire protocol. The same
// operations back two fronts:
//
//   - *Loop's typed methods (the in-process client): each method is one
//     Call onto the engine goroutine.
//   - The network server (internal/server): decodes N frames from a
//     connection and applies all N operations in ONE Call, amortizing the
//     mailbox crossing the way the executor amortizes clock charges across
//     an event boundary.
//
// Regions are addressed by opaque RegionID handles and pages by index
// within the region, so the surface never leaks kernel pointers — exactly
// what lets it serialize.

// RegionID names one cache region within a client session. Handles are
// session-scoped: two sessions (two connections) may hold the same numeric
// ID for different regions.
type RegionID uint32

// CacheStats is the machine-wide counter snapshot of the client surface:
// the VM view plus the backing store's resident page count.
type CacheStats struct {
	Accesses  int64
	Hits      int64
	Faults    int64
	PageIns   int64
	ZeroFills int64
	PageOuts  int64
	Evictions int64
	// StorePages is the number of pages currently held by the backing
	// store (the paging file's population).
	StorePages int64
}

// RegionOption configures a region opened through the client surface.
type RegionOption func(*RegionOptions)

// RegionOptions is the resolved form of a RegionOption list. It is exported
// so transports can serialize the options a caller asked for (the network
// client ships Name/Source over the wire); most callers never touch it.
type RegionOptions struct {
	Spec   *Spec
	Name   string
	Source string
	Retry  int
}

// ResolveRegionOptions folds an option list into its resolved form.
func ResolveRegionOptions(opts []RegionOption) RegionOptions {
	var o RegionOptions
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithPolicySpec places the region under an already-translated HiPEC
// policy. In-process only: a *Spec does not serialize, so the network
// client rejects it — remote callers use WithPolicySource.
func WithPolicySpec(spec *Spec) RegionOption {
	return func(o *RegionOptions) { o.Spec = spec }
}

// WithPolicySource places the region under the HiPEC policy whose HPL
// source is given. Translation happens where the kernel lives (server-side
// for remote clients), through the translator registered by the hpl
// package; the usual registration-time static verification applies.
func WithPolicySource(name, source string) RegionOption {
	return func(o *RegionOptions) { o.Name, o.Source = name, source }
}

// WithRegionRetryBudget overrides the fault path's page-in retry budget for
// the region (see WithRetryBudget), capped at 8 attempts. n <= 0 is
// ignored.
func WithRegionRetryBudget(n int) RegionOption {
	return func(o *RegionOptions) { o.Retry = n }
}

// policyTranslator turns HPL source into a Spec. It lives behind a
// registration hook because the hpl package imports core: the hpl package
// registers its Translate at init, so any program that links the translator
// (anything importing hipec or internal/hpl) can open regions from source.
var policyTranslator func(name, source string) (*Spec, error)

// RegisterPolicyTranslator installs the HPL source translator used by
// WithPolicySource. Called from the hpl package's init.
func RegisterPolicyTranslator(fn func(name, source string) (*Spec, error)) {
	policyTranslator = fn
}

// maxRegionRetry caps the page-in retry budget a client may ask for. The
// budget is the caller's to ask for but the loop's to spend: every retry
// sleeps a doubling real-time backoff on the one goroutine all clients
// share, and at the default 500 µs backoff eight attempts hold the loop for
// at most ~64 ms per failing fault. Both transports reach it through Open.
const maxRegionRetry = 8

func badRequest(op, format string, args ...any) error {
	args = append(args, hiperr.ErrBadRequest)
	return &hiperr.Error{Op: op, Err: fmt.Errorf(format+": %w", args...)}
}

// cacheRegion is one open region: its own address space (so page indexes
// are dense and regions are isolated), the mapping, and the container when
// the region is policy-managed.
type cacheRegion struct {
	space     *vm.AddressSpace
	entry     *vm.MapEntry
	container *Container
}

// CacheSession is one client's region table. All methods must run on the
// kernel's owning goroutine (inside a Loop Call/Async closure); the session
// itself adds no locking — it inherits the single-writer discipline of the
// kernel it drives.
type CacheSession struct {
	nextID  RegionID
	regions map[RegionID]*cacheRegion
}

// NewCacheSession creates an empty region table.
func NewCacheSession() *CacheSession {
	return &CacheSession{regions: make(map[RegionID]*cacheRegion)}
}

// Regions reports the number of open regions.
func (s *CacheSession) Regions() int { return len(s.regions) }

// Open allocates a region of pages pages in a fresh address space,
// optionally under a HiPEC policy, and returns its handle.
func (s *CacheSession) Open(k *Kernel, pages int, opts ...RegionOption) (RegionID, error) {
	o := ResolveRegionOptions(opts)
	if pages <= 0 {
		return 0, badRequest("client.open", "non-positive region size %d pages", pages)
	}
	spec := o.Spec
	if o.Source != "" {
		if spec != nil {
			return 0, badRequest("client.open", "both WithPolicySpec and WithPolicySource given")
		}
		if policyTranslator == nil {
			return 0, badRequest("client.open", "policy source given but no translator registered (import hipec or internal/hpl)")
		}
		tr, err := policyTranslator(o.Name, o.Source)
		if err != nil {
			return 0, &hiperr.Error{Op: "client.open",
				Err: fmt.Errorf("translating policy %q: %v: %w", o.Name, err, hiperr.ErrBadSpec)}
		}
		spec = tr
	}
	var allocOpts []AllocOption
	if spec != nil {
		allocOpts = append(allocOpts, WithPolicy(spec))
	}
	if o.Retry > 0 {
		allocOpts = append(allocOpts, WithRetryBudget(min(o.Retry, maxRegionRetry)))
	}
	sp := k.NewSpace()
	e, c, err := k.Allocate(sp, int64(pages)*int64(k.VM.PageSize()), allocOpts...)
	if err != nil {
		return 0, err
	}
	s.nextID++
	s.regions[s.nextID] = &cacheRegion{space: sp, entry: e, container: c}
	return s.nextID, nil
}

// region resolves a handle.
func (s *CacheSession) region(op string, r RegionID) (*cacheRegion, error) {
	reg, ok := s.regions[r]
	if !ok {
		return nil, badRequest(op, "unknown region %d", r)
	}
	return reg, nil
}

// pageAddr bounds-checks a page index and returns its virtual address.
func (s *CacheSession) pageAddr(op string, k *Kernel, reg *cacheRegion, page int) (int64, error) {
	ps := int64(k.VM.PageSize())
	if page < 0 || int64(page)*ps >= reg.entry.Size() {
		return 0, badRequest(op, "page %d out of range (region is %d pages)",
			page, reg.entry.Size()/ps)
	}
	return reg.entry.Start + int64(page)*ps, nil
}

// Write write-faults one page and copies data (length <= page size) to its
// head. The remainder of the page keeps its prior content. On a kernel
// running data-free (the simulation's default), the fault still happens —
// residency and policy state advance — but the payload is discarded.
func (s *CacheSession) Write(k *Kernel, r RegionID, page int, data []byte) error {
	reg, err := s.region("client.write", r)
	if err != nil {
		return err
	}
	if len(data) > k.VM.PageSize() {
		return badRequest("client.write", "payload %d bytes exceeds page size %d",
			len(data), k.VM.PageSize())
	}
	addr, err := s.pageAddr("client.write", k, reg, page)
	if err != nil {
		return err
	}
	p, err := reg.space.Write(addr)
	if err != nil {
		return err
	}
	copy(p.Data, data)
	return nil
}

// Read touch-faults one page and copies up to len(buf) payload bytes into
// buf, returning the count (0 on a data-free kernel).
func (s *CacheSession) Read(k *Kernel, r RegionID, page int, buf []byte) (int, error) {
	reg, err := s.region("client.read", r)
	if err != nil {
		return 0, err
	}
	addr, err := s.pageAddr("client.read", k, reg, page)
	if err != nil {
		return 0, err
	}
	p, err := reg.space.Touch(addr)
	if err != nil {
		return 0, err
	}
	return copy(buf, p.Data), nil
}

// Touch read-faults one page without copying any payload.
func (s *CacheSession) Touch(k *Kernel, r RegionID, page int) error {
	reg, err := s.region("client.touch", r)
	if err != nil {
		return err
	}
	addr, err := s.pageAddr("client.touch", k, reg, page)
	if err != nil {
		return err
	}
	_, err = reg.space.Touch(addr)
	return err
}

// Free releases a region: the mapping is removed and the backing object
// (and its container, when policy-managed) is destroyed.
func (s *CacheSession) Free(k *Kernel, r RegionID) error {
	reg, err := s.region("client.free", r)
	if err != nil {
		return err
	}
	delete(s.regions, r)
	s.release(k, reg)
	return nil
}

// FreeAll releases every open region (connection teardown).
func (s *CacheSession) FreeAll(k *Kernel) {
	for id, reg := range s.regions {
		delete(s.regions, id)
		s.release(k, reg)
	}
}

func (s *CacheSession) release(k *Kernel, reg *cacheRegion) {
	_ = reg.space.Unmap(reg.entry)
	if c := reg.container; c != nil {
		k.DestroyContainer(c)
		// A daemon opens and frees regions for as long as it runs, so the
		// corpse (19 KB of operand slots) must not stay in the kernel's
		// inspection list the way a sim run's destroyed containers do.
		if i := slices.Index(k.containers, c); i >= 0 {
			k.containers = slices.Delete(k.containers, i, i+1)
		}
		return
	}
	if obj := k.VM.Object(reg.entry.Object.ID); obj != nil {
		k.VM.DestroyObject(obj)
	}
}

// Stats snapshots the machine-wide client-surface counters.
func (s *CacheSession) Stats(k *Kernel) CacheStats {
	vs := k.VM.Stats()
	return CacheStats{
		Accesses:   vs.Accesses,
		Hits:       vs.Hits,
		Faults:     vs.Faults,
		PageIns:    vs.PageIns,
		ZeroFills:  vs.ZeroFills,
		PageOuts:   vs.PageOuts,
		Evictions:  vs.Evictions,
		StorePages: int64(k.VM.Store.Len()),
	}
}

// ---- The in-process client: *Loop satisfies the hipec.Client seam. ----

// Open allocates a region of pages pages and returns its handle. One Call.
func (l *Loop) Open(pages int, opts ...RegionOption) (RegionID, error) {
	var r RegionID
	err := l.Call(func(k *Kernel) error {
		var err error
		r, err = l.sess.Open(k, pages, opts...)
		return err
	})
	return r, err
}

// WritePage write-faults page page of region r and stores data (length <=
// PageSize) at its head.
func (l *Loop) WritePage(r RegionID, page int, data []byte) error {
	return l.Call(func(k *Kernel) error { return l.sess.Write(k, r, page, data) })
}

// ReadPage touch-faults page page of region r and copies up to len(buf)
// payload bytes into buf, returning the count.
func (l *Loop) ReadPage(r RegionID, page int, buf []byte) (int, error) {
	var n int
	err := l.Call(func(k *Kernel) error {
		var err error
		n, err = l.sess.Read(k, r, page, buf)
		return err
	})
	return n, err
}

// TouchPage read-faults page page of region r.
func (l *Loop) TouchPage(r RegionID, page int) error {
	return l.Call(func(k *Kernel) error { return l.sess.Touch(k, r, page) })
}

// TouchAsync enqueues a touch without waiting for it to run. True means
// "enqueued", not "applied" (see Async); any fault error is discarded.
func (l *Loop) TouchAsync(r RegionID, page int) bool {
	return l.Async(func(k *Kernel) { _ = l.sess.Touch(k, r, page) })
}

// FreeRegion releases region r.
func (l *Loop) FreeRegion(r RegionID) error {
	return l.Call(func(k *Kernel) error { return l.sess.Free(k, r) })
}

// Stats snapshots the machine-wide counters.
func (l *Loop) Stats() (CacheStats, error) {
	var cs CacheStats
	err := l.Call(func(k *Kernel) error {
		cs = l.sess.Stats(k)
		return nil
	})
	return cs, err
}

// PageSize reports the kernel's page size. Immutable after construction, so
// it is read without a loop hop.
func (l *Loop) PageSize() int { return l.k.VM.PageSize() }
