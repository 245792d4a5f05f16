// Package disk models the paging device backing the simulated kernel.
//
// The model follows the structure of Ruemmler & Wilkes, "An Introduction to
// Disk Drive Modeling" (IEEE Computer, 1994), simplified to the three
// components that dominate a 1994-era paging disk: average seek, half-
// rotation latency, and per-byte transfer time. The defaults are calibrated
// so that one 4 KB page transfer costs ~7.66 ms, the figure implied by the
// paper's Table 3 (82485.5 ms − 4016.5 ms over 10240 page-ins).
//
// Reads are synchronous from the faulting thread's point of view (the clock
// advances by the service time); writes go through an asynchronous flush
// queue drained by scheduled completion events, mirroring how the HiPEC
// global frame manager performs page flushing on behalf of policy executors
// (§4.3.1, "I/O Handling").
//
// The zero Params model no time. The realtime substrate uses them: its
// store's I/O takes real time, so Read charges nothing and a Write completes
// inline, arming no timer. Injected latency spikes still sleep.
package disk

import (
	"fmt"
	"time"

	"hipec/internal/faultinj"
	"hipec/internal/hiperr"
	"hipec/internal/kevent"
	"hipec/internal/simtime"
	"hipec/internal/substrate"
)

// Params describes the drive's performance characteristics.
type Params struct {
	AvgSeek    time.Duration // average seek time
	HalfRotate time.Duration // half-rotation latency
	PerByte    time.Duration // transfer time per byte
	TrackSkew  time.Duration // extra cost when crossing track boundaries on sequential runs
	SectorsSeq int           // consecutive sectors served without a fresh seek
	QueueDepth int           // max outstanding async writes before Flush blocks (0 = unlimited)
}

// DefaultParams returns parameters calibrated to the paper's testbed:
// a page (4096 B) read costs AvgSeek + HalfRotate + 4096*PerByte ≈ 7.66 ms.
func DefaultParams() Params {
	return Params{
		AvgSeek:    4 * time.Millisecond,
		HalfRotate: 2 * time.Millisecond,
		PerByte:    405 * time.Nanosecond, // ≈ 1.66 ms / 4 KB page
		TrackSkew:  500 * time.Microsecond,
		SectorsSeq: 16,
		QueueDepth: 0,
	}
}

// Stats is a snapshot of disk activity, derived from the kernel event
// spine: each Read/Write emits one typed event and every counter below is a
// view over the registry.
type Stats struct {
	Reads      int64
	Writes     int64
	BytesRead  int64
	BytesWrite int64
	ReadTime   time.Duration // total virtual time spent in synchronous reads
	WriteTime  time.Duration // total virtual service time of async writes
	SeqHits    int64         // requests served without a fresh seek
}

// Disk is the simulated paging device. It is not safe for concurrent use;
// the simulated kernel serializes on one clock.
type Disk struct {
	clock    substrate.Clock
	events   *kevent.Emitter
	params   Params
	inject   *faultinj.Plane // nil = no injection
	lastAddr int64           // last serviced block address, for sequential detection
	inflight int             // outstanding async writes
}

// New creates a disk attached to clock, emitting I/O events into events.
// A nil events builds a private spine (standalone disks, e.g. inside a
// user-level pager); the VM substrate passes its shared kernel spine.
func New(clock substrate.Clock, params Params, events *kevent.Emitter) *Disk {
	if clock.IsZero() {
		panic("disk: zero clock")
	}
	if params.PerByte < 0 {
		panic("disk: negative PerByte")
	}
	if events == nil {
		events = kevent.NewEmitter(clock)
	}
	return &Disk{clock: clock, events: events, params: params, lastAddr: -1}
}

// Params returns the drive parameters.
func (d *Disk) Params() Params { return d.params }

// SetInjector attaches a fault-injection plane (nil detaches). Injected read
// failures return ErrDiskIO after charging the full service time (the drive
// worked, the transfer was bad); latency spikes add the plane's extra delay
// to reads and writes.
func (d *Disk) SetInjector(pl *faultinj.Plane) { d.inject = pl }

// Stats returns a snapshot of the counters, derived from the event spine.
func (d *Disk) Stats() Stats {
	sc := d.events.Registry().Global()
	return Stats{
		Reads:      sc.Counts[kevent.EvDiskRead],
		Writes:     sc.Counts[kevent.EvDiskWrite],
		BytesRead:  sc.Sums[kevent.EvDiskRead],
		BytesWrite: sc.Sums[kevent.EvDiskWrite],
		ReadTime:   time.Duration(sc.Auxs[kevent.EvDiskRead]),
		WriteTime:  time.Duration(sc.Auxs[kevent.EvDiskWrite]),
		SeqHits:    sc.Flags[kevent.EvDiskRead] + sc.Flags[kevent.EvDiskWrite],
	}
}

// sequential reports whether addr continues the last serviced transfer.
func (d *Disk) sequential(addr int64) bool {
	return d.lastAddr >= 0 && addr == d.lastAddr+1
}

// ServiceTime computes the service time for a transfer of size bytes at
// block address addr (addresses are in units of pages/blocks; consecutive
// addresses model sequential layout). It is a pure computation; only Read
// and Write record activity.
func (d *Disk) ServiceTime(addr int64, size int) time.Duration {
	t := time.Duration(size) * d.params.PerByte
	if d.sequential(addr) {
		// Sequential: no seek, occasionally a track skew.
		t += d.params.TrackSkew
	} else {
		t += d.params.AvgSeek + d.params.HalfRotate
	}
	return t
}

// Read performs a synchronous read of size bytes at block addr, advancing
// the virtual clock by the service time. It returns the service time and,
// when the fault-injection plane decides the transfer fails, an error
// wrapping hiperr.ErrDiskIO — the time is still charged (the arm moved, the
// data was bad), but the counters record an injected error instead of a
// completed read, and lastAddr is untouched so the failed transfer does not
// grant the next request sequential locality.
func (d *Disk) Read(addr int64, size int) (time.Duration, error) {
	if size <= 0 {
		panic(fmt.Sprintf("disk: read of %d bytes", size))
	}
	t := d.ServiceTime(addr, size)
	dec := d.inject.Decide(faultinj.DiskRead)
	if dec.Slow > 0 {
		d.events.Emit(kevent.Event{Type: kevent.EvInjectDiskSlow, Addr: addr, Aux: int64(dec.Slow)})
		t += dec.Slow
	}
	if dec.Fail {
		d.events.Emit(kevent.Event{Type: kevent.EvInjectDiskError, Addr: addr, Arg: int64(size)})
		d.clock.Sleep(t)
		return t, &hiperr.Error{Op: "disk.read", Err: fmt.Errorf("block %d: %w", addr, hiperr.ErrDiskIO)}
	}
	d.events.Emit(kevent.Event{Type: kevent.EvDiskRead, Addr: addr, Arg: int64(size), Aux: int64(t), Flag: d.sequential(addr)})
	d.lastAddr = addr
	d.clock.Sleep(t)
	return t, nil
}

// Write enqueues an asynchronous write of size bytes at block addr. The
// done callback (may be nil) fires on the event queue when the write
// completes, or inline when the write takes no time. Write returns the
// scheduled completion delay.
func (d *Disk) Write(addr int64, size int, done func(now simtime.Time)) time.Duration {
	if size <= 0 {
		panic(fmt.Sprintf("disk: write of %d bytes", size))
	}
	t := d.ServiceTime(addr, size)
	if dec := d.inject.Decide(faultinj.DiskWrite); dec.Slow > 0 {
		// Writes never fail (the store write is immediate and durable;
		// the disk models timing only) but they do catch latency spikes.
		d.events.Emit(kevent.Event{Type: kevent.EvInjectDiskSlow, Addr: addr, Aux: int64(dec.Slow), Flag: true})
		t += dec.Slow
	}
	d.events.Emit(kevent.Event{Type: kevent.EvDiskWrite, Addr: addr, Arg: int64(size), Aux: int64(t), Flag: d.sequential(addr)})
	d.lastAddr = addr
	if t == 0 {
		if done != nil {
			done(d.clock.Now())
		}
		return 0
	}
	d.inflight++
	d.clock.After(t, func(now simtime.Time) {
		d.inflight--
		if done != nil {
			done(now)
		}
	})
	return t
}

// Inflight reports the number of outstanding asynchronous writes.
func (d *Disk) Inflight() int { return d.inflight }

// PageReadTime is a convenience: the cost of a cold (seek + rotate +
// transfer) read of pageSize bytes, independent of queue state.
func (d *Disk) PageReadTime(pageSize int) time.Duration {
	return d.params.AvgSeek + d.params.HalfRotate + time.Duration(pageSize)*d.params.PerByte
}

// Store is the in-memory backing store: page-granular content addressed by
// (object, offset), modeling the paging file that VM objects page to and
// from. The implementation lives in the substrate package (it is the
// simulation substrate's store backend); the alias keeps this package's
// historical surface.
type Store = substrate.MemStore

// StoreKey addresses one page of backing store.
type StoreKey = substrate.PageKey

// NewStore creates a backing store for pages of pageSize bytes. If keepData
// is false, page contents are not retained (reads return nil) but presence
// is still tracked.
func NewStore(pageSize int, keepData bool) *Store {
	return substrate.NewMemStore(pageSize, keepData)
}
