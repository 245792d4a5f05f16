package disk

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"hipec/internal/faultinj"
	"hipec/internal/hiperr"
	"hipec/internal/simtime"
	"hipec/internal/substrate"
)

func newTestDisk() (*simtime.Clock, *Disk) {
	c := simtime.NewClock()
	return c, New(substrate.Sim(c), DefaultParams(), nil)
}

func TestDefaultPageReadNear7_66ms(t *testing.T) {
	_, d := newTestDisk()
	got := d.PageReadTime(4096)
	want := 7660 * time.Microsecond
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > 200*time.Microsecond {
		t.Fatalf("PageReadTime(4096) = %v, want within 200µs of %v", got, want)
	}
}

func TestReadAdvancesClock(t *testing.T) {
	c, d := newTestDisk()
	before := c.Now()
	st, _ := d.Read(100, 4096)
	if c.Now() != before.Add(st) {
		t.Fatalf("clock advanced %v, service time %v", c.Now().Sub(before), st)
	}
	if s := d.Stats(); s.Reads != 1 || s.BytesRead != 4096 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSequentialReadsAvoidSeek(t *testing.T) {
	_, d := newTestDisk()
	cold, _ := d.Read(10, 4096)
	seq, _ := d.Read(11, 4096)
	if seq >= cold {
		t.Fatalf("sequential read %v not faster than cold read %v", seq, cold)
	}
	random, _ := d.Read(500, 4096)
	if random <= seq {
		t.Fatalf("random read %v not slower than sequential %v", random, seq)
	}
	if d.Stats().SeqHits != 1 {
		t.Fatalf("SeqHits = %d, want 1", d.Stats().SeqHits)
	}
}

func TestWriteIsAsync(t *testing.T) {
	c, d := newTestDisk()
	done := false
	before := c.Now()
	delay := d.Write(42, 4096, func(simtime.Time) { done = true })
	if c.Now() != before {
		t.Fatal("Write advanced the clock synchronously")
	}
	if d.Inflight() != 1 {
		t.Fatalf("Inflight = %d, want 1", d.Inflight())
	}
	c.Advance(delay)
	if !done {
		t.Fatal("completion callback did not fire")
	}
	if d.Inflight() != 0 {
		t.Fatalf("Inflight = %d after completion, want 0", d.Inflight())
	}
}

func TestWriteNilCallback(t *testing.T) {
	c, d := newTestDisk()
	d.Write(1, 4096, nil)
	c.Advance(time.Second) // must not panic
	if d.Inflight() != 0 {
		t.Fatal("write never completed")
	}
}

func TestZeroSizePanics(t *testing.T) {
	_, d := newTestDisk()
	defer func() {
		if recover() == nil {
			t.Fatal("Read of 0 bytes did not panic")
		}
	}()
	d.Read(0, 0)
}

func TestNilClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(zero clock, ...) did not panic")
		}
	}()
	New(substrate.Clock{}, DefaultParams(), nil)
}

func TestStoreRoundTrip(t *testing.T) {
	s := NewStore(4096, true)
	key := StoreKey{Object: 7, Offset: 8192}
	data := []byte("hello backing store")
	if err := s.WritePage(key, data); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.ReadPage(key)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("page missing after write")
	}
	if string(got[:len(data)]) != string(data) {
		t.Fatalf("data = %q, want prefix %q", got[:len(data)], data)
	}
	if len(got) != 4096 {
		t.Fatalf("page padded to %d bytes, want 4096", len(got))
	}
	if !s.Contains(key) || s.Len() != 1 {
		t.Fatal("Contains/Len mismatch")
	}
}

func TestStoreWithoutData(t *testing.T) {
	s := NewStore(4096, false)
	key := StoreKey{Object: 1, Offset: 0}
	if err := s.WritePage(key, []byte("discarded")); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := s.ReadPage(key)
	if !ok {
		t.Fatal("presence not tracked")
	}
	if got != nil {
		t.Fatalf("data retained with keepData=false: %q", got)
	}
}

func TestStoreMissingPage(t *testing.T) {
	s := NewStore(4096, true)
	if _, ok, _ := s.ReadPage(StoreKey{Object: 9, Offset: 0}); ok {
		t.Fatal("absent page reported present")
	}
}

func TestStoreUnalignedOffsetPanics(t *testing.T) {
	s := NewStore(4096, true)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned WritePage did not panic")
		}
	}()
	s.WritePage(StoreKey{Object: 1, Offset: 100}, nil)
}

func TestStoreOversizePagePanics(t *testing.T) {
	s := NewStore(64, true)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize WritePage did not panic")
		}
	}()
	s.WritePage(StoreKey{Object: 1, Offset: 0}, make([]byte, 65))
}

// Property: service time is linear in size for cold accesses.
func TestPropertyServiceTimeMonotonicInSize(t *testing.T) {
	f := func(a, b uint16) bool {
		_, d := newTestDisk()
		sa, sb := int(a)+1, int(b)+1
		// Use distinct, non-adjacent addresses so both accesses are cold.
		ta := d.ServiceTime(1000, sa)
		tb := d.ServiceTime(5000, sb)
		if sa <= sb {
			return ta <= tb
		}
		return ta >= tb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: store round-trips arbitrary page-aligned writes.
func TestPropertyStoreRoundTrip(t *testing.T) {
	f := func(obj uint64, pageIdx uint8, payload []byte) bool {
		s := NewStore(4096, true)
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		key := StoreKey{Object: obj, Offset: int64(pageIdx) * 4096}
		if err := s.WritePage(key, payload); err != nil {
			return false
		}
		got, ok, err := s.ReadPage(key)
		if !ok || err != nil {
			return false
		}
		for i, b := range payload {
			if got[i] != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadTimeAccumulates(t *testing.T) {
	_, d := newTestDisk()
	t1, _ := d.Read(1, 4096)
	t2, _ := d.Read(100, 4096)
	if d.Stats().ReadTime != t1+t2 {
		t.Fatalf("ReadTime = %v, want %v", d.Stats().ReadTime, t1+t2)
	}
}

func TestInjectedReadError(t *testing.T) {
	c, d := newTestDisk()
	pl := faultinj.NewPlane(3)
	pl.SetRule(faultinj.DiskRead, faultinj.Rule{FailEvery: 2})
	d.SetInjector(pl)

	before := c.Now()
	if _, err := d.Read(10, 4096); err != nil {
		t.Fatalf("first read failed: %v", err)
	}
	st, err := d.Read(500, 4096)
	if !errors.Is(err, hiperr.ErrDiskIO) {
		t.Fatalf("second read err = %v, want ErrDiskIO", err)
	}
	if c.Now() != before.Add(st).Add(d.ServiceTime(10, 4096)) {
		t.Error("failed read did not charge its service time")
	}
	// The failed transfer is not counted as a completed read and does not
	// update sequential state.
	if s := d.Stats(); s.Reads != 1 {
		t.Errorf("Reads = %d after one success + one injected failure, want 1", s.Reads)
	}
	if d.sequential(501) {
		t.Error("failed read granted sequential locality to its successor")
	}
}

func TestInjectedLatencySpike(t *testing.T) {
	_, d := newTestDisk()
	pl := faultinj.NewPlane(3)
	pl.SetRule(faultinj.DiskRead, faultinj.Rule{SlowRate: 1, SlowBy: 50 * time.Millisecond})
	base := d.ServiceTime(77, 4096)
	d.SetInjector(pl)
	st, err := d.Read(77, 4096)
	if err != nil {
		t.Fatalf("read failed: %v", err)
	}
	if st != base+50*time.Millisecond {
		t.Errorf("slow read service time %v, want %v", st, base+50*time.Millisecond)
	}
}

// The zero Params model no time: the realtime substrate's disk.
func newZeroDisk() (*simtime.Clock, *Disk) {
	c := simtime.NewClock()
	return c, New(substrate.Sim(c), Params{}, nil)
}

func TestZeroParamsReadChargesNothing(t *testing.T) {
	c, d := newZeroDisk()
	st, err := d.Read(100, 4096)
	if err != nil || st != 0 {
		t.Fatalf("Read = %v, %v; want 0, nil", st, err)
	}
	if c.Now() != 0 {
		t.Fatalf("clock advanced to %v", c.Now())
	}
	if s := d.Stats(); s.Reads != 1 || s.ReadTime != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestZeroParamsWriteCompletesInline(t *testing.T) {
	c, d := newZeroDisk()
	done := false
	if delay := d.Write(42, 4096, func(simtime.Time) { done = true }); delay != 0 {
		t.Fatalf("Write delay = %v, want 0", delay)
	}
	if !done {
		t.Fatal("completion callback did not run inline")
	}
	if d.Inflight() != 0 || c.Pending() != 0 {
		t.Fatalf("Inflight = %d, pending timers = %d; want 0, 0", d.Inflight(), c.Pending())
	}
	if s := d.Stats(); s.Writes != 1 || s.WriteTime != 0 {
		t.Fatalf("stats = %+v", s)
	}
	d.Write(43, 4096, nil) // nil callback must not panic
}

func TestNegativePerBytePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with negative PerByte did not panic")
		}
	}()
	New(substrate.Sim(simtime.NewClock()), Params{PerByte: -1}, nil)
}

// An injected latency spike still sleeps on a zero model, so the fault
// plane keeps its meaning on the realtime substrate.
func TestInjectedSlowOnZeroModel(t *testing.T) {
	c, d := newZeroDisk()
	pl := faultinj.NewPlane(3)
	pl.SetRule(faultinj.DiskRead, faultinj.Rule{SlowRate: 1, SlowBy: 5 * time.Millisecond})
	pl.SetRule(faultinj.DiskWrite, faultinj.Rule{SlowRate: 1, SlowBy: 5 * time.Millisecond})
	d.SetInjector(pl)
	if st, err := d.Read(7, 4096); err != nil || st != 5*time.Millisecond {
		t.Fatalf("slow Read = %v, %v; want 5ms, nil", st, err)
	}
	if c.Now() != simtime.Time(5*time.Millisecond) {
		t.Fatalf("clock at %v after a 5ms spike", c.Now())
	}
	done := false
	if delay := d.Write(8, 4096, func(simtime.Time) { done = true }); delay != 5*time.Millisecond {
		t.Fatalf("slow Write delay = %v, want 5ms", delay)
	}
	if done || d.Inflight() != 1 {
		t.Fatalf("slow Write completed inline (done %v, inflight %d)", done, d.Inflight())
	}
	c.Advance(5 * time.Millisecond)
	if !done || d.Inflight() != 0 {
		t.Fatal("slow Write never completed")
	}
}
