package machipc

import (
	"runtime"
	"testing"
	"time"

	"hipec/internal/mem"
	"hipec/internal/simtime"
	"hipec/internal/substrate"
	"hipec/internal/vm"
)

func newIPC() (*simtime.Clock, *IPC) {
	c := simtime.NewClock()
	return c, New(substrate.Sim(c), Costs{})
}

func TestDefaultCostsMatchTable4(t *testing.T) {
	c := DefaultCosts()
	if c.NullSyscall != 19*time.Microsecond {
		t.Fatalf("NullSyscall = %v", c.NullSyscall)
	}
	if c.NullIPC != 292*time.Microsecond {
		t.Fatalf("NullIPC = %v", c.NullIPC)
	}
}

func TestSyscallChargesTrap(t *testing.T) {
	clock, ipc := newIPC()
	ran := false
	ipc.Syscall(func() { ran = true })
	if !ran {
		t.Fatal("syscall body did not run")
	}
	if clock.Now() != simtime.Time(19*time.Microsecond) {
		t.Fatalf("clock = %v, want 19µs", clock.Now())
	}
	if ipc.Stats.Syscalls != 1 {
		t.Fatal("syscall not counted")
	}
}

func TestUpcallChargesBothDirections(t *testing.T) {
	clock, ipc := newIPC()
	ipc.Upcall(nil)
	want := simtime.Time(19*time.Microsecond + 19*time.Microsecond)
	if clock.Now() != want {
		t.Fatalf("clock = %v, want %v", clock.Now(), want)
	}
}

func TestPortCallRoundTrip(t *testing.T) {
	clock, ipc := newIPC()
	port := ipc.NewPort("echo", func(m Message) Message {
		return Message{ID: m.ID + 1, Body: m.Body}
	})
	reply, err := port.Call(Message{ID: 41, Body: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.ID != 42 || reply.Body != "x" {
		t.Fatalf("reply = %+v", reply)
	}
	if clock.Now() != simtime.Time(292*time.Microsecond) {
		t.Fatalf("clock = %v, want 292µs", clock.Now())
	}
	if ipc.Stats.RPCs != 1 || ipc.Stats.Messages != 2 {
		t.Fatalf("stats = %+v", ipc.Stats)
	}
}

func TestCallWithoutServerFails(t *testing.T) {
	_, ipc := newIPC()
	port := ipc.NewPort("dead", nil)
	if _, err := port.Call(Message{}); err == nil {
		t.Fatal("call to serverless port succeeded")
	}
}

func TestQueuePortSendReceive(t *testing.T) {
	_, ipc := newIPC()
	port := ipc.NewPort("q", nil)
	port.Send(Message{ID: 1})
	port.Send(Message{ID: 2})
	if port.Pending() != 2 {
		t.Fatalf("Pending = %d", port.Pending())
	}
	m, ok := port.Receive()
	if !ok || m.ID != 1 {
		t.Fatalf("Receive = %+v, %t", m, ok)
	}
	m, _ = port.Receive()
	if m.ID != 2 {
		t.Fatal("FIFO order broken")
	}
	if _, ok := port.Receive(); ok {
		t.Fatal("empty receive succeeded")
	}
}

func newPagerSystem(t *testing.T, frames, pool int, victim VictimFunc) (*simtime.Clock, *vm.System, *IPC, *ExtPagerPolicy) {
	t.Helper()
	clock := simtime.NewClock()
	sys := vm.NewSystem(substrate.Sim(clock), vm.Config{Frames: frames})
	ipc := New(substrate.Sim(clock), Costs{})
	pol, err := NewExtPager("test", ipc, sys, pool, victim)
	if err != nil {
		t.Fatal(err)
	}
	sys.SetDefaultPolicy(pol)
	return clock, sys, ipc, pol
}

func TestExtPagerServesFromPoolWithoutIPC(t *testing.T) {
	_, sys, ipc, _ := newPagerSystem(t, 32, 8, nil)
	sp := sys.NewSpace()
	e, _ := sp.Allocate(8 * 4096)
	for a := e.Start; a < e.End; a += 4096 {
		if _, err := sp.Touch(a); err != nil {
			t.Fatal(err)
		}
	}
	if ipc.Stats.RPCs != 0 {
		t.Fatalf("pool-served faults used %d IPCs", ipc.Stats.RPCs)
	}
}

func TestExtPagerConsultsUserLevelOnReplacement(t *testing.T) {
	// MRU victim function living "in user space".
	mru := func(q *mem.Queue) *mem.Page {
		return q.FindMax(func(p *mem.Page) int64 { return int64(p.LastAccess) })
	}
	clock, sys, ipc, pol := newPagerSystem(t, 32, 4, mru)
	sp := sys.NewSpace()
	e, _ := sp.Allocate(8 * 4096)
	for a := e.Start; a < e.End; a += 4096 {
		if _, err := sp.Touch(a); err != nil {
			t.Fatal(err)
		}
		clock.Advance(time.Millisecond)
	}
	if pol.Replacements != 4 {
		t.Fatalf("Replacements = %d, want 4", pol.Replacements)
	}
	if ipc.Stats.RPCs != 4 {
		t.Fatalf("RPCs = %d, want 4 (one per replacement)", ipc.Stats.RPCs)
	}
	// MRU behaviour: the first 3 pages survive.
	for i := int64(0); i < 3; i++ {
		if e.Object.Resident(i*4096) == nil {
			t.Fatalf("MRU-over-IPC evicted prefix page %d", i)
		}
	}
}

func TestExtPagerDirtyVictimWritesBack(t *testing.T) {
	clock, sys, ipc, _ := newPagerSystem(t, 32, 2, nil)
	sp := sys.NewSpace()
	e, _ := sp.Allocate(4 * 4096)
	for a := e.Start; a < e.End; a += 4096 {
		if _, err := sp.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Stats().PageOuts == 0 {
		t.Fatal("dirty victims were not written back")
	}
	// data_write messages were sent in addition to the victim RPCs.
	if ipc.Stats.Messages <= 2*ipc.Stats.RPCs {
		t.Fatalf("no data_write messages: %+v", ipc.Stats)
	}
	clock.Advance(time.Second)
	if sys.Disk.Inflight() != 0 {
		t.Fatal("writebacks never completed")
	}
}

func TestExtPagerPoolExhaustion(t *testing.T) {
	clock := simtime.NewClock()
	sys := vm.NewSystem(substrate.Sim(clock), vm.Config{Frames: 4})
	ipc := New(substrate.Sim(clock), Costs{})
	if _, err := NewExtPager("big", ipc, sys, 10, nil); err == nil {
		t.Fatal("oversized pool accepted")
	}
	if sys.Frames.FreeCount() != 4 {
		t.Fatal("failed construction leaked frames")
	}
}

func TestRealPortRoundTrip(t *testing.T) {
	p := NewRealPort()
	defer p.Close()
	for i := 0; i < 100; i++ {
		if got := p.Call(i); got != i {
			t.Fatalf("Call(%d) = %d", i, got)
		}
	}
}

// TestRealPortCloseStopsServer is the lifecycle contract: Close must
// actually terminate the echo-server goroutine, not just make Call hang.
func TestRealPortCloseStopsServer(t *testing.T) {
	// Earlier tests' closed echo servers exit asynchronously; let them go
	// before taking the baseline.
	time.Sleep(10 * time.Millisecond)
	before := runtime.NumGoroutine()
	ports := make([]*RealPort, 16)
	for i := range ports {
		ports[i] = NewRealPort()
	}
	// The servers are live: well above the baseline goroutine count.
	if n := runtime.NumGoroutine(); n < before+len(ports) {
		t.Fatalf("expected %d server goroutines, NumGoroutine %d -> %d", len(ports), before, n)
	}
	for _, p := range ports {
		p.Call(1)
		p.Close()
	}
	// Termination is asynchronous; poll until the servers are gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("echo servers leaked: NumGoroutine %d -> %d after Close", before, n)
	}
}
