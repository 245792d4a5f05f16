package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hipec/internal/core"
	"hipec/internal/disk/filestore"
	"hipec/internal/hiperr"
	"hipec/internal/policies"
	"hipec/internal/substrate"
	"hipec/internal/wire"

	_ "hipec/internal/hpl" // registers the policy translator for WithPolicySource
)

const testPageSize = 4096

// newTestServer boots a server on a loopback listener over an in-memory
// store and tears it down with the test.
func newTestServer(t testing.TB, opts ...Option) (*Server, string) {
	t.Helper()
	store := substrate.NewMemStore(testPageSize, true)
	srv := New(store, opts...)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv, srv.Addr().String()
}

func TestClientRoundTrip(t *testing.T) {
	_, addr := newTestServer(t, WithFrames(256))
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if got := c.PageSize(); got != testPageSize {
		t.Fatalf("PageSize = %d, want %d", got, testPageSize)
	}
	r, err := c.Open(8, core.WithPolicySource("fifo2c", policies.FIFOSecondChanceSource(4)))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	payload := []byte("page zero payload")
	if err := c.WritePage(r, 0, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, len(payload))
	n, err := c.ReadPage(r, 0, buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf[:n], payload) {
		t.Fatalf("read back %q, want %q", buf[:n], payload)
	}
	if err := c.TouchPage(r, 7); err != nil {
		t.Fatalf("touch: %v", err)
	}
	if !c.TouchAsync(r, 7) {
		t.Fatal("TouchAsync refused on a healthy connection")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Accesses == 0 || st.Faults == 0 {
		t.Fatalf("stats show no traffic: %+v", st)
	}
	if err := c.FreeRegion(r); err != nil {
		t.Fatalf("free: %v", err)
	}
}

// Errors cross the wire as typed statuses: errors.Is must keep working on
// the client side.
func TestErrorsStayTypedAcrossTheWire(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if err := c.TouchPage(99, 0); !errors.Is(err, hiperr.ErrBadRequest) {
		t.Fatalf("unknown region: got %v, want ErrBadRequest", err)
	}
	r, err := c.Open(4)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := c.TouchPage(r, 4); !errors.Is(err, hiperr.ErrBadRequest) {
		t.Fatalf("page out of range: got %v, want ErrBadRequest", err)
	}
	if _, err := c.Open(4, core.WithPolicySource("broken", "policy broken { not hpl")); !errors.Is(err, hiperr.ErrBadSpec) {
		t.Fatalf("bad policy source: got %v, want ErrBadSpec", err)
	}
	if _, err := c.Open(4, core.WithPolicySpec(&core.Spec{})); !errors.Is(err, hiperr.ErrBadRequest) {
		t.Fatalf("WithPolicySpec over the network: got %v, want ErrBadRequest", err)
	}
}

// The concurrency contract, networked: many clients (and pipelining
// goroutines within each) hammer one server over a file store, paging
// through their four-frame policies. Run under -race this proves the
// mailbox stays the only synchronization end to end: a kernel or store
// handle that escapes a Loop closure and is touched off the loop races
// with the other connections' batches.
func TestConcurrentClients(t *testing.T) {
	store, err := filestore.OpenTemp(t.TempDir(), testPageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := New(store, WithFrames(128))
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	addr := srv.Addr().String()
	const clients = 8
	const pages = 16
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errc <- fmt.Errorf("client %d: %v", id, err)
				return
			}
			defer c.Close()
			r, err := c.Open(pages, core.WithPolicySource("fifo", policies.FIFOSource(4)))
			if err != nil {
				errc <- fmt.Errorf("client %d: open: %v", id, err)
				return
			}
			// Two pipelining goroutines per client share the connection.
			var inner sync.WaitGroup
			for g := 0; g < 2; g++ {
				inner.Add(1)
				go func(g int) {
					defer inner.Done()
					stamp := byte(id<<1 + g + 1)
					for p := g; p < pages; p += 2 {
						if err := c.WritePage(r, p, []byte{stamp, byte(p)}); err != nil {
							errc <- fmt.Errorf("client %d.%d: write %d: %v", id, g, p, err)
							return
						}
					}
					buf := make([]byte, 2)
					for p := g; p < pages; p += 2 {
						n, err := c.ReadPage(r, p, buf)
						if err != nil {
							errc <- fmt.Errorf("client %d.%d: read %d: %v", id, g, p, err)
							return
						}
						if n != 2 || buf[0] != stamp || buf[1] != byte(p) {
							errc <- fmt.Errorf("client %d.%d: page %d corrupt: % x", id, g, p, buf[:n])
							return
						}
					}
				}(g)
			}
			inner.Wait()
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	srv.Close() // quiesce the loop before reading the store's counters
	if store.Writes == 0 || store.Reads == 0 {
		t.Fatalf("load never paged through the store: %d writes, %d reads", store.Writes, store.Reads)
	}
}

// A connection killed mid-stream must not leak kernel state: the handler
// frees the session's regions on its way out, so the dead client's
// containers are gone and its frames return to the pool.
func TestMidStreamConnectionKill(t *testing.T) {
	srv, addr := newTestServer(t, WithFrames(64))

	// Speak the wire protocol by hand so the TCP connection can be severed
	// abruptly, mid-session, with regions still open.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var out []byte
	out = wire.AppendHello(out, 1)
	open, err := wire.AppendOpen(out, 2, 8, "fifo", policies.FIFOSource(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	out = wire.AppendTouch(open, 3, 1, 0)
	if _, err := conn.Write(out); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Wait until the touch executed so the region is definitely open, then
	// kill the connection without freeing anything.
	waitFor(t, srv, func(k *core.Kernel) bool { return k.VM.Stats().Faults > 0 })
	conn.Close()

	// The handler notices and frees the session: the frame manager holds
	// no container of the dead connection any more.
	waitFor(t, srv, func(k *core.Kernel) bool { return len(k.FM.Containers()) == 0 })

	// The server keeps serving: a fresh client gets the freed frames back.
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial after kill: %v", err)
	}
	defer c.Close()
	r, err := c.Open(8, core.WithPolicySource("fifo", policies.FIFOSource(4)))
	if err != nil {
		t.Fatalf("open after kill: %v", err)
	}
	if err := c.TouchPage(r, 0); err != nil {
		t.Fatalf("touch after kill: %v", err)
	}
}

// waitFor polls a kernel predicate through the loop until it holds.
func waitFor(t *testing.T, srv *Server, pred func(*core.Kernel) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := false
		if err := srv.Loop().Call(func(k *core.Kernel) error { ok = pred(k); return nil }); err != nil {
			t.Fatalf("loop: %v", err)
		}
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

// A first frame that is not a valid hello gets the connection dropped.
func TestHelloIsMandatory(t *testing.T) {
	_, addr := newTestServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.AppendStats(nil, 1)); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 16)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("server answered %d bytes to a hello-less connection", n)
	}
}

// Closing the server mid-traffic surfaces transport errors on clients, never
// panics or hangs.
func TestServerCloseWithLiveClients(t *testing.T) {
	srv, addr := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	r, err := c.Open(4)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if err := c.TouchPage(r, 0); err != nil {
				return // transport error: the expected outcome
			}
		}
	}()
	time.Sleep(5 * time.Millisecond) // let traffic flow
	srv.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("client call hung across server close")
	}
}

// The batching benchmark: the same pipelined load, one server applying each
// request in its own Loop hop (WithMaxBatch(1)) versus one batching each
// connection's backlog (default). Compare ops/sec:
//
//	go test ./internal/server -bench=Submission -benchtime=2s
func BenchmarkSubmission(b *testing.B) {
	for _, bc := range []struct {
		name  string
		batch int
	}{
		{"hop-per-request", 1},
		{"batched", DefaultMaxBatch},
	} {
		b.Run(bc.name, func(b *testing.B) {
			_, addr := newTestServer(b, WithFrames(256), WithMaxBatch(bc.batch))
			c, err := Dial(addr)
			if err != nil {
				b.Fatalf("dial: %v", err)
			}
			defer c.Close()
			r, err := c.Open(64, core.WithPolicySource("fifo", policies.FIFOSource(16)))
			if err != nil {
				b.Fatalf("open: %v", err)
			}
			for p := 0; p < 64; p++ { // pre-fault the working set
				if err := c.TouchPage(r, p); err != nil {
					b.Fatalf("prefault: %v", err)
				}
			}
			b.ResetTimer()
			// Pipelined load: enough goroutines share the connection to
			// keep a real backlog in the server's per-connection queue —
			// that backlog is what batching turns into single Loop hops.
			b.SetParallelism(64)
			b.RunParallel(func(pb *testing.PB) {
				p := 0
				for pb.Next() {
					if err := c.TouchPage(r, p%64); err != nil {
						b.Errorf("touch: %v", err)
						return
					}
					p++
				}
			})
		})
	}
}

// brokenStore fails (and counts) every ReadPage once armed.
type brokenStore struct {
	substrate.Store
	armed atomic.Bool
	reads atomic.Int64
}

func (s *brokenStore) ReadPage(key substrate.PageKey) ([]byte, bool, error) {
	if s.armed.Load() {
		s.reads.Add(1)
		return nil, true, fmt.Errorf("broken store: %w", hiperr.ErrDiskIO)
	}
	return s.Store.ReadPage(key)
}

// A peer can put any 32-bit retry budget on the wire. The kernel must cap
// it: each retry is a doubling real-time sleep on the loop goroutine, so an
// unclamped 4-billion-attempt budget on a failing store stalls every client.
func TestHostileRetryBudgetIsClamped(t *testing.T) {
	const pages = 64
	store := &brokenStore{Store: substrate.NewMemStore(testPageSize, true)}
	srv := New(store, WithFrames(16))
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Client.Open would never send this; speak the wire directly.
	resp, err := c.roundTrip(nil, func(dst []byte, seq uint32) ([]byte, error) {
		return wire.AppendOpen(dst, seq, pages, "", "", math.MaxUint32)
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	r := core.RegionID(resp.Region)
	for p := 0; p < pages; p++ {
		if err := c.WritePage(r, p, []byte{byte(p)}); err != nil {
			t.Fatalf("write %d: %v", p, err)
		}
	}
	store.armed.Store(true)
	if err := c.TouchPage(r, 0); !errors.Is(err, hiperr.ErrDiskIO) {
		t.Fatalf("touch on a broken store = %v, want ErrDiskIO", err)
	}
	const wantCap = 8 // core's maxRegionRetry
	if got := store.reads.Load(); got != wantCap {
		t.Fatalf("page-in attempts = %d, want the cap %d", got, wantCap)
	}
}

// A peer can also ask any read for a 32-bit MaxLen. The server must clamp it
// to the page size before sizing the reply, or one request buys
// a hostile peer a buffer of its choosing (refuse-before-allocate, the rule
// wire.MaxFrame enforces on frame prefixes).
func TestHostileReadLengthIsClamped(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	r, err := c.Open(1)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := c.WritePage(r, 0, []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}

	const hostile = 256 << 20
	buf := make([]byte, 2*testPageSize) // room for more than the clamp allows
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// Client.ReadPage would never send this; speak the wire directly.
	resp, err := c.roundTrip(buf, func(dst []byte, seq uint32) ([]byte, error) {
		return wire.AppendRead(dst, seq, uint32(r), 0, hostile), nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(resp.Data) != testPageSize {
		t.Fatalf("read returned %d bytes, want the page size %d", len(resp.Data), testPageSize)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= hostile/16 {
		t.Fatalf("one read with MaxLen %d allocated %d bytes; the server must clamp to the page size first", hostile, got)
	}
}

// The steady-state request path allocates nothing anywhere in the process:
// the client's reply slots and write buffer, the server's frame buffers,
// batch hop and reply buffer, and the loop's mailbox entries are all
// reused. Counted process-wide, so the server's goroutines are included.
func TestRequestPathDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	_, addr := newTestServer(t, WithFrames(64))
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	r, err := c.Open(4)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	page := bytes.Repeat([]byte{0x5a}, testPageSize)
	buf := make([]byte, testPageSize)
	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"WritePage", func() error { return c.WritePage(r, 0, page) }},
		{"ReadPage", func() error {
			if n, err := c.ReadPage(r, 0, buf); err != nil || n != testPageSize || buf[n-1] != 0x5a {
				return fmt.Errorf("read %d bytes, err %v", n, err)
			}
			return nil
		}},
		{"TouchPage", func() error { return c.TouchPage(r, 1) }},
		{"TouchAsync", func() error {
			if !c.TouchAsync(r, 2) {
				return errors.New("TouchAsync refused")
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if avg := testing.AllocsPerRun(500, func() {
				if err := tc.op(); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("%s allocates %.2f/op, want 0", tc.name, avg)
			}
			if err := c.TouchPage(r, 3); err != nil { // drain discarded replies
				t.Fatal(err)
			}
		})
	}
}

// Sixteen goroutines share one Client, each reading its own stamped page.
// Reply slots are pooled and a read's payload is copied straight into the
// caller's buffer, so a slot handed to the wrong waiter, or reused while
// its reader is still copying, shows up as another goroutine's stamp. Then
// the server closes mid-flight: every call returns its own bytes or an
// error, never another's and never a hang.
func TestReplySlotsNeverCrossCalls(t *testing.T) {
	const workers, reads = 16, 2000
	srv, addr := newTestServer(t, WithFrames(64))
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	r, err := c.Open(workers)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	stamp := func(g int) byte { return byte(0x11 * (g + 1)) }
	for g := 0; g < workers; g++ {
		if err := c.WritePage(r, g, bytes.Repeat([]byte{stamp(g)}, testPageSize)); err != nil {
			t.Fatalf("write %d: %v", g, err)
		}
	}
	// read returns an error, or nil after checking the bytes are g's own.
	read := func(g int, buf []byte) error {
		clear(buf)
		n, err := c.ReadPage(r, g, buf)
		if err != nil {
			return err
		}
		if n != testPageSize {
			t.Errorf("worker %d: read %d bytes, want %d", g, n, testPageSize)
		}
		for i, b := range buf {
			if b != stamp(g) {
				t.Errorf("worker %d: byte %d is %#x, want its own stamp %#x", g, i, b, stamp(g))
				break
			}
		}
		return nil
	}
	run := func(body func(g int, buf []byte)) {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				body(g, make([]byte, testPageSize))
			}(g)
		}
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(60 * time.Second):
			t.Fatal("calls hung")
		}
	}

	run(func(g int, buf []byte) {
		for i := 0; i < reads && !t.Failed(); i++ {
			if err := read(g, buf); err != nil {
				t.Errorf("worker %d read %d: %v", g, i, err)
				return
			}
		}
	})

	var started sync.WaitGroup
	started.Add(workers)
	go func() {
		started.Wait()
		time.Sleep(5 * time.Millisecond) // let traffic flow
		srv.Close()
	}()
	run(func(g int, buf []byte) {
		started.Done()
		for !t.Failed() {
			if err := read(g, buf); err != nil {
				return // transport error: the expected end
			}
		}
	})
}

// Recycling frame buffers must not pin a burst of maximal frames. A raw
// peer sends 4*DefaultMaxBatch write frames with the largest payload the
// wire allows (16 MiB in all) while the loop is held, so every queue slot
// and the whole batch hold one, and then idles. After one GC the process's
// in-use heap must be less than 4 MiB larger than before the burst. A pool
// that kept every returned frame would still hold about 20 MiB: sync.Pool
// survives one GC in its victim cache.
func TestHostileFrameBurstIsNotRetained(t *testing.T) {
	srv, addr := newTestServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	in := bufio.NewReader(conn)
	// roundTrip writes out, then reads replies until the one for seq.
	roundTrip := func(out []byte, seq uint32) {
		t.Helper()
		if _, err := conn.Write(out); err != nil {
			t.Fatalf("write: %v", err)
		}
		var buf []byte
		for {
			frame, err := wire.ReadFrame(in, buf)
			if err != nil {
				t.Fatalf("read reply: %v", err)
			}
			resp, err := wire.DecodeResponse(frame)
			if err != nil {
				t.Fatalf("decode reply: %v", err)
			}
			if resp.Seq == seq {
				return
			}
			buf = frame[:0]
		}
	}
	roundTrip(wire.AppendHello(nil, 1), 1)
	const frames = 4 * DefaultMaxBatch
	write, err := wire.AppendWrite(nil, 2, 1, 0, make([]byte, 64*1024))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	held, release := make(chan struct{}), make(chan struct{})
	go srv.Loop().Call(func(*core.Kernel) error { close(held); <-release; return nil })
	<-held
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if _, err := conn.Write(write); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	time.Sleep(100 * time.Millisecond) // the reader fills the queue
	close(release)
	if err := <-sent; err != nil {
		t.Fatalf("burst: %v", err)
	}
	roundTrip(wire.AppendStats(nil, 3), 3) // every write frame has been applied

	runtime.GC()
	runtime.ReadMemStats(&after)
	const bound = 4 << 20
	if growth := int64(after.HeapInuse) - int64(before.HeapInuse); growth > bound {
		t.Fatalf("in-use heap grew %d bytes across a %d-byte burst; bound %d", growth, frames*len(write), bound)
	}
}
