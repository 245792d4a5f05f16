// Package server puts the wire protocol in front of a realtime HiPEC
// kernel: a TCP listener whose connections submit the typed client command
// surface onto the kernel's serialized command loop (core.Loop).
//
// The interesting part is the batching. One Loop hop (a mailbox send, a
// channel wake, a reply channel) costs far more than applying a decoded
// command, so paying it per request would put the boundary crossing the
// paper eliminated right back on the hot path — this time as a channel, not
// a syscall. Instead each connection decodes as many frames as have already
// arrived (bounded by WithMaxBatch) and applies the whole batch in ONE
// Loop.Call, then writes all the replies with one write. Pipelined clients
// amortize the crossing exactly the way the policy executor amortizes clock
// charges across an event boundary.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"

	"hipec/internal/core"
	"hipec/internal/substrate"
	"hipec/internal/wire"
)

// Option configures a Server (variadic-option style; there is no config
// struct).
type Option func(*options)

type options struct {
	frames   int
	maxConns int
	maxBatch int
}

func defaults() options {
	return options{frames: 4096, maxConns: 64, maxBatch: DefaultMaxBatch}
}

// DefaultMaxBatch bounds how many decoded requests one Loop.Call applies.
const DefaultMaxBatch = 64

// WithFrames sets the kernel's physical memory size in frames (default
// 4096).
func WithFrames(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.frames = n
		}
	}
}

// WithMaxConns bounds concurrently served connections (default 64); excess
// connections wait in the listen backlog.
func WithMaxConns(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.maxConns = n
		}
	}
}

// WithMaxBatch bounds how many requests one Loop hop applies (default
// DefaultMaxBatch). 1 disables batching — every request pays its own
// mailbox crossing; the throughput benchmark uses it as the baseline.
func WithMaxBatch(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.maxBatch = n
		}
	}
}

// Server serves the wire protocol over TCP. It owns the kernel and its
// command loop; the backing store stays the caller's (close it after
// Close returns).
type Server struct {
	loop *core.Loop
	opts options

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	wg  sync.WaitGroup // accept loop + one handler per connection
	sem chan struct{}  // connection slots

	// frames recycles request frame buffers (*[]byte) across connections.
	// Only buffers that hold at most one page write go back, and the GC
	// drains what an idle server no longer needs, so a burst of maximal
	// frames is never pinned.
	frames   sync.Pool
	frameCap int
}

// New assembles a realtime kernel over store (page size taken from the
// store) and wraps it in a command loop. Serve or ListenAndServe starts
// accepting.
func New(store substrate.Store, opts ...Option) *Server {
	o := defaults()
	for _, fn := range opts {
		fn(&o)
	}
	k := core.New(core.Config{
		Frames:        o.frames,
		PageSize:      store.PageSize(),
		BurstFraction: 0.5, // the paper's partition_burst figure
		Substrate:     substrate.Config{Kind: substrate.KindReal, Store: store},
	})
	s := &Server{
		loop:  core.NewLoop(k),
		opts:  o,
		conns: make(map[net.Conn]struct{}),
		sem:   make(chan struct{}, o.maxConns),
		// One page write plus header room, the margin wire.MaxFrame gives
		// the largest page.
		frameCap: store.PageSize() + 128,
	}
	s.frames.New = func() any {
		b := make([]byte, 0, s.frameCap)
		return &b
	}
	return s
}

// Loop exposes the server's command loop for in-process callers (tests,
// mixed local+remote deployments). The loop is shared with the network —
// use Call/typed methods, never touch the kernel directly.
func (s *Server) Loop() *core.Loop { return s.loop }

// Addr reports the bound listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe listens on addr ("host:port"; ":0" picks a port) and
// serves until Close. It returns once the listener is bound; accepting runs
// on a background goroutine. Use Addr for the bound address.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Serve accepts on a caller-provided listener until Close. Blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	s.acceptLoop(ln)
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.sem <- struct{}{} // connection slot (WithMaxConns)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			<-s.sem
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() { <-s.sem }()
			s.handle(c)
		}()
	}
}

// Close stops accepting, closes live connections, waits for their handlers
// to drain (each frees its session's regions through the loop), then closes
// the loop. The store passed to New is untouched. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	s.loop.Close()
}

// forget drops a finished connection from the close set.
func (s *Server) forget(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// handle runs one connection: a reader goroutine decodes frames into a
// bounded queue; this goroutine batches them onto the loop and writes
// replies. On any exit path the session's regions are freed through the
// loop, so a connection kill mid-stream never leaks kernel state.
func (s *Server) handle(c net.Conn) {
	defer s.forget(c)
	defer c.Close()

	cs := &conn{s: s, sess: core.NewCacheSession(), batch: make([]queued, 0, s.opts.maxBatch)}
	defer func() {
		// The loop may already be closed during server shutdown; region
		// teardown is then part of kernel teardown and nothing leaks.
		_ = s.loop.Call(func(k *core.Kernel) error { cs.sess.FreeAll(k); return nil })
	}()

	reqs := make(chan queued, 4*s.opts.maxBatch)
	done := make(chan struct{}) // unblocks the reader if the batcher quits first
	defer close(done)
	go s.readLoop(c, reqs, done)

	apply := cs.applyBatch // bound once: every hop hands the loop the same func
	for {
		first, ok := <-reqs
		if !ok {
			return
		}
		cs.batch = append(cs.batch[:0], first)
		// Fill the batch from what has already arrived.
	drain:
		for len(cs.batch) < s.opts.maxBatch {
			select {
			case q, ok := <-reqs:
				if !ok {
					break drain
				}
				cs.batch = append(cs.batch, q)
			default:
				break drain
			}
		}

		// One Loop hop for the whole batch. Once it returns nothing reads a
		// request's Data again, so the frames go back to the pool.
		cs.reply = cs.reply[:0]
		err := s.loop.Call(apply)
		for _, q := range cs.batch {
			s.recycle(q.frame)
		}
		clear(cs.batch) // keep no frame the pool refused reachable
		if err != nil {
			return // loop closed: server shutting down
		}
		if _, err := c.Write(cs.reply); err != nil {
			return
		}
	}
}

// conn is one connection's batcher state. Its applyBatch method value is
// bound once per connection, so a batch's Loop hop allocates nothing.
type conn struct {
	s     *Server
	sess  *core.CacheSession
	batch []queued
	reply []byte // the batch's reply frames, written with one Write
}

// queued is one decoded request and the pooled frame buffer its Data
// aliases.
type queued struct {
	req   wire.Request
	frame *[]byte
}

// applyBatch executes the batch on the engine goroutine.
func (cs *conn) applyBatch(k *core.Kernel) error {
	for i := range cs.batch {
		cs.reply = cs.s.execute(k, cs.sess, cs.batch[i].req, cs.reply)
	}
	return nil
}

// recycle returns a frame buffer to the pool unless a frame larger than a
// page write grew it.
func (s *Server) recycle(frame *[]byte) {
	if cap(*frame) <= s.frameCap {
		s.frames.Put(frame)
	}
}

// readLoop decodes frames off the connection into reqs until the peer goes
// away or sends garbage; either way the channel closes and the batcher
// finishes what it has.
func (s *Server) readLoop(c net.Conn, reqs chan<- queued, done <-chan struct{}) {
	defer close(reqs)
	in := bufio.NewReaderSize(c, 64*1024)
	hello := false
	for {
		// Requests are queued past the read and a write's Data aliases its
		// frame, so each frame has its own pooled buffer until its batch
		// has been applied. Allocation stays bounded by wire.MaxFrame.
		buf := s.frames.Get().(*[]byte)
		frame, err := wire.ReadFrame(in, *buf)
		if err != nil {
			return // EOF, reset, or malformed prefix — drop the conn
		}
		*buf = frame
		req, err := wire.DecodeRequest(frame)
		if err != nil {
			return // protocol violation: no recovery mid-stream
		}
		if !hello {
			if req.Op != wire.OpHello || req.Magic != wire.Magic || req.Version != wire.Version {
				return
			}
			hello = true
		}
		select {
		case reqs <- queued{req, buf}:
		case <-done:
			return
		}
	}
}

// execute applies one decoded request against the kernel (on the engine
// goroutine) and appends its reply frame to dst.
func (s *Server) execute(k *core.Kernel, sess *core.CacheSession, req wire.Request, dst []byte) []byte {
	fail := func(err error) []byte {
		return wire.AppendErrorResp(dst, req.Seq, wire.StatusFor(err), err.Error())
	}
	switch req.Op {
	case wire.OpHello:
		return wire.AppendHelloResp(dst, req.Seq, uint32(k.VM.PageSize()))
	case wire.OpOpen:
		var opts []core.RegionOption
		if req.Source != "" {
			opts = append(opts, core.WithPolicySource(req.Name, req.Source))
		}
		if req.Retry > 0 {
			// CacheSession.Open caps the budget for every transport.
			opts = append(opts, core.WithRegionRetryBudget(int(req.Retry)))
		}
		r, err := sess.Open(k, int(req.Pages), opts...)
		if err != nil {
			return fail(err)
		}
		return wire.AppendOpenResp(dst, req.Seq, uint32(r))
	case wire.OpFree:
		if err := sess.Free(k, core.RegionID(req.Region)); err != nil {
			return fail(err)
		}
		return wire.AppendAck(dst, req.Seq)
	case wire.OpWrite:
		if err := sess.Write(k, core.RegionID(req.Region), int(req.Page), req.Data); err != nil {
			return fail(err)
		}
		return wire.AppendAck(dst, req.Seq)
	case wire.OpRead:
		// Clamp before reserving: a hostile MaxLen must not size the reply.
		maxLen := min(int(req.MaxLen), k.VM.PageSize())
		// The page is copied straight into the reply, where AppendReadResp
		// puts the payload: the header then fills the gap in front of it
		// and the payload's append copies onto itself. No buffer per read.
		at := len(dst) + readRespHeader
		dst = slices.Grow(dst, readRespHeader+maxLen)
		n, err := sess.Read(k, core.RegionID(req.Region), int(req.Page), dst[at:at+maxLen])
		if err != nil {
			return fail(err)
		}
		return wire.AppendReadResp(dst, req.Seq, dst[at:at+n])
	case wire.OpTouch:
		if err := sess.Touch(k, core.RegionID(req.Region), int(req.Page)); err != nil {
			return fail(err)
		}
		return wire.AppendAck(dst, req.Seq)
	case wire.OpStats:
		// A conversion, not a field-by-field copy: a counter added to one
		// struct and not the other fails the build.
		return wire.AppendStatsResp(dst, req.Seq, wire.Stats(sess.Stats(k)))
	}
	return fail(fmt.Errorf("server: unhandled op %d: %w", req.Op, errUnhandled))
}

// readRespHeader is the length of a read reply up to its payload.
var readRespHeader = len(wire.AppendReadResp(nil, 0, nil))

// errUnhandled is unreachable while the decoder and this switch agree on
// the op set; it exists so a future op added to one but not the other fails
// loudly instead of silently.
var errUnhandled = errors.New("op decoded but not executable")
