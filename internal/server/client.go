package server

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"sync"

	"hipec/internal/core"
	"hipec/internal/hiperr"
	"hipec/internal/wire"
)

// Client is the network half of the client seam: it speaks the wire
// protocol to a Server and exposes the same typed command surface as the
// in-process *core.Loop, so application code written against the
// hipec.Client interface runs unchanged against either.
//
// A Client is safe for concurrent use. Requests from concurrent goroutines
// are pipelined over one connection — which is precisely what feeds the
// server's per-connection batching: every frame already queued behind the
// first rides the same Loop hop.
type Client struct {
	conn net.Conn

	wmu  sync.Mutex // serializes frame building and writes
	wbuf []byte     // the frame being written, reused across requests

	mu      sync.Mutex // guards seq, pending, sticky err
	seq     uint32
	pending map[uint32]*call // nil slot = fire-and-forget
	err     error            // sticky transport failure

	pageSize int
	readerWG sync.WaitGroup
}

// call is the reply slot of one in-flight round trip. After send it is
// completed exactly once — by the reader when the reply arrives, by fail
// when the transport dies, or by send when the frame cannot be built — and
// done carries that one signal.
type call struct {
	buf  []byte // a read reply's payload is copied here
	resp wire.Response
	err  error
	done chan struct{} // capacity 1
}

// complete fills the slot and wakes its waiter. A nil slot (fire-and-forget)
// has no waiter.
func (cl *call) complete(resp wire.Response, err error) {
	if cl == nil {
		return
	}
	cl.resp, cl.err = resp, err
	cl.done <- struct{}{}
}

// callPool recycles reply slots. A slot goes back only after its waiter
// has received the one signal, so a recycled slot's done is empty.
var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// Dial connects to a HiPEC server, performs the hello exchange, and returns
// a ready client.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		pending: make(map[uint32]*call),
	}
	c.readerWG.Add(1)
	go c.readLoop()
	resp, err := c.roundTrip(nil, func(dst []byte, seq uint32) ([]byte, error) {
		return wire.AppendHello(dst, seq), nil
	})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("server hello: %w", err)
	}
	c.pageSize = int(resp.PageSize)
	if c.pageSize <= 0 {
		c.Close()
		return nil, fmt.Errorf("server hello: bad page size %d", resp.PageSize)
	}
	return c, nil
}

// errClosed is the sticky error after Close or a transport failure.
var errClosed = fmt.Errorf("hipec client: connection closed")

// send registers cl under a fresh seq (nil cl = discard the reply), builds
// the frame into the connection's write buffer, and writes it. Whatever
// happens, a non-nil cl is completed exactly once, so its caller always
// waits on cl.done; the error is for fire-and-forget callers.
func (c *Client) send(cl *call, build func(dst []byte, seq uint32) ([]byte, error)) error {
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		cl.complete(wire.Response{}, err)
		return err
	}
	c.seq++
	seq := c.seq
	c.pending[seq] = cl
	c.mu.Unlock()

	c.wmu.Lock()
	frame, err := build(c.wbuf[:0], seq)
	if err != nil {
		c.wmu.Unlock()
		// Never sent. fail may already have claimed and completed the slot.
		c.mu.Lock()
		_, mine := c.pending[seq]
		delete(c.pending, seq)
		c.mu.Unlock()
		if mine {
			cl.complete(wire.Response{}, err)
		}
		return err
	}
	c.wbuf = frame
	_, err = c.conn.Write(frame)
	c.wmu.Unlock()
	if err != nil {
		c.fail(err) // completes the slot unless the reader already has
		return err
	}
	return nil
}

// roundTrip sends one request and waits for its reply. A read reply's
// payload is copied into buf and resp.Data is that copy.
func (c *Client) roundTrip(buf []byte, build func(dst []byte, seq uint32) ([]byte, error)) (wire.Response, error) {
	cl := callPool.Get().(*call)
	cl.buf = buf
	_ = c.send(cl, build)
	<-cl.done
	resp, err := cl.resp, cl.err
	cl.buf, cl.resp, cl.err = nil, wire.Response{}, nil
	callPool.Put(cl)
	if err == nil && resp.Status != wire.StatusOK {
		err = wire.SentinelError(resp.Status, resp.Msg)
	}
	return resp, err
}

// fail records the first transport error, completes every pending slot
// with it, and tears the connection down.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for seq, cl := range c.pending {
		delete(c.pending, seq)
		cl.complete(wire.Response{}, c.err)
	}
	c.mu.Unlock()
	c.conn.Close()
}

// readLoop delivers replies to their slots until the connection dies.
func (c *Client) readLoop() {
	defer c.readerWG.Done()
	in := bufio.NewReaderSize(c.conn, 64*1024)
	var buf []byte
	for {
		frame, err := wire.ReadFrame(in, buf)
		if err != nil {
			c.fail(fmt.Errorf("hipec client: %w", err))
			return
		}
		buf = frame[:0]
		resp, err := wire.DecodeResponse(frame)
		if err != nil {
			c.fail(fmt.Errorf("hipec client: %w", err))
			return
		}
		c.mu.Lock()
		cl, ok := c.pending[resp.Seq]
		delete(c.pending, resp.Seq)
		c.mu.Unlock()
		if !ok {
			c.fail(fmt.Errorf("hipec client: reply for unknown seq %d", resp.Seq))
			return
		}
		if cl == nil {
			continue // fire-and-forget (TouchAsync): reply discarded
		}
		// Data aliases the read buffer, which the next ReadFrame reuses:
		// copy it straight into the caller's buffer.
		if resp.Data != nil {
			resp.Data = cl.buf[:copy(cl.buf, resp.Data)]
		}
		cl.complete(resp, nil)
	}
}

// ---- the typed command surface (mirrors *core.Loop's methods) ----

// Open allocates a region of pages pages on the server and returns its
// handle. Policy must arrive as source (WithPolicySource) — a *Spec does
// not serialize, so WithPolicySpec is rejected here.
func (c *Client) Open(pages int, opts ...core.RegionOption) (core.RegionID, error) {
	o := core.ResolveRegionOptions(opts)
	if o.Spec != nil {
		return 0, fmt.Errorf("hipec client: WithPolicySpec is in-process only; use WithPolicySource: %w", hiperr.ErrBadRequest)
	}
	if pages < 0 || int64(pages) > math.MaxUint32 {
		return 0, fmt.Errorf("hipec client: region size %d pages out of range: %w", pages, hiperr.ErrBadRequest)
	}
	// A non-positive budget means "kernel default", as in-process; 0 is its
	// wire spelling.
	retry := uint32(min(max(int64(o.Retry), 0), math.MaxUint32))
	resp, err := c.roundTrip(nil, func(dst []byte, seq uint32) ([]byte, error) {
		return wire.AppendOpen(dst, seq, uint32(pages), o.Name, o.Source, retry)
	})
	if err != nil {
		return 0, err
	}
	return core.RegionID(resp.Region), nil
}

// WritePage write-faults page page of region r and stores data (length <=
// PageSize) at its head.
func (c *Client) WritePage(r core.RegionID, page int, data []byte) error {
	p, err := wirePage(page)
	if err != nil {
		return err
	}
	if len(data) > c.pageSize {
		return fmt.Errorf("hipec client: payload %d bytes exceeds page size %d: %w", len(data), c.pageSize, hiperr.ErrBadRequest)
	}
	_, err = c.roundTrip(nil, func(dst []byte, seq uint32) ([]byte, error) {
		return wire.AppendWrite(dst, seq, uint32(r), p, data)
	})
	return err
}

// ReadPage touch-faults page page of region r and copies up to len(buf)
// payload bytes into buf, returning the count.
func (c *Client) ReadPage(r core.RegionID, page int, buf []byte) (int, error) {
	p, err := wirePage(page)
	if err != nil {
		return 0, err
	}
	resp, err := c.roundTrip(buf, func(dst []byte, seq uint32) ([]byte, error) {
		return wire.AppendRead(dst, seq, uint32(r), p, uint32(len(buf))), nil
	})
	if err != nil {
		return 0, err
	}
	return len(resp.Data), nil
}

// TouchPage read-faults page page of region r.
func (c *Client) TouchPage(r core.RegionID, page int) error {
	p, err := wirePage(page)
	if err != nil {
		return err
	}
	_, err = c.roundTrip(nil, func(dst []byte, seq uint32) ([]byte, error) {
		return wire.AppendTouch(dst, seq, uint32(r), p), nil
	})
	return err
}

// TouchAsync sends a touch without waiting for the reply, which is
// discarded when it arrives. True means "accepted for transmission", not
// "applied" — the same enqueued-not-guaranteed contract as Loop.Async,
// stretched over TCP.
func (c *Client) TouchAsync(r core.RegionID, page int) bool {
	p, err := wirePage(page)
	if err != nil {
		return false
	}
	return c.send(nil, func(dst []byte, seq uint32) ([]byte, error) {
		return wire.AppendTouch(dst, seq, uint32(r), p), nil
	}) == nil
}

// wirePage narrows a page index to the wire's 32 bits. An index the wire
// cannot carry is refused, never truncated onto another page: in-process,
// the same index is an out-of-range ErrBadRequest.
func wirePage(page int) (uint32, error) {
	if page < 0 || int64(page) > math.MaxUint32 {
		return 0, fmt.Errorf("hipec client: page %d out of range: %w", page, hiperr.ErrBadRequest)
	}
	return uint32(page), nil
}

// FreeRegion releases region r on the server.
func (c *Client) FreeRegion(r core.RegionID) error {
	_, err := c.roundTrip(nil, func(dst []byte, seq uint32) ([]byte, error) {
		return wire.AppendFree(dst, seq, uint32(r)), nil
	})
	return err
}

// Stats snapshots the server's machine-wide counters.
func (c *Client) Stats() (core.CacheStats, error) {
	resp, err := c.roundTrip(nil, func(dst []byte, seq uint32) ([]byte, error) {
		return wire.AppendStats(dst, seq), nil
	})
	if err != nil {
		return core.CacheStats{}, err
	}
	return core.CacheStats(resp.Stats), nil
}

// PageSize reports the server's page size (learned in the hello exchange).
func (c *Client) PageSize() int { return c.pageSize }

// Close tears down the connection. The server frees the session's regions
// when it sees the disconnect. Idempotent; concurrent in-flight calls
// return transport errors.
func (c *Client) Close() {
	c.fail(errClosed)
	c.readerWG.Wait()
}
