// Package wire is the HiPEC serving protocol: a tiny length-prefixed binary
// framing that carries the typed client command surface (core.CacheSession's
// operations) over a byte stream.
//
// Every frame is a little-endian u32 payload length followed by the payload;
// payloads are capped at MaxFrame so a malformed or hostile peer can never
// make the decoder allocate more than one frame's worth of memory. Request
// payloads are `op seq body`, response payloads `status kind seq body`.
// Responses to one connection are written in request order, so a client may
// pipeline: N requests in flight, N replies back in sequence — which is
// exactly what lets the server batch (decode N frames, apply all N in one
// command-loop hop, write N replies).
//
// The package is pure encode/decode — no net, no goroutines — so the
// decoder can be fuzzed in isolation: malformed prefixes, truncated frames
// and oversized payloads must produce errors, never panics.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hipec/internal/hiperr"
)

// Protocol identity. Version is negotiated by the mandatory first request
// on every connection (OpHello); the server rejects mismatches.
const (
	Magic   uint32 = 0x48695043 // "HiPC"
	Version uint16 = 1
)

// MaxFrame caps one frame's payload: a full page write (64 KiB page ceiling)
// plus header room. The frame reader refuses anything larger before
// allocating, and encoders refuse to build it.
const MaxFrame = 64*1024 + 128

// MaxPolicySource caps the HPL source an OpOpen may carry.
const MaxPolicySource = 32 * 1024

// Op is a request opcode.
type Op uint8

const (
	OpInvalid Op = iota
	// OpHello opens the conversation: magic, version. Must be first.
	OpHello
	// OpOpen allocates a region (pages, optional policy name+source, retry).
	OpOpen
	// OpFree releases a region.
	OpFree
	// OpWrite write-faults a page and stores a payload prefix.
	OpWrite
	// OpRead touch-faults a page and returns up to MaxLen payload bytes.
	OpRead
	// OpTouch read-faults a page, returning no payload.
	OpTouch
	// OpStats snapshots machine-wide counters.
	OpStats
	opMax
)

// Status classifies a response. StatusOK carries a result body; everything
// else is an error whose body is a message string. The non-OK codes mirror
// the hiperr sentinel taxonomy so errors.Is keeps working across the wire.
type Status uint8

const (
	StatusOK Status = iota
	StatusError
	StatusBadRequest
	StatusMinFrame
	StatusDiskIO
	StatusPolicyFault
	StatusPolicyRejected
	StatusRevoked
	StatusBadSpec
	statusMax
)

// statusSentinel maps each non-generic status to its hiperr sentinel.
var statusSentinel = map[Status]error{
	StatusBadRequest:     hiperr.ErrBadRequest,
	StatusMinFrame:       hiperr.ErrMinFrame,
	StatusDiskIO:         hiperr.ErrDiskIO,
	StatusPolicyFault:    hiperr.ErrPolicyFault,
	StatusPolicyRejected: hiperr.ErrPolicyRejected,
	StatusRevoked:        hiperr.ErrRevoked,
	StatusBadSpec:        hiperr.ErrBadSpec,
}

// StatusFor classifies err into the wire taxonomy. Order matters where
// sentinels wrap each other (ErrPolicyRejected wraps ErrPolicyFault).
func StatusFor(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, hiperr.ErrBadRequest):
		return StatusBadRequest
	case errors.Is(err, hiperr.ErrMinFrame):
		return StatusMinFrame
	case errors.Is(err, hiperr.ErrDiskIO):
		return StatusDiskIO
	case errors.Is(err, hiperr.ErrPolicyRejected):
		return StatusPolicyRejected
	case errors.Is(err, hiperr.ErrPolicyFault):
		return StatusPolicyFault
	case errors.Is(err, hiperr.ErrRevoked):
		return StatusRevoked
	case errors.Is(err, hiperr.ErrBadSpec):
		return StatusBadSpec
	default:
		return StatusError
	}
}

// SentinelError rebuilds a typed error from a wire status and message: the
// message for context, the status's sentinel underneath for errors.Is.
func SentinelError(st Status, msg string) error {
	if st == StatusOK {
		return nil
	}
	if sentinel, ok := statusSentinel[st]; ok {
		return fmt.Errorf("%s: %w", msg, sentinel)
	}
	return errors.New(msg)
}

// Kind tags a successful response body.
type Kind uint8

const (
	KindAck Kind = iota // empty body (free/write/touch)
	KindHello
	KindOpen
	KindRead
	KindStats
	kindMax
)

// Stats is the wire form of core.CacheStats.
type Stats struct {
	Accesses, Hits, Faults, PageIns, ZeroFills, PageOuts, Evictions, StorePages int64
}

// Request is one decoded client command. Data aliases the decoded frame
// buffer — consume it before reusing the buffer.
type Request struct {
	Op  Op
	Seq uint32

	Magic   uint32 // OpHello
	Version uint16 // OpHello

	Pages  uint32 // OpOpen
	Name   string // OpOpen: policy name ("" = no policy)
	Source string // OpOpen: HPL policy source
	Retry  uint32 // OpOpen: page-in retry budget (0 = default)

	Region uint32 // region ops
	Page   uint32 // OpWrite/OpRead/OpTouch
	Data   []byte // OpWrite payload
	MaxLen uint32 // OpRead reply size cap
}

// Response is one decoded server reply.
type Response struct {
	Status Status
	Kind   Kind
	Seq    uint32

	Msg      string // non-OK: error message
	PageSize uint32 // KindHello
	Region   uint32 // KindOpen
	Data     []byte // KindRead (aliases the frame buffer)
	Stats    Stats  // KindStats
}

// ---- frame I/O ----

var (
	// ErrFrameTooLarge rejects a length prefix above MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	// ErrTruncated marks a payload shorter than its fields claim.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrBadMessage marks a structurally invalid payload.
	ErrBadMessage = errors.New("wire: malformed message")
)

// ReadFrame reads one length-prefixed frame from r. buf is reused when its
// capacity suffices; the returned slice aliases it. Allocation is bounded
// by MaxFrame no matter what the prefix claims.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The prefix is read into buf too: a local array would escape through
	// the io.Reader call and cost an allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length frame", ErrBadMessage)
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// ---- encode helpers ----

func appendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// appendStr writes a u16 length-prefixed string (encoders bound lengths).
func appendStr(dst []byte, s string) []byte {
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...)
}

// scratch builds one frame: payload assembled after a 4-byte hole, then the
// length is patched in. All Append* functions use it via finish.
func finish(dst []byte, start int) []byte {
	payload := len(dst) - start - 4
	binary.LittleEndian.PutUint32(dst[start:], uint32(payload))
	return dst
}

func begin(dst []byte) ([]byte, int) {
	start := len(dst)
	return append(dst, 0, 0, 0, 0), start
}

// ---- request encoders (client side) ----

// AppendHello encodes the mandatory first request of a connection.
func AppendHello(dst []byte, seq uint32) []byte {
	dst, s := begin(dst)
	dst = append(dst, byte(OpHello))
	dst = appendU32(dst, seq)
	dst = appendU32(dst, Magic)
	dst = appendU16(dst, Version)
	return finish(dst, s)
}

// AppendOpen encodes a region allocation. Name and source lengths are the
// caller's to respect (MaxPolicySource); oversize is caught by the decoder.
func AppendOpen(dst []byte, seq, pages uint32, name, source string, retry uint32) ([]byte, error) {
	if len(source) > MaxPolicySource {
		return dst, fmt.Errorf("%w: policy source %d bytes (cap %d)", ErrBadMessage, len(source), MaxPolicySource)
	}
	if len(name) > 255 {
		return dst, fmt.Errorf("%w: policy name %d bytes (cap 255)", ErrBadMessage, len(name))
	}
	dst, s := begin(dst)
	dst = append(dst, byte(OpOpen))
	dst = appendU32(dst, seq)
	dst = appendU32(dst, pages)
	dst = appendU32(dst, retry)
	dst = appendStr(dst, name)
	dst = appendStr(dst, source)
	return finish(dst, s), nil
}

// AppendFree encodes a region release.
func AppendFree(dst []byte, seq, region uint32) []byte {
	dst, s := begin(dst)
	dst = append(dst, byte(OpFree))
	dst = appendU32(dst, seq)
	dst = appendU32(dst, region)
	return finish(dst, s)
}

// AppendWrite encodes a page write. len(data) must fit a frame.
func AppendWrite(dst []byte, seq, region, page uint32, data []byte) ([]byte, error) {
	if len(data) > 64*1024 {
		return dst, fmt.Errorf("%w: write payload %d bytes", ErrBadMessage, len(data))
	}
	dst, s := begin(dst)
	dst = append(dst, byte(OpWrite))
	dst = appendU32(dst, seq)
	dst = appendU32(dst, region)
	dst = appendU32(dst, page)
	dst = appendU32(dst, uint32(len(data)))
	dst = append(dst, data...)
	return finish(dst, s), nil
}

// AppendRead encodes a page read returning at most maxLen payload bytes.
func AppendRead(dst []byte, seq, region, page, maxLen uint32) []byte {
	dst, s := begin(dst)
	dst = append(dst, byte(OpRead))
	dst = appendU32(dst, seq)
	dst = appendU32(dst, region)
	dst = appendU32(dst, page)
	dst = appendU32(dst, maxLen)
	return finish(dst, s)
}

// AppendTouch encodes a page touch.
func AppendTouch(dst []byte, seq, region, page uint32) []byte {
	dst, s := begin(dst)
	dst = append(dst, byte(OpTouch))
	dst = appendU32(dst, seq)
	dst = appendU32(dst, region)
	dst = appendU32(dst, page)
	return finish(dst, s)
}

// AppendStats encodes a stats snapshot request.
func AppendStats(dst []byte, seq uint32) []byte {
	dst, s := begin(dst)
	dst = append(dst, byte(OpStats))
	dst = appendU32(dst, seq)
	return finish(dst, s)
}

// ---- response encoders (server side) ----

// AppendAck encodes an empty success reply.
func AppendAck(dst []byte, seq uint32) []byte {
	dst, s := begin(dst)
	dst = append(dst, byte(StatusOK), byte(KindAck))
	dst = appendU32(dst, seq)
	return finish(dst, s)
}

// AppendErrorResp encodes a failure reply. The message is truncated to fit
// one frame.
func AppendErrorResp(dst []byte, seq uint32, st Status, msg string) []byte {
	if st == StatusOK {
		st = StatusError
	}
	if len(msg) > 4096 {
		msg = msg[:4096]
	}
	dst, s := begin(dst)
	dst = append(dst, byte(st), byte(KindAck))
	dst = appendU32(dst, seq)
	dst = appendStr(dst, msg)
	return finish(dst, s)
}

// AppendHelloResp encodes the hello reply carrying the server's page size.
func AppendHelloResp(dst []byte, seq, pageSize uint32) []byte {
	dst, s := begin(dst)
	dst = append(dst, byte(StatusOK), byte(KindHello))
	dst = appendU32(dst, seq)
	dst = appendU16(dst, Version)
	dst = appendU32(dst, pageSize)
	return finish(dst, s)
}

// AppendOpenResp encodes a successful region allocation.
func AppendOpenResp(dst []byte, seq, region uint32) []byte {
	dst, s := begin(dst)
	dst = append(dst, byte(StatusOK), byte(KindOpen))
	dst = appendU32(dst, seq)
	dst = appendU32(dst, region)
	return finish(dst, s)
}

// AppendReadResp encodes a successful page read.
func AppendReadResp(dst []byte, seq uint32, data []byte) []byte {
	dst, s := begin(dst)
	dst = append(dst, byte(StatusOK), byte(KindRead))
	dst = appendU32(dst, seq)
	dst = appendU32(dst, uint32(len(data)))
	dst = append(dst, data...)
	return finish(dst, s)
}

// AppendStatsResp encodes a counter snapshot.
func AppendStatsResp(dst []byte, seq uint32, cs Stats) []byte {
	dst, s := begin(dst)
	dst = append(dst, byte(StatusOK), byte(KindStats))
	dst = appendU32(dst, seq)
	for _, v := range [...]int64{cs.Accesses, cs.Hits, cs.Faults, cs.PageIns,
		cs.ZeroFills, cs.PageOuts, cs.Evictions, cs.StorePages} {
		dst = appendU64(dst, uint64(v))
	}
	return finish(dst, s)
}

// ---- decode ----

// cursor is a bounds-checked little-endian reader over one payload.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) need(n int) bool {
	if c.err != nil {
		return false
	}
	if c.off+n > len(c.b) {
		c.err = fmt.Errorf("%w: want %d bytes at offset %d of %d", ErrTruncated, n, c.off, len(c.b))
		return false
	}
	return true
}

func (c *cursor) u8() uint8 {
	if !c.need(1) {
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u16() uint16 {
	if !c.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *cursor) u32() uint32 {
	if !c.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if !c.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

// bytesN returns n payload bytes without copying (aliases the frame buffer).
func (c *cursor) bytesN(n int) []byte {
	if n < 0 || !c.need(n) {
		if c.err == nil {
			c.err = fmt.Errorf("%w: negative length", ErrBadMessage)
		}
		return nil
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v
}

func (c *cursor) str() string { return string(c.bytesN(int(c.u16()))) }

// rest errors unless the payload was fully consumed — trailing garbage is a
// protocol violation, not padding.
func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if c.off != len(c.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(c.b)-c.off)
	}
	return nil
}

// DecodeRequest parses one request payload. The returned Request's Data and
// strings alias payload where possible.
func DecodeRequest(payload []byte) (Request, error) {
	c := &cursor{b: payload}
	var r Request
	r.Op = Op(c.u8())
	r.Seq = c.u32()
	if c.err == nil && (r.Op == OpInvalid || r.Op >= opMax) {
		return r, fmt.Errorf("%w: unknown op %d", ErrBadMessage, r.Op)
	}
	switch r.Op {
	case OpHello:
		r.Magic = c.u32()
		r.Version = c.u16()
	case OpOpen:
		r.Pages = c.u32()
		r.Retry = c.u32()
		r.Name = c.str()
		srcLen := int(c.u16())
		if c.err == nil && srcLen > MaxPolicySource {
			return r, fmt.Errorf("%w: policy source %d bytes (cap %d)", ErrBadMessage, srcLen, MaxPolicySource)
		}
		r.Source = string(c.bytesN(srcLen))
	case OpFree:
		r.Region = c.u32()
	case OpWrite:
		r.Region = c.u32()
		r.Page = c.u32()
		n := c.u32()
		if c.err == nil && n > 64*1024 {
			return r, fmt.Errorf("%w: write payload %d bytes", ErrBadMessage, n)
		}
		r.Data = c.bytesN(int(n))
	case OpRead:
		r.Region = c.u32()
		r.Page = c.u32()
		r.MaxLen = c.u32()
	case OpTouch:
		r.Region = c.u32()
		r.Page = c.u32()
	case OpStats:
		// no body
	}
	if err := c.done(); err != nil {
		return r, err
	}
	return r, nil
}

// DecodeResponse parses one response payload. Data aliases payload.
func DecodeResponse(payload []byte) (Response, error) {
	c := &cursor{b: payload}
	var r Response
	r.Status = Status(c.u8())
	r.Kind = Kind(c.u8())
	r.Seq = c.u32()
	if c.err == nil && r.Status >= statusMax {
		return r, fmt.Errorf("%w: unknown status %d", ErrBadMessage, r.Status)
	}
	if c.err == nil && r.Kind >= kindMax {
		return r, fmt.Errorf("%w: unknown response kind %d", ErrBadMessage, r.Kind)
	}
	if r.Status != StatusOK {
		r.Msg = c.str()
		if err := c.done(); err != nil {
			return r, err
		}
		return r, nil
	}
	switch r.Kind {
	case KindAck:
		// no body
	case KindHello:
		ver := c.u16()
		if c.err == nil && ver != Version {
			return r, fmt.Errorf("%w: server speaks version %d, client %d", ErrBadMessage, ver, Version)
		}
		r.PageSize = c.u32()
	case KindOpen:
		r.Region = c.u32()
	case KindRead:
		n := c.u32()
		if c.err == nil && n > 64*1024 {
			return r, fmt.Errorf("%w: read payload %d bytes", ErrBadMessage, n)
		}
		r.Data = c.bytesN(int(n))
	case KindStats:
		for _, p := range [...]*int64{&r.Stats.Accesses, &r.Stats.Hits, &r.Stats.Faults,
			&r.Stats.PageIns, &r.Stats.ZeroFills, &r.Stats.PageOuts,
			&r.Stats.Evictions, &r.Stats.StorePages} {
			*p = int64(c.u64())
		}
	}
	if err := c.done(); err != nil {
		return r, err
	}
	return r, nil
}
