package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"hipec/internal/hiperr"
)

// frame pushes one encoded frame through ReadFrame, asserting the stream
// layer round-trips it intact.
func frame(t *testing.T, enc []byte) []byte {
	t.Helper()
	payload, err := ReadFrame(bytes.NewReader(enc), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if len(enc) != len(payload)+4 {
		t.Fatalf("frame length prefix %d does not cover the %d-byte encoding", len(payload), len(enc))
	}
	return payload
}

func TestRequestRoundTrip(t *testing.T) {
	open, err := AppendOpen(nil, 7, 96, "lru", "policy lru { }", 3)
	if err != nil {
		t.Fatal(err)
	}
	write, err := AppendWrite(nil, 9, 2, 41, []byte{0xde, 0xad})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		enc  []byte
		want Request
	}{
		{"hello", AppendHello(nil, 1), Request{Op: OpHello, Seq: 1, Magic: Magic, Version: Version}},
		{"open", open, Request{Op: OpOpen, Seq: 7, Pages: 96, Name: "lru", Source: "policy lru { }", Retry: 3}},
		{"free", AppendFree(nil, 8, 2), Request{Op: OpFree, Seq: 8, Region: 2}},
		{"write", write, Request{Op: OpWrite, Seq: 9, Region: 2, Page: 41, Data: []byte{0xde, 0xad}}},
		{"read", AppendRead(nil, 10, 2, 5, 4096), Request{Op: OpRead, Seq: 10, Region: 2, Page: 5, MaxLen: 4096}},
		{"touch", AppendTouch(nil, 11, 2, 5), Request{Op: OpTouch, Seq: 11, Region: 2, Page: 5}},
		{"stats", AppendStats(nil, 12), Request{Op: OpStats, Seq: 12}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeRequest(frame(t, tc.enc))
			if err != nil {
				t.Fatalf("DecodeRequest: %v", err)
			}
			if got.Op != tc.want.Op || got.Seq != tc.want.Seq ||
				got.Magic != tc.want.Magic || got.Version != tc.want.Version ||
				got.Pages != tc.want.Pages || got.Name != tc.want.Name ||
				got.Source != tc.want.Source || got.Retry != tc.want.Retry ||
				got.Region != tc.want.Region || got.Page != tc.want.Page ||
				got.MaxLen != tc.want.MaxLen || !bytes.Equal(got.Data, tc.want.Data) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

func TestResponseRoundTrip(t *testing.T) {
	st := Stats{Accesses: 1, Hits: 2, Faults: 3, PageIns: 4, ZeroFills: 5, PageOuts: 6, Evictions: 7, StorePages: 8}
	cases := []struct {
		name string
		enc  []byte
		want Response
	}{
		{"ack", AppendAck(nil, 1), Response{Status: StatusOK, Kind: KindAck, Seq: 1}},
		{"hello", AppendHelloResp(nil, 2, 4096), Response{Status: StatusOK, Kind: KindHello, Seq: 2, PageSize: 4096}},
		{"open", AppendOpenResp(nil, 3, 9), Response{Status: StatusOK, Kind: KindOpen, Seq: 3, Region: 9}},
		{"read", AppendReadResp(nil, 4, []byte{1, 2, 3}), Response{Status: StatusOK, Kind: KindRead, Seq: 4, Data: []byte{1, 2, 3}}},
		{"stats", AppendStatsResp(nil, 5, st), Response{Status: StatusOK, Kind: KindStats, Seq: 5, Stats: st}},
		{"error", AppendErrorResp(nil, 6, StatusMinFrame, "too few frames"),
			Response{Status: StatusMinFrame, Kind: KindAck, Seq: 6, Msg: "too few frames"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeResponse(frame(t, tc.enc))
			if err != nil {
				t.Fatalf("DecodeResponse: %v", err)
			}
			if got.Status != tc.want.Status || got.Kind != tc.want.Kind || got.Seq != tc.want.Seq ||
				got.Msg != tc.want.Msg || got.PageSize != tc.want.PageSize ||
				got.Region != tc.want.Region || got.Stats != tc.want.Stats ||
				!bytes.Equal(got.Data, tc.want.Data) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// Batched frames decode in order off one stream with a reused buffer — the
// server's read path.
func TestFrameStreamReuse(t *testing.T) {
	var stream []byte
	stream = AppendHello(stream, 1)
	stream = AppendTouch(stream, 2, 1, 0)
	stream = AppendStats(stream, 3)
	r := bytes.NewReader(stream)
	var buf []byte
	var seqs []uint32
	for i := 0; i < 3; i++ {
		payload, err := ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = payload[:0]
		req, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		seqs = append(seqs, req.Seq)
	}
	if seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 3 {
		t.Fatalf("frames decoded out of order: %v", seqs)
	}
	if _, err := ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

// A reused buffer, across frames that grow and shrink, yields the same
// frames as a fresh buffer per read, and once it has grown to the largest
// frame ReadFrame allocates nothing — the length prefix included.
func TestReadFrameReusedBufferDoesNotAllocate(t *testing.T) {
	write, err := AppendWrite(AppendTouch(nil, 1, 2, 3), 2, 1, 0, bytes.Repeat([]byte{0xab}, 4096))
	if err != nil {
		t.Fatal(err)
	}
	full, err := AppendWrite(AppendStats(write, 3), 4, 1, 1, bytes.Repeat([]byte{0xcd}, 64*1024))
	if err != nil {
		t.Fatal(err)
	}
	stream := AppendHello(AppendTouch(full, 5, 2, 4), 6)

	r := bytes.NewReader(stream)
	var want [][]byte
	for {
		payload, err := ReadFrame(r, nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, payload)
	}
	var buf []byte
	pass := func() {
		r.Reset(stream)
		for i, w := range want {
			payload, err := ReadFrame(r, buf)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if !bytes.Equal(payload, w) {
				t.Fatalf("frame %d: reused buffer read %d bytes that differ from a fresh read", i, len(payload))
			}
			buf = payload[:0]
		}
	}
	pass() // grows buf to the largest frame
	if avg := testing.AllocsPerRun(100, pass); avg != 0 {
		t.Fatalf("ReadFrame with a reused buffer allocates %.2f per pass, want 0", avg)
	}
}

func TestReadFrameMalformedPrefix(t *testing.T) {
	t.Run("zero length", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0}), nil)
		if !errors.Is(err, ErrBadMessage) {
			t.Fatalf("got %v, want ErrBadMessage", err)
		}
	})
	t.Run("oversized claim", func(t *testing.T) {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 1<<31)
		// The reader must refuse before allocating: a hostile prefix
		// claiming 2 GiB costs nothing.
		_, err := ReadFrame(bytes.NewReader(hdr[:]), nil)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("got %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		enc := AppendHello(nil, 1)
		_, err := ReadFrame(bytes.NewReader(enc[:len(enc)-3]), nil)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader([]byte{5, 0}), nil); err == nil {
			t.Fatal("short header accepted")
		}
	})
}

func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	valid := frame(t, AppendTouch(nil, 1, 2, 3))
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := DecodeRequest(append(append([]byte(nil), valid...), 0xff)); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("got %v, want ErrBadMessage", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		if _, err := DecodeRequest(valid[:len(valid)-2]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("unknown op", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[0] = byte(opMax)
		if _, err := DecodeRequest(bad); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("got %v, want ErrBadMessage", err)
		}
	})
	t.Run("write payload over cap", func(t *testing.T) {
		var b []byte
		b = append(b, byte(OpWrite))
		b = appendU32(b, 1)
		b = appendU32(b, 1)
		b = appendU32(b, 0)
		b = appendU32(b, 1<<20) // claims 1 MiB of data
		if _, err := DecodeRequest(b); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("got %v, want ErrBadMessage", err)
		}
	})
	t.Run("open source over cap", func(t *testing.T) {
		var b []byte
		b = append(b, byte(OpOpen))
		b = appendU32(b, 1)
		b = appendU32(b, 8)
		b = appendU32(b, 0)
		b = appendStr(b, "x")
		b = appendU16(b, MaxPolicySource+1)
		if _, err := DecodeRequest(b); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("got %v, want ErrBadMessage", err)
		}
	})
	t.Run("unknown status", func(t *testing.T) {
		resp := frame(t, AppendAck(nil, 1))
		bad := append([]byte(nil), resp...)
		bad[0] = byte(statusMax)
		if _, err := DecodeResponse(bad); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("got %v, want ErrBadMessage", err)
		}
	})
	t.Run("unknown kind", func(t *testing.T) {
		resp := frame(t, AppendAck(nil, 1))
		bad := append([]byte(nil), resp...)
		bad[1] = byte(kindMax)
		if _, err := DecodeResponse(bad); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("got %v, want ErrBadMessage", err)
		}
	})
	t.Run("hello version mismatch", func(t *testing.T) {
		resp := frame(t, AppendHelloResp(nil, 1, 4096))
		bad := append([]byte(nil), resp...)
		bad[6] = byte(Version + 1) // version lives after status, kind, seq
		if _, err := DecodeResponse(bad); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("got %v, want ErrBadMessage", err)
		}
	})
}

func TestEncoderRefusesOversizeInputs(t *testing.T) {
	if _, err := AppendOpen(nil, 1, 1, "x", strings.Repeat("p", MaxPolicySource+1), 0); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("oversize source: got %v, want ErrBadMessage", err)
	}
	if _, err := AppendOpen(nil, 1, 1, strings.Repeat("n", 256), "", 0); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("oversize name: got %v, want ErrBadMessage", err)
	}
	if _, err := AppendWrite(nil, 1, 1, 0, make([]byte, 64*1024+1)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("oversize write: got %v, want ErrBadMessage", err)
	}
}

// The status taxonomy must round-trip sentinels so errors.Is works across
// the network.
func TestStatusSentinelRoundTrip(t *testing.T) {
	for st, sentinel := range statusSentinel {
		err := SentinelError(st, "remote failure")
		if !errors.Is(err, sentinel) {
			t.Errorf("status %d: rebuilt error does not wrap its sentinel", st)
		}
		if got := StatusFor(err); got != st {
			t.Errorf("status %d: round-tripped to %d", st, got)
		}
	}
	if StatusFor(nil) != StatusOK {
		t.Error("nil error must be StatusOK")
	}
	if StatusFor(errors.New("whatever")) != StatusError {
		t.Error("untyped error must be StatusError")
	}
	if SentinelError(StatusOK, "") != nil {
		t.Error("StatusOK must rebuild as nil")
	}
	// ErrPolicyRejected wraps ErrPolicyFault in the kernel taxonomy; the
	// more specific status must win.
	if got := StatusFor(hiperr.ErrPolicyRejected); got != StatusPolicyRejected {
		t.Errorf("ErrPolicyRejected classified as %d", got)
	}
}

// ---- fuzz: the decoder must error on garbage, never panic or over-allocate ----

func FuzzDecodeRequest(f *testing.F) {
	f.Add(AppendHello(nil, 1)[4:])
	open, _ := AppendOpen(nil, 2, 96, "lru", "policy lru { }", 1)
	f.Add(open[4:])
	write, _ := AppendWrite(nil, 3, 1, 5, []byte{1, 2, 3})
	f.Add(write[4:])
	f.Add(AppendRead(nil, 4, 1, 5, 4096)[4:])
	f.Add(AppendStats(nil, 5)[4:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		req, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode without tripping the encoders'
		// own caps (proves the decoder enforced them).
		if len(req.Source) > MaxPolicySource || len(req.Data) > 64*1024 {
			t.Fatalf("decoder accepted oversize fields: source=%d data=%d", len(req.Source), len(req.Data))
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	f.Add(AppendAck(nil, 1)[4:])
	f.Add(AppendHelloResp(nil, 2, 4096)[4:])
	f.Add(AppendReadResp(nil, 3, []byte{9, 9})[4:])
	f.Add(AppendStatsResp(nil, 4, Stats{Accesses: 1})[4:])
	f.Add(AppendErrorResp(nil, 5, StatusDiskIO, "boom")[4:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := DecodeResponse(payload)
		if err != nil {
			return
		}
		if len(resp.Data) > 64*1024 {
			t.Fatalf("decoder accepted %d-byte read payload", len(resp.Data))
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	f.Add(AppendHello(nil, 1))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, stream []byte) {
		payload, err := ReadFrame(bytes.NewReader(stream), nil)
		if err != nil {
			return
		}
		if len(payload) == 0 || len(payload) > MaxFrame || cap(payload) > MaxFrame {
			t.Fatalf("frame reader returned %d bytes (cap %d) outside (0, MaxFrame]", len(payload), cap(payload))
		}
	})
}
