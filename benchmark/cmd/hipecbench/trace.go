package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hipec"
	"hipec/internal/substrate"
)

// Span names, one per layer boundary the benchmark can reach from its own
// files. Spans inside the program are a later change.
const (
	spanEncodeReq = iota
	spanDecodeReq
	spanLoopCall
	spanSession
	spanStoreRead
	spanStoreWrite
	spanEncodeResp
	spanDecodeResp
	spanNetCall
	spanSimBuild
	spanSimJoin
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"wire.encode_req", "wire.decode_req", "core.loop.call", "core.session",
	"store.read", "store.write", "wire.encode_resp", "wire.decode_resp",
	"netclient.call", "sim.build", "sim.join",
}

// span is one timed call into a layer. Spans of one operation share op;
// parent is the span that caused this one, 0 for the operation's own.
type span struct {
	name       uint8
	id, parent uint32
	op         uint32
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in memory until the run ends. The lock is for the
// store wrapper: the kernel's timers may write a page out on the loop
// goroutine while the benchmark's goroutine records a span of its own.
type tracer struct {
	t0   time.Time
	next atomic.Uint32
	cur  atomic.Uint64 // parent<<32 | op of the session span now running
	mu   sync.Mutex
	all  []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), all: make([]span, 0, capacity)}
}

// id reserves a span's identifier before it starts, so that children can
// name their parent while it is still running.
func (t *tracer) id() uint32 { return t.next.Add(1) }

func (t *tracer) record(name uint8, id, parent, op uint32, start, end time.Time) {
	s := span{name, id, parent, op, int64(start.Sub(t.t0)), int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.all = append(t.all, s)
	t.mu.Unlock()
}

// setCurrent names the span store calls are children of; 0, 0 outside one.
func (t *tracer) setCurrent(parent, op uint32) { t.cur.Store(uint64(parent)<<32 | uint64(op)) }

func (t *tracer) current() (parent, op uint32) {
	v := t.cur.Load()
	return uint32(v >> 32), uint32(v)
}

// selfTimes is each span's duration minus the part its children cover,
// indexed by span id. Children of one span never overlap here: every span
// of an operation is recorded by one goroutine at a time.
func selfTimes(spans []span) []int64 {
	var maxID uint32
	for _, s := range spans {
		if s.id > maxID {
			maxID = s.id
		}
	}
	self := make([]int64, maxID+1)
	for _, s := range spans {
		self[s.id] += s.end - s.start
		if s.parent != 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// writeSpans writes the spans as a JSON array, one span a line.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	bw.WriteString("[\n")
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(bw, `{"name":%q,"id":%d,"parent":%d,"op":%d,"start_ns":%d,"end_ns":%d}%s`+"\n",
			spanNames[s.name], s.id, s.parent, s.op, s.start, s.end, sep)
	}
	bw.WriteString("]\n")
	return bw.Flush()
}

// tracedStore sits between the kernel and the workload's store and records
// every page transfer as a child span of the session call that caused it
// (or of none: the kernel's timers write pages out too). It forwards the
// optional store surfaces, so the kernel sees the same store it would have.
type tracedStore struct {
	hipec.StoreBackend
	tr *tracer
}

func (s *tracedStore) ReadPage(key substrate.PageKey) ([]byte, bool, error) {
	start := time.Now()
	data, ok, err := s.StoreBackend.ReadPage(key)
	parent, op := s.tr.current()
	s.tr.record(spanStoreRead, s.tr.id(), parent, op, start, time.Now())
	return data, ok, err
}

func (s *tracedStore) WritePage(key substrate.PageKey, data []byte) error {
	start := time.Now()
	err := s.StoreBackend.WritePage(key, data)
	parent, op := s.tr.current()
	s.tr.record(spanStoreWrite, s.tr.id(), parent, op, start, time.Now())
	return err
}

func (s *tracedStore) DeletePage(key substrate.PageKey) bool {
	d, ok := s.StoreBackend.(hipec.StoreDeleter)
	return ok && d.DeletePage(key)
}

func (s *tracedStore) Sync() error {
	if y, ok := s.StoreBackend.(hipec.StoreSyncer); ok {
		return y.Sync()
	}
	return nil
}

func (s *tracedStore) StoreIO() (reads, writes int64) {
	if io, ok := s.StoreBackend.(hipec.StoreIOStats); ok {
		return io.StoreIO()
	}
	return 0, 0
}

// writeTrace writes the spans of a workload's traced run to
// <dir>/trace-<workload>.json and returns the file's name.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return "", err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return "", err
	}
	return f.Name(), f.Close()
}
