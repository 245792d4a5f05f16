// Deterministic event-log capture: a Sink that serializes the event stream
// to a line-oriented text format, and a reader that parses it back. Two
// runs of the same deterministic workload produce byte-identical logs, so
// regression checking can move from "diff the final report" to "find the
// first kernel event where two runs diverge" (experiments replaydiff).
package kevent

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hipec/internal/simtime"
)

// LogHeader is the first line of a serialized event log.
const LogHeader = "# hipec kevent log v1"

// LogWriter is a Sink that streams events to w, one record per line:
//
//	<seq> <time-ns> <type> <space> <container> <addr> <arg> <aux> <flag>
//
// Fields are space-separated decimals (addr in hex); seq is the 0-based
// event index, making "first divergent event" reports stable even when a
// log is truncated. Call Flush before reading the underlying file.
type LogWriter struct {
	w   *bufio.Writer
	seq int64
}

// NewLogWriter starts a log on w and writes the header.
func NewLogWriter(w io.Writer) *LogWriter {
	lw := &LogWriter{w: bufio.NewWriterSize(w, 1<<16)}
	fmt.Fprintln(lw.w, LogHeader)
	return lw
}

// Emit implements Sink.
func (lw *LogWriter) Emit(e Event) {
	flag := 0
	if e.Flag {
		flag = 1
	}
	fmt.Fprintf(lw.w, "%d %d %s %d %d %x %d %d %d\n",
		lw.seq, int64(e.Time), e.Type, e.Space, e.Container, e.Addr, e.Arg, e.Aux, flag)
	lw.seq++
}

// Events reports the number of events written so far.
func (lw *LogWriter) Events() int64 { return lw.seq }

// Flush drains buffered output to the underlying writer.
func (lw *LogWriter) Flush() error { return lw.w.Flush() }

// Log is an in-memory capture sink; it appends every event to Events.
type Log struct {
	Events []Event
}

// Emit implements Sink.
func (l *Log) Emit(e Event) { l.Events = append(l.Events, e) }

// WriteTo serializes the captured events in the LogWriter format.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	lw := NewLogWriter(cw)
	for _, e := range l.Events {
		lw.Emit(e)
	}
	err := lw.Flush()
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// ReadLog parses a serialized event log back into records.
func ReadLog(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("kevent: empty log")
	}
	if got := sc.Text(); got != LogHeader {
		return nil, fmt.Errorf("kevent: bad log header %q", got)
	}
	var out []Event
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		e, err := parseRecord(text, int64(len(out)))
		if err != nil {
			return nil, fmt.Errorf("kevent: log line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseRecord(text string, wantSeq int64) (Event, error) {
	var e Event
	f := strings.Fields(text)
	if len(f) != 9 {
		return e, fmt.Errorf("want 9 fields, got %d", len(f))
	}
	seq, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return e, fmt.Errorf("bad seq %q", f[0])
	}
	if seq != wantSeq {
		return e, fmt.Errorf("seq %d out of order (want %d)", seq, wantSeq)
	}
	t, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return e, fmt.Errorf("bad time %q", f[1])
	}
	typ, ok := TypeByName(f[2])
	if !ok {
		return e, fmt.Errorf("unknown event type %q", f[2])
	}
	space, err := strconv.ParseInt(f[3], 10, 32)
	if err != nil {
		return e, fmt.Errorf("bad space %q", f[3])
	}
	ctr, err := strconv.ParseInt(f[4], 10, 32)
	if err != nil {
		return e, fmt.Errorf("bad container %q", f[4])
	}
	addr, err := strconv.ParseInt(f[5], 16, 64)
	if err != nil {
		return e, fmt.Errorf("bad addr %q", f[5])
	}
	arg, err := strconv.ParseInt(f[6], 10, 64)
	if err != nil {
		return e, fmt.Errorf("bad arg %q", f[6])
	}
	aux, err := strconv.ParseInt(f[7], 10, 64)
	if err != nil {
		return e, fmt.Errorf("bad aux %q", f[7])
	}
	switch f[8] {
	case "0":
	case "1":
		e.Flag = true
	default:
		return e, fmt.Errorf("bad flag %q", f[8])
	}
	e.Time = simtime.Time(t)
	e.Type = typ
	e.Space = int32(space)
	e.Container = int32(ctr)
	e.Addr = addr
	e.Arg = arg
	e.Aux = aux
	return e, nil
}

// Format renders one event as a human-readable diagnostic line (used by
// replaydiff divergence reports).
func (e Event) Format(seq int64) string {
	flag := ""
	if e.Flag {
		flag = " flag"
	}
	return fmt.Sprintf("#%d t=%v %s space=%d ctr=%d addr=%#x arg=%d aux=%d%s",
		seq, e.Time, e.Type, e.Space, e.Container, e.Addr, e.Arg, e.Aux, flag)
}
