package main

import (
	"reflect"
	"testing"
)

func drain(s *stream, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestStreamIsItsSeed(t *testing.T) {
	for name, spec := range netSpecs {
		for conn, cs := range spec.conns {
			a := drain(newStream(cs, 42, conn), 1000)
			if b := drain(newStream(cs, 42, conn), 1000); !reflect.DeepEqual(a, b) {
				t.Errorf("%s connection %d: the same seed gave two streams", name, conn)
			}
			if b := drain(newStream(cs, 43, conn), 1000); reflect.DeepEqual(a, b) {
				t.Errorf("%s connection %d: another seed gave the same stream", name, conn)
			}
			writes := 0
			for _, o := range a {
				if o.page < 0 || o.page >= cs.pages {
					t.Fatalf("%s connection %d: page %d outside the region", name, conn, o.page)
				}
				if o.kind == opTouch != cs.touch {
					t.Fatalf("%s connection %d: op kind %d does not fit the mix", name, conn, o.kind)
				}
				if o.kind == opWrite {
					writes++
				}
			}
			if got := float64(writes) / 1000; got < cs.writeFrac-0.06 || got > cs.writeFrac+0.06 {
				t.Errorf("%s connection %d: %.2f of ops are writes, want about %.2f", name, conn, got, cs.writeFrac)
			}
		}
	}
	spec := netSpecs["net_rw_4k"]
	if reflect.DeepEqual(drain(newStream(spec.conns[0], 1, 0), 100), drain(newStream(spec.conns[1], 1, 1), 100)) {
		t.Error("the two connections of a workload share one stream")
	}
}

func TestStampDetectsStaleAndForeignPages(t *testing.T) {
	buf := make([]byte, pageSize)
	stampPage(buf, 1, 77, 5)
	if !checkPage(buf, 1, 77, 5) {
		t.Fatal("a page does not check against its own stamp")
	}
	for name, ok := range map[string]bool{
		"older version":    checkPage(buf, 1, 77, 4),
		"other page":       checkPage(buf, 1, 78, 5),
		"other connection": checkPage(buf, 0, 77, 5),
		"short read":       checkPage(buf[:pageSize-8], 1, 77, 5),
	} {
		if ok {
			t.Errorf("%s passed the check", name)
		}
	}
	buf[pageSize-1] ^= 1
	if checkPage(buf, 1, 77, 5) {
		t.Error("a flipped bit in the last word passed the check")
	}
}
