package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		// recorded in order of completion, children before parents
		{name: spanStoreRead, id: 3, parent: 2, op: 1, start: 20, end: 50},
		{name: spanStoreWrite, id: 4, parent: 2, op: 1, start: 50, end: 70},
		{name: spanSession, id: 2, parent: 1, op: 1, start: 10, end: 80},
		{name: spanEncodeResp, id: 5, parent: 1, op: 1, start: 80, end: 85},
		{name: spanLoopCall, id: 1, parent: 0, op: 1, start: 0, end: 100},
		{name: spanDecodeResp, id: 6, parent: 0, op: 1, start: 100, end: 104},
	}
	self := selfTimes(spans)
	want := map[uint32]int64{1: 100 - 70 - 5, 2: 70 - 30 - 20, 3: 30, 4: 20, 5: 5, 6: 4}
	var total int64
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
		total += self[id]
	}
	if total != 104 {
		t.Errorf("self times sum to %d, want the operation's 104", total)
	}
}

func TestWriteSpansKeepsParentLinks(t *testing.T) {
	var buf bytes.Buffer
	in := []span{
		{name: spanSession, id: 2, parent: 1, op: 7, start: 10, end: 80},
		{name: spanLoopCall, id: 1, parent: 0, op: 7, start: 0, end: 100},
	}
	if err := writeSpans(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []struct {
		Name           string
		ID, Parent, Op uint32
		StartNS        int64 `json:"start_ns"`
		EndNS          int64 `json:"end_ns"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("span file is not JSON: %v\n%s", err, buf.String())
	}
	if len(out) != 2 || out[0].Name != "core.session" || out[0].Parent != out[1].ID ||
		out[0].Op != 7 || out[0].StartNS != 10 || out[0].EndNS != 80 {
		t.Errorf("spans read back as %+v", out)
	}
}
