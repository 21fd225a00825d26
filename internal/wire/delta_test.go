package wire

import (
	"bytes"
	"testing"

	"redistgo/internal/kpbs"
)

// TestDeltaReqRoundTrip pins the codec round-trip in both versions and
// the empty-edit-list case.
func TestDeltaReqRoundTrip(t *testing.T) {
	reqs := []DeltaRequest{
		{ID: 42, Base: 41, Edits: []kpbs.Edit{{L: 0, R: 1, W: 5}, {L: 3, R: 0, W: 0}}},
		{ID: 1, Base: 0},
		{ID: 9, Base: 8, Edits: []kpbs.Edit{{L: 100, R: 200, W: 1 << 40}},
			Trace: TraceContext{ID: [16]byte{1, 2, 3}, TS: 777}},
	}
	for i, req := range reqs {
		b, err := EncodeDeltaReq(req)
		if err != nil {
			t.Fatalf("req %d: encode: %v", i, err)
		}
		got, err := DecodeDeltaReq(b)
		if err != nil {
			t.Fatalf("req %d: decode: %v", i, err)
		}
		if got.ID != req.ID || got.Base != req.Base || got.Trace != req.Trace ||
			len(got.Edits) != len(req.Edits) {
			t.Fatalf("req %d: round-trip mismatch: %+v vs %+v", i, got, req)
		}
		for j := range req.Edits {
			if got.Edits[j] != req.Edits[j] {
				t.Fatalf("req %d edit %d: %+v vs %+v", i, j, got.Edits[j], req.Edits[j])
			}
		}
		b2, err := EncodeDeltaReq(got)
		if err != nil || !bytes.Equal(b2, b) {
			t.Fatalf("req %d: re-encode differs (err %v)", i, err)
		}
	}
}

// TestDeltaReqValidation pins encoder and decoder rejection of
// out-of-bound edits.
func TestDeltaReqValidation(t *testing.T) {
	bad := []DeltaRequest{
		{ID: 1, Edits: []kpbs.Edit{{L: -1, R: 0, W: 1}}},
		{ID: 1, Edits: []kpbs.Edit{{L: 0, R: MaxInstanceNodes, W: 1}}},
		{ID: 1, Edits: []kpbs.Edit{{L: 0, R: 0, W: -1}}},
		{ID: 1, Edits: make([]kpbs.Edit, MaxDeltaEdits+1)},
		{ID: 1, Trace: TraceContext{TS: 5}}, // timestamp without id
	}
	for i, req := range bad {
		if _, err := EncodeDeltaReq(req); err == nil {
			t.Fatalf("bad req %d encoded", i)
		}
	}
	good, err := EncodeDeltaReq(DeltaRequest{ID: 2, Base: 1, Edits: []kpbs.Edit{{L: 1, R: 1, W: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string][]byte{
		"truncated":    good[:len(good)-3],
		"trailing":     append(append([]byte(nil), good...), 0),
		"bad version":  append([]byte{99}, good[1:]...),
		"empty":        {},
		"count lies":   func() []byte { b := append([]byte(nil), good...); b[17+3] = 9; return b }(),
		"zero v2 id":   append([]byte{CodecV2}, append(make([]byte, traceExtLen), good[1:]...)...),
		"neg weight":   func() []byte { b := append([]byte(nil), good...); b[len(b)-8] = 0x80; return b }(),
		"huge l coord": func() []byte { b := append([]byte(nil), good...); b[len(b)-16] = 0xFF; return b }(),
	}
	for _, name := range sortedKeys(mutations) {
		if _, err := DecodeDeltaReq(mutations[name]); err == nil {
			t.Fatalf("%s payload accepted", name)
		} else if !IsProtocolError(err) {
			t.Fatalf("%s payload: want *ProtocolError, got %T", name, err)
		}
	}
}

// FuzzDecodeDeltaReq: the delta codec must never panic or over-allocate,
// and any request it accepts must re-encode to the exact input bytes.
func FuzzDecodeDeltaReq(f *testing.F) {
	base := DeltaRequest{ID: 3, Base: 2, Edits: []kpbs.Edit{{L: 0, R: 1, W: 7}, {L: 5, R: 5, W: 0}}}
	seed, err := EncodeDeltaReq(base)
	if err != nil {
		f.Fatal(err)
	}
	traced := base
	traced.Trace = TraceContext{ID: [16]byte{0xEE, 15: 0x02}, TS: 1_700_000_000_000_000}
	seedV2, err := EncodeDeltaReq(traced)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add(seedV2)
	f.Add(seedV2[:10])                          // V2 with a truncated trace extension
	f.Add(append([]byte{CodecV2}, seed[1:]...)) // V2 version byte on a V1 body
	f.Add([]byte{CodecV1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeDeltaReq(data)
		if err != nil {
			if !IsProtocolError(err) {
				t.Fatalf("want *ProtocolError, got %T: %v", err, err)
			}
			return
		}
		if len(req.Edits) > MaxDeltaEdits {
			t.Fatalf("accepted %d edits", len(req.Edits))
		}
		if len(data) > 0 && data[0] == CodecV2 && req.Trace.Zero() {
			t.Fatal("accepted V2 payload with a zero trace context")
		}
		out, err := EncodeDeltaReq(req)
		if err != nil {
			t.Fatalf("re-encoding accepted request failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("accepted request is not a canonical encoding")
		}
	})
}
