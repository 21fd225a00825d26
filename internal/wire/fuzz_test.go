package wire

import (
	"bytes"
	"io"
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
)

// FuzzRead feeds arbitrary bytes to the frame decoder: it must never
// panic, never allocate beyond MaxPayload, and any frame it accepts must
// re-encode to bytes that decode identically.
func FuzzRead(f *testing.F) {
	// Seeds: a valid frame, a truncated one, a hostile length field.
	var valid bytes.Buffer
	if err := Write(&valid, Frame{Type: MsgData, Src: 1, Dst: 2, Payload: []byte("payload")}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:5])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := Read(bytes.NewReader(data))
		if err != nil {
			return // malformed input rejected: fine
		}
		if len(frame.Payload) > MaxPayload {
			t.Fatalf("accepted oversized payload %d", len(frame.Payload))
		}
		if !frame.Type.Valid() {
			t.Fatalf("accepted frame with invalid type %d", frame.Type)
		}
		var out bytes.Buffer
		if err := Write(&out, frame); err != nil {
			t.Fatalf("re-encoding accepted frame failed: %v", err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if again.Type != frame.Type || again.Src != frame.Src || again.Dst != frame.Dst ||
			!bytes.Equal(again.Payload, frame.Payload) {
			t.Fatal("re-decoded frame differs")
		}
	})
}

// FuzzReadStream decodes a stream of frames until error: must terminate
// and never panic.
func FuzzReadStream(f *testing.F) {
	var two bytes.Buffer
	_ = Write(&two, Frame{Type: MsgBarrier, Src: 0})
	_ = Write(&two, Frame{Type: MsgDone, Src: 0})
	f.Add(two.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for i := 0; i < 1000; i++ {
			if _, err := Read(r); err != nil {
				if err != io.EOF && r.Len() == len(data) {
					// Error without consuming anything is fine too.
					_ = err
				}
				return
			}
		}
	})
}

// FuzzDecodeSolveReq feeds arbitrary payloads to the request codec: it
// must never panic or over-allocate, and any request it accepts — V1 or
// V2 — must re-encode to the exact input bytes (accepted payloads are
// canonical encodings, so the codec is injective across both versions).
func FuzzDecodeSolveReq(f *testing.F) {
	base := SolveRequest{
		ID: 1, K: 2, Beta: 8, N1: 2, N2: 2,
		Edges: []bipartite.Edge{{L: 0, R: 1, Weight: 3}},
	}
	seed, err := EncodeSolveReq(base)
	if err != nil {
		f.Fatal(err)
	}
	traced := base
	traced.Trace = TraceContext{ID: [16]byte{0xAB, 1: 0xCD, 15: 0x01}, TS: 1_700_000_000_000_000}
	seedV2, err := EncodeSolveReq(traced)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-4])
	f.Add(seedV2)
	f.Add(seedV2[:12])                          // V2 with a truncated trace extension
	f.Add(append([]byte{CodecV2}, seed[1:]...)) // V2 version byte on a V1 body
	f.Add([]byte{CodecV1})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSolveReq(data)
		if err != nil {
			if !IsProtocolError(err) {
				t.Fatalf("want *ProtocolError, got %T: %v", err, err)
			}
			return
		}
		if len(data) > 0 && data[0] == CodecV1 && !req.Trace.Zero() {
			t.Fatal("V1 payload decoded with a trace context")
		}
		if len(data) > 0 && data[0] == CodecV2 && req.Trace.Zero() {
			t.Fatal("accepted V2 payload with a zero trace context")
		}
		out, err := EncodeSolveReq(req)
		if err != nil {
			t.Fatalf("re-encoding accepted request failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("accepted request is not a canonical encoding")
		}
	})
}

// FuzzDecodeSolveResp: the response codec must never panic, must bound
// its allocations by the payload it was given (at most p/2 comms from p
// bytes), and must only accept canonical encodings in either codec
// version: decoding then encoding returns the input bytes.
func FuzzDecodeSolveResp(f *testing.F) {
	sched := &kpbs.Schedule{Beta: 4, Steps: []kpbs.Step{
		{Comms: []kpbs.Comm{{L: 0, R: 0, Amount: 9}}, Duration: 9},
	}}
	seed, err := EncodeSolveResp(7, sched, TraceContext{})
	if err != nil {
		f.Fatal(err)
	}
	seedV2, err := EncodeSolveResp(7, sched, TraceContext{ID: [16]byte{9, 8, 7}, TS: 1234})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	f.Add(seedV2)
	f.Add(seedV2[:4])                           // V2 with a truncated trace extension
	f.Add(append([]byte{CodecV2}, seed[1:]...)) // V2 version byte on a V1 body
	f.Add([]byte{})
	// The round-trip schedules: packed sharded, Greedy and Pack
	// steps, zero-comm steps, far endpoints, amounts near MaxInt64 and
	// multi-byte varints.
	schedules := roundTripSchedules(f)
	for _, name := range sortedKeys(schedules) {
		p, err := EncodeSolveResp(5, schedules[name], TraceContext{})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeSolveResp(data)
		if err != nil {
			if !IsProtocolError(err) {
				t.Fatalf("want *ProtocolError, got %T: %v", err, err)
			}
			return
		}
		if len(data) > 0 && data[0] == CodecV2 && resp.Trace.Zero() {
			t.Fatal("accepted V2 payload with a zero trace context")
		}
		comms := 0
		for _, st := range resp.Schedule.Steps {
			comms += len(st.Comms)
		}
		if comms > len(data)/2 {
			t.Fatalf("decoded %d comms from %d bytes", comms, len(data))
		}
		out, err := EncodeSolveResp(resp.ID, resp.Schedule, resp.Trace)
		if err != nil {
			t.Fatalf("re-encoding accepted response failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("accepted response is not a canonical encoding")
		}
	})
}
