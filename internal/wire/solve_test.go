package wire

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
	"redistgo/internal/trafficgen"
)

func sampleRequest() SolveRequest {
	return SolveRequest{
		ID: 42, K: 3, Beta: 64, Algorithm: kpbs.OGGP,
		N1: 4, N2: 5,
		Edges: []bipartite.Edge{
			{L: 0, R: 0, Weight: 10},
			{L: 1, R: 2, Weight: 7},
			{L: 3, R: 4, Weight: 1},
		},
	}
}

func TestSolveReqRoundTrip(t *testing.T) {
	want := sampleRequest()
	p, err := EncodeSolveReq(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSolveReq(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.K != want.K || got.Beta != want.Beta ||
		got.Algorithm != want.Algorithm || got.N1 != want.N1 || got.N2 != want.N2 {
		t.Fatalf("header fields differ: got %+v want %+v", got, want)
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("edge count %d, want %d", len(got.Edges), len(want.Edges))
	}
	for i := range want.Edges {
		if got.Edges[i] != want.Edges[i] {
			t.Fatalf("edge %d: got %+v want %+v", i, got.Edges[i], want.Edges[i])
		}
	}
}

func TestSolveReqGraph(t *testing.T) {
	req := sampleRequest()
	g := req.Graph()
	if g.LeftCount() != req.N1 || g.RightCount() != req.N2 || g.EdgeCount() != len(req.Edges) {
		t.Fatalf("graph shape %dx%d/%d edges, want %dx%d/%d",
			g.LeftCount(), g.RightCount(), g.EdgeCount(), req.N1, req.N2, len(req.Edges))
	}
}

func TestEncodeSolveReqRejectsInvalid(t *testing.T) {
	cases := map[string]func(*SolveRequest){
		"zero k":           func(r *SolveRequest) { r.K = 0 },
		"negative beta":    func(r *SolveRequest) { r.Beta = -1 },
		"bad algorithm":    func(r *SolveRequest) { r.Algorithm = kpbs.Algorithm(99) },
		"zero left side":   func(r *SolveRequest) { r.N1 = 0 },
		"huge right side":  func(r *SolveRequest) { r.N2 = MaxInstanceNodes + 1 },
		"edge out of side": func(r *SolveRequest) { r.Edges[0].L = r.N1 },
		"negative weight":  func(r *SolveRequest) { r.Edges[0].Weight = -5 },
		"zero weight":      func(r *SolveRequest) { r.Edges[0].Weight = 0 },
	}
	for _, name := range sortedKeys(cases) {
		req := sampleRequest()
		cases[name](&req)
		if _, err := EncodeSolveReq(req); err == nil {
			t.Errorf("%s: encode accepted an invalid request", name)
		}
	}
}

// TestDecodeSolveReqRejectsMalformed corrupts a valid encoding in every
// structurally interesting way; the decoder must return a typed
// *ProtocolError (never panic, never accept).
func TestDecodeSolveReqRejectsMalformed(t *testing.T) {
	valid, err := EncodeSolveReq(sampleRequest())
	if err != nil {
		t.Fatal(err)
	}
	mutants := map[string][]byte{
		"empty":               {},
		"bad version":         append([]byte{CodecV2 + 1}, valid[1:]...),
		"truncated header":    valid[:8],
		"truncated edge":      valid[:len(valid)-1],
		"trailing garbage":    append(append([]byte(nil), valid...), 0xAA),
		"edge count overflow": overwriteEdgeCount(valid, 1<<30),
	}
	for _, name := range sortedKeys(mutants) {
		req, err := DecodeSolveReq(mutants[name])
		if err == nil {
			t.Errorf("%s: decoder accepted malformed payload: %+v", name, req)
			continue
		}
		if !IsProtocolError(err) {
			t.Errorf("%s: want *ProtocolError, got %T: %v", name, err, err)
		}
	}
}

// overwriteEdgeCount rewrites the nEdges field (the final u32 of the
// fixed prelude: ver 1 + id 8 + k 4 + beta 8 + alg 1 + n1 4 + n2 4).
func overwriteEdgeCount(p []byte, n uint32) []byte {
	out := append([]byte(nil), p...)
	const off = 1 + 8 + 4 + 8 + 1 + 4 + 4
	out[off] = byte(n >> 24)
	out[off+1] = byte(n >> 16)
	out[off+2] = byte(n >> 8)
	out[off+3] = byte(n)
	return out
}

// TestSolveRespRoundTrip: every schedule — the sample request's and
// roundTripSchedules' — encodes into a payload sized exactly, decodes to
// itself with each step's comms in their exact order, and re-encodes to
// the same bytes.
func TestSolveRespRoundTrip(t *testing.T) {
	req := sampleRequest()
	sampled, err := kpbs.Solve(req.Graph(), req.K, req.Beta, kpbs.Options{Algorithm: req.Algorithm})
	if err != nil {
		t.Fatal(err)
	}
	schedules := roundTripSchedules(t)
	schedules["sample request"] = sampled
	for _, name := range sortedKeys(schedules) {
		sched := schedules[name]
		t.Run(name, func(t *testing.T) {
			p, err := EncodeSolveResp(req.ID, sched, TraceContext{})
			if err != nil {
				t.Fatal(err)
			}
			if cap(p) != len(p) {
				t.Fatalf("payload sized at %d bytes for %d", cap(p), len(p))
			}
			resp, err := DecodeSolveResp(p)
			if err != nil {
				t.Fatal(err)
			}
			if resp.ID != req.ID {
				t.Fatalf("id %d, want %d", resp.ID, req.ID)
			}
			if resp.Schedule.Beta != sched.Beta || len(resp.Schedule.Steps) != len(sched.Steps) {
				t.Fatalf("schedule shape differs: %d steps beta %d, want %d steps beta %d",
					len(resp.Schedule.Steps), resp.Schedule.Beta, len(sched.Steps), sched.Beta)
			}
			for i, st := range sched.Steps {
				got := resp.Schedule.Steps[i]
				if got.Duration != st.Duration || len(got.Comms) != len(st.Comms) {
					t.Fatalf("step %d shape differs", i)
				}
				for j := range st.Comms {
					if got.Comms[j] != st.Comms[j] {
						t.Fatalf("step %d comm %d: got %+v want %+v", i, j, got.Comms[j], st.Comms[j])
					}
				}
			}
			// The codec is injective — re-encoding the decoded schedule
			// must give the same bytes. The soak harness's byte-identical
			// check rests on this.
			again, err := EncodeSolveResp(resp.ID, resp.Schedule, resp.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, p) {
				t.Fatal("re-encoding the decoded response changed the bytes")
			}
		})
	}
}

func TestDecodeSolveRespRejectsMalformed(t *testing.T) {
	req := sampleRequest()
	sched, err := kpbs.Solve(req.Graph(), req.K, req.Beta, kpbs.Options{Algorithm: req.Algorithm})
	if err != nil {
		t.Fatal(err)
	}
	valid, err := EncodeSolveResp(req.ID, sched, TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	mutants := map[string][]byte{
		"empty":            {},
		"bad version":      append([]byte{CodecV2 + 1}, valid[1:]...),
		"truncated":        valid[:len(valid)-3],
		"trailing garbage": append(append([]byte(nil), valid...), 1, 2, 3),
	}
	for _, name := range sortedKeys(mutants) {
		if _, err := DecodeSolveResp(mutants[name]); err == nil {
			t.Errorf("%s: decoder accepted malformed payload", name)
		} else if !IsProtocolError(err) {
			t.Errorf("%s: want *ProtocolError, got %T: %v", name, err, err)
		}
	}
}

// denseResp encodes the GGP schedule of a dense 64×64 instance (k = 32,
// β = 1), about 1,300 steps.
func denseResp(t *testing.T) []byte {
	t.Helper()
	g, err := bipartite.FromMatrix(trafficgen.DenseUniform(rand.New(rand.NewSource(64)), 64, 64, 1, 20))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := kpbs.Solve(g, 32, 1, kpbs.Options{Algorithm: kpbs.GGP})
	if err != nil {
		t.Fatal(err)
	}
	p, err := EncodeSolveResp(1, sched, TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDecodeSolveRespStepsDoNotAlias: the steps of a decoded schedule share
// one communication slice, so each must be capped: appending to a step
// leaves the next one unchanged.
func TestDecodeSolveRespStepsDoNotAlias(t *testing.T) {
	resp, err := DecodeSolveResp(denseResp(t))
	if err != nil {
		t.Fatal(err)
	}
	steps := resp.Schedule.Steps
	for i := 0; i+1 < len(steps); i++ {
		next := append([]kpbs.Comm(nil), steps[i+1].Comms...)
		steps[i].Comms = append(steps[i].Comms, kpbs.Comm{L: 1 << 20, R: 1 << 20, Amount: 1})
		for j, c := range steps[i+1].Comms {
			if c != next[j] {
				t.Fatalf("appending to step %d changed step %d comm %d: %+v, was %+v", i, i+1, j, c, next[j])
			}
		}
	}
}

// TestDecodeSolveRespAllocs bounds the allocations of decoding a dense
// response: the schedule, its steps and one communication slice for all of
// them, independent of the number of steps.
func TestDecodeSolveRespAllocs(t *testing.T) {
	p := denseResp(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeSolveResp(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("decoding a dense 64x64 response makes %.1f allocations, want at most 4", allocs)
	}
}

// sampleTrace is a non-zero trace context for the V2 tests.
func sampleTrace() TraceContext {
	return TraceContext{ID: [16]byte{0xDE, 0xAD, 0xBE, 0xEF, 15: 0x7F}, TS: 1_722_000_000_123_456}
}

// TestSolveReqTraceRoundTrip: a traced request upgrades to CodecV2, the
// trace context survives the round trip, and the untraced encoding of the
// same request is byte-identical to CodecV1 (the pre-trace format).
func TestSolveReqTraceRoundTrip(t *testing.T) {
	req := sampleRequest()
	plain, err := EncodeSolveReq(req)
	if err != nil {
		t.Fatal(err)
	}
	if plain[0] != CodecV1 {
		t.Fatalf("untraced request encoded as version %d, want %d", plain[0], CodecV1)
	}
	req.Trace = sampleTrace()
	traced, err := EncodeSolveReq(req)
	if err != nil {
		t.Fatal(err)
	}
	if traced[0] != CodecV2 {
		t.Fatalf("traced request encoded as version %d, want %d", traced[0], CodecV2)
	}
	if len(traced) != len(plain)+traceExtLen {
		t.Fatalf("V2 payload is %d bytes, want V1 %d + %d trace extension", len(traced), len(plain), traceExtLen)
	}
	if !bytes.Equal(traced[1+traceExtLen:], plain[1:]) {
		t.Fatal("V2 body differs from the V1 body after the trace extension")
	}
	got, err := DecodeSolveReq(traced)
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != req.Trace {
		t.Fatalf("trace context %+v, want %+v", got.Trace, req.Trace)
	}
}

// TestSolveRespTraceRoundTrip mirrors the request test for responses.
func TestSolveRespTraceRoundTrip(t *testing.T) {
	req := sampleRequest()
	sched, err := kpbs.Solve(req.Graph(), req.K, req.Beta, kpbs.Options{Algorithm: req.Algorithm})
	if err != nil {
		t.Fatal(err)
	}
	tc := TraceContext{ID: sampleTrace().ID, TS: 4242} // echoed id + server µs
	p, err := EncodeSolveResp(req.ID, sched, tc)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != CodecV2 {
		t.Fatalf("traced response encoded as version %d, want %d", p[0], CodecV2)
	}
	resp, err := DecodeSolveResp(p)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != tc {
		t.Fatalf("trace context %+v, want %+v", resp.Trace, tc)
	}
	again, err := EncodeSolveResp(resp.ID, resp.Schedule, resp.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, p) {
		t.Fatal("re-encoding the decoded traced response changed the bytes")
	}
}

// TestTraceCrossVersionRejected pins the V1↔V2 failure matrix: a V2
// version byte on a V1-shaped body, a zero trace id under V2, a V2 body
// presented as V1, and a dangling timestamp without an id all fail with a
// typed *ProtocolError — never a panic, never a silent accept.
func TestTraceCrossVersionRejected(t *testing.T) {
	req := sampleRequest()
	v1, err := EncodeSolveReq(req)
	if err != nil {
		t.Fatal(err)
	}
	req.Trace = sampleTrace()
	v2, err := EncodeSolveReq(req)
	if err != nil {
		t.Fatal(err)
	}

	// A V2 body with its trace id zeroed is not a canonical encoding.
	zeroID := append([]byte(nil), v2...)
	for i := 1; i <= 16; i++ {
		zeroID[i] = 0
	}
	mutants := map[string][]byte{
		"V2 version on V1 body":  append([]byte{CodecV2}, v1[1:]...),
		"V1 version on V2 body":  append([]byte{CodecV1}, v2[1:]...),
		"V2 with zero trace id":  zeroID,
		"V2 truncated mid-trace": v2[:10],
	}
	for _, name := range sortedKeys(mutants) {
		if got, err := DecodeSolveReq(mutants[name]); err == nil {
			t.Errorf("%s: decoder accepted %+v", name, got)
		} else if !IsProtocolError(err) {
			t.Errorf("%s: want *ProtocolError, got %T: %v", name, err, err)
		}
	}

	if _, err := EncodeSolveReq(SolveRequest{ID: 1, K: 1, Beta: 0, Algorithm: kpbs.GGP, N1: 1, N2: 1,
		Trace: TraceContext{TS: 99}}); err == nil {
		t.Error("encode accepted a trace timestamp without a trace id")
	}
	if _, err := EncodeSolveResp(1, &kpbs.Schedule{}, TraceContext{TS: 99}); err == nil {
		t.Error("encode accepted a response trace timestamp without a trace id")
	}
}

func TestRejectRoundTrip(t *testing.T) {
	want := Reject{ID: 7, Code: RejectOverQuota, Reason: "tenant 3 admission budget exhausted"}
	p, err := EncodeReject(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReject(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestEncodeRejectTruncatesReason(t *testing.T) {
	long := strings.Repeat("x", 4*maxRejectReason)
	p, err := EncodeReject(Reject{ID: 1, Code: RejectBadRequest, Reason: long})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReject(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Reason) > maxRejectReason {
		t.Fatalf("reason survived at %d bytes, cap is %d", len(got.Reason), maxRejectReason)
	}
}

func TestRejectCodeStrings(t *testing.T) {
	for _, c := range []RejectCode{RejectBadRequest, RejectOverQuota, RejectBusy,
		RejectShuttingDown, RejectTooLarge, RejectSolveFailed} {
		if s := c.String(); s == "" || strings.Contains(s, "unknown") {
			t.Errorf("code %d has no name: %q", c, s)
		}
	}
}

func TestMsgTypeValid(t *testing.T) {
	for _, tt := range []MsgType{MsgXfer, MsgData, MsgAck, MsgBarrier, MsgDone,
		MsgSolveReq, MsgSolveResp, MsgReject} {
		if !tt.Valid() {
			t.Errorf("%s should be valid", tt)
		}
	}
	for _, tt := range []MsgType{0, maxMsgType + 1, 200} {
		if tt.Valid() {
			t.Errorf("type %d should be invalid", tt)
		}
	}
}

// TestInvalidTypesNeverRoundTrip drives both directions: Write must
// refuse to emit a frame with an out-of-range type, and Read must refuse
// a crafted header carrying one — with a typed protocol error, not a
// silent accept.
func TestInvalidTypesNeverRoundTrip(t *testing.T) {
	for _, bad := range []MsgType{0, maxMsgType + 1, 0xFF} {
		var buf bytes.Buffer
		if err := Write(&buf, Frame{Type: bad}); err == nil {
			t.Errorf("Write accepted invalid type %d", bad)
		} else if !IsProtocolError(err) {
			t.Errorf("Write(type %d): want *ProtocolError, got %v", bad, err)
		}
		// Craft the header by hand: zero payload, the bad type byte.
		raw := []byte{0, 0, 0, 0, byte(bad), 0, 0, 0, 0, 0, 0, 0, 0}
		if _, err := Read(bytes.NewReader(raw)); err == nil {
			t.Errorf("Read accepted invalid type %d", bad)
		} else if !IsProtocolError(err) {
			t.Errorf("Read(type %d): want *ProtocolError, got %v", bad, err)
		}
	}
}
