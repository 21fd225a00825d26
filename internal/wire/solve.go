// Solve-payload codecs: the wire protocol v2 extension that carries
// scheduling requests and responses between redist-serve and its clients
// (DESIGN.md §10). Every payload starts with a codec version byte, every
// field is length-checked before it is read, and every value is
// range-checked before it is returned, so a hostile peer can produce a
// *ProtocolError but never a panic, an over-allocation, or an invalid
// in-memory instance.

package wire

import (
	"encoding/binary"
	"fmt"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
)

// CodecV1 is the baseline solve-payload codec version. Decoders reject
// unknown versions with a *ProtocolError, so the format can evolve without
// silent misinterpretation.
const CodecV1 = 1

// CodecV2 is CodecV1 plus a leading trace-context extension (16-byte trace
// id + int64 timestamp) on solve requests and responses. Encoders emit V2
// exactly when a non-zero trace context is attached, so V1 peers and
// V1-shaped traffic keep producing byte-identical frames; decoders accept
// both versions and enforce that a V2 payload carries a non-zero trace id
// (a zero id would not be a canonical encoding).
const CodecV2 = 2

// TraceContext is the optional request-scoped tracing extension carried by
// CodecV2 solve payloads. ID is an opaque 16-byte trace id minted by the
// client and echoed verbatim in the response. TS is direction-dependent:
// on a request it is the client-send wall clock in unix microseconds; on a
// response it is the server-side handling time of the request in
// microseconds (read-to-write), letting clients split their measured RTT
// into server time and wire/queue overhead.
type TraceContext struct {
	ID [16]byte
	TS int64
}

// Zero reports whether the context is absent (all-zero trace id). A
// zero-ID context cannot be carried on the wire: encoders fall back to
// CodecV1 and reject a dangling timestamp.
func (t TraceContext) Zero() bool { return t.ID == [16]byte{} }

// traceExtLen is the encoded size of a TraceContext (id + timestamp).
const traceExtLen = 16 + 8

// MaxInstanceNodes bounds each side of a requested instance. It keeps a
// single request from describing a graph far larger than anything the
// solver fleet is sized for; the payload length bounds the edge count
// independently (MaxPayload / 16 edges at most).
const MaxInstanceNodes = 1 << 14

// RejectCode classifies why the service refused a request.
type RejectCode uint8

const (
	// RejectBadRequest: the request payload failed validation.
	RejectBadRequest RejectCode = iota + 1
	// RejectOverQuota: the tenant or the service exhausted its admission
	// budget; retry later.
	RejectOverQuota
	// RejectBusy: the solve queue is full; retry later.
	RejectBusy
	// RejectShuttingDown: the service is draining and admits no new work.
	RejectShuttingDown
	// RejectTooLarge: the instance or its schedule exceeds a frame.
	RejectTooLarge
	// RejectSolveFailed: the solver returned an error for the instance.
	RejectSolveFailed
	// RejectUnknownBase: a delta request referenced a base schedule id the
	// service does not retain (never issued on this session, superseded by
	// a later delta, or evicted); the client must fall back to a full
	// MsgSolveReq.
	RejectUnknownBase

	maxRejectCode = RejectUnknownBase
)

// String names the reject code.
func (c RejectCode) String() string {
	switch c {
	case RejectBadRequest:
		return "bad-request"
	case RejectOverQuota:
		return "over-quota"
	case RejectBusy:
		return "busy"
	case RejectShuttingDown:
		return "shutting-down"
	case RejectTooLarge:
		return "too-large"
	case RejectSolveFailed:
		return "solve-failed"
	case RejectUnknownBase:
		return "unknown-base"
	}
	return fmt.Sprintf("RejectCode(%d)", uint8(c))
}

// SolveRequest is one K-PBS instance submitted for scheduling. ID is a
// client-chosen correlation id echoed back in the response or reject.
// A non-zero Trace upgrades the payload to CodecV2 and asks the server to
// echo the trace id (with its own handling time) in the response.
type SolveRequest struct {
	ID        uint64
	K         int
	Beta      int64
	Algorithm kpbs.Algorithm
	N1, N2    int
	Edges     []bipartite.Edge
	Trace     TraceContext
}

// Graph materializes the request's instance. Decoded requests are already
// range-checked, so construction cannot panic.
func (r SolveRequest) Graph() *bipartite.Graph {
	g := bipartite.New(r.N1, r.N2)
	for _, e := range r.Edges {
		g.AddEdge(e.L, e.R, e.Weight)
	}
	return g
}

// SolveResponse is the schedule computed for the request with the same ID.
// Trace is the echoed request trace context (CodecV2 responses only): the
// id matches the request's and TS is the server's handling time in
// microseconds.
type SolveResponse struct {
	ID       uint64
	Schedule *kpbs.Schedule
	Trace    TraceContext
}

// Reject refuses the request with the same ID.
type Reject struct {
	ID     uint64
	Code   RejectCode
	Reason string
}

// maxRejectReason caps the human-readable reason; EncodeReject truncates.
const maxRejectReason = 512

// payloadReader is a cursor over a codec payload: every read checks the
// remaining length and latches the first error, so decoders stay linear
// and cannot index out of bounds.
type payloadReader struct {
	p   []byte
	off int
	err error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = protoErrf(format, args...)
	}
}

func (r *payloadReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.p)-r.off < n {
		r.fail("payload truncated: need %d bytes at offset %d, have %d", n, r.off, len(r.p)-r.off)
		return nil
	}
	b := r.p[r.off : r.off+n]
	r.off += n
	return b
}

func (r *payloadReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *payloadReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *payloadReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *payloadReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *payloadReader) i64() int64 { return int64(r.u64()) }

// done verifies the whole payload was consumed: trailing garbage is a
// protocol violation, not padding.
func (r *payloadReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.p) {
		return protoErrf("payload has %d trailing bytes", len(r.p)-r.off)
	}
	return nil
}

// version consumes and checks the leading codec version byte against a
// single accepted version (the reject codec is V1-only).
func (r *payloadReader) version() {
	if v := r.u8(); r.err == nil && v != CodecV1 {
		r.fail("unsupported codec version %d, want %d", v, CodecV1)
	}
}

// traceVersion consumes the version byte of a solve payload and, for
// CodecV2, the trace-context extension that follows it. A V2 payload with
// an all-zero trace id is rejected: encoders only emit V2 when a trace
// context is attached, so a zero id can never be a canonical encoding.
func (r *payloadReader) traceVersion(what string) TraceContext {
	v := r.u8()
	if r.err != nil {
		return TraceContext{}
	}
	switch v {
	case CodecV1:
		return TraceContext{}
	case CodecV2:
		var tc TraceContext
		b := r.take(traceExtLen)
		if r.err != nil {
			return TraceContext{}
		}
		copy(tc.ID[:], b[:16])
		tc.TS = int64(binary.BigEndian.Uint64(b[16:]))
		if tc.Zero() {
			r.fail("%s carries a V2 trace extension with a zero trace id", what)
			return TraceContext{}
		}
		return tc
	default:
		r.fail("unsupported codec version %d, want %d or %d", v, CodecV1, CodecV2)
		return TraceContext{}
	}
}

// appendTraceVersion emits the version byte and, when tc is non-zero, the
// V2 trace extension. It reports how many bytes the header needs so size
// pre-computation and emission cannot drift apart.
func appendTraceVersion(b []byte, tc TraceContext) []byte {
	if tc.Zero() {
		return append(b, CodecV1)
	}
	b = append(b, CodecV2)
	b = append(b, tc.ID[:]...)
	return binary.BigEndian.AppendUint64(b, uint64(tc.TS))
}

// traceVersionLen is the encoded size of the version byte plus, for a
// non-zero context, the trace extension.
func traceVersionLen(tc TraceContext) int {
	if tc.Zero() {
		return 1
	}
	return 1 + traceExtLen
}

// EncodeSolveReq serializes r as a CodecV1 payload — or CodecV2 when a
// trace context is attached. It enforces the same bounds the decoder
// does, so an encoded request always decodes; requests without a trace
// context encode byte-identically to the pre-V2 codec.
func EncodeSolveReq(r SolveRequest) ([]byte, error) {
	if r.Trace.Zero() && r.Trace.TS != 0 {
		return nil, fmt.Errorf("wire: solve request trace timestamp %d without a trace id", r.Trace.TS)
	}
	if r.K < 1 {
		return nil, fmt.Errorf("wire: solve request k must be positive, got %d", r.K)
	}
	if r.Beta < 0 {
		return nil, fmt.Errorf("wire: solve request beta must be non-negative, got %d", r.Beta)
	}
	switch r.Algorithm {
	case kpbs.GGP, kpbs.OGGP, kpbs.MinSteps, kpbs.Greedy:
	default:
		return nil, fmt.Errorf("wire: solve request names unknown algorithm %d", int(r.Algorithm))
	}
	if r.N1 < 1 || r.N1 > MaxInstanceNodes || r.N2 < 1 || r.N2 > MaxInstanceNodes {
		return nil, fmt.Errorf("wire: solve request sides %dx%d outside [1, %d]", r.N1, r.N2, MaxInstanceNodes)
	}
	size := traceVersionLen(r.Trace) + 8 + 4 + 8 + 1 + 4 + 4 + 4 + 16*len(r.Edges)
	if size > MaxPayload {
		return nil, fmt.Errorf("wire: solve request with %d edges needs %d bytes, frame maximum is %d", len(r.Edges), size, MaxPayload)
	}
	b := make([]byte, 0, size)
	b = appendTraceVersion(b, r.Trace)
	b = binary.BigEndian.AppendUint64(b, r.ID)
	b = binary.BigEndian.AppendUint32(b, uint32(r.K))
	b = binary.BigEndian.AppendUint64(b, uint64(r.Beta))
	b = append(b, byte(r.Algorithm))
	b = binary.BigEndian.AppendUint32(b, uint32(r.N1))
	b = binary.BigEndian.AppendUint32(b, uint32(r.N2))
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Edges)))
	for _, e := range r.Edges {
		if e.L < 0 || e.L >= r.N1 || e.R < 0 || e.R >= r.N2 {
			return nil, fmt.Errorf("wire: solve request edge (%d,%d) outside %dx%d", e.L, e.R, r.N1, r.N2)
		}
		if e.Weight <= 0 {
			return nil, fmt.Errorf("wire: solve request edge (%d,%d) has non-positive weight %d", e.L, e.R, e.Weight)
		}
		b = binary.BigEndian.AppendUint32(b, uint32(e.L))
		b = binary.BigEndian.AppendUint32(b, uint32(e.R))
		b = binary.BigEndian.AppendUint64(b, uint64(e.Weight))
	}
	return b, nil
}

// DecodeSolveReq parses and fully validates a CodecV1 or CodecV2 solve
// request. Any violation — including a V2 payload whose trace extension
// is truncated or zero — yields a *ProtocolError.
func DecodeSolveReq(p []byte) (SolveRequest, error) {
	r := payloadReader{p: p}
	tc := r.traceVersion("solve request")
	req := SolveRequest{
		Trace: tc,
		ID:    r.u64(),
		K:     int(r.u32()),
		Beta:  r.i64(),
	}
	req.Algorithm = kpbs.Algorithm(r.u8())
	req.N1 = int(r.u32())
	req.N2 = int(r.u32())
	nEdges := int(r.u32())
	if r.err != nil {
		return SolveRequest{}, r.err
	}
	if req.K < 1 {
		return SolveRequest{}, protoErrf("solve request k %d is not positive", req.K)
	}
	if req.Beta < 0 {
		return SolveRequest{}, protoErrf("solve request beta %d is negative", req.Beta)
	}
	switch req.Algorithm {
	case kpbs.GGP, kpbs.OGGP, kpbs.MinSteps, kpbs.Greedy:
	default:
		return SolveRequest{}, protoErrf("solve request names unknown algorithm %d", int(req.Algorithm))
	}
	if req.N1 < 1 || req.N1 > MaxInstanceNodes || req.N2 < 1 || req.N2 > MaxInstanceNodes {
		return SolveRequest{}, protoErrf("solve request sides %dx%d outside [1, %d]", req.N1, req.N2, MaxInstanceNodes)
	}
	if rest := len(p) - r.off; rest != 16*nEdges {
		return SolveRequest{}, protoErrf("solve request declares %d edges (%d bytes) but carries %d bytes", nEdges, 16*nEdges, rest)
	}
	if nEdges > 0 {
		req.Edges = make([]bipartite.Edge, nEdges)
	}
	for i := 0; i < nEdges; i++ {
		l, rr, w := int(r.u32()), int(r.u32()), r.i64()
		if l >= req.N1 || rr >= req.N2 {
			return SolveRequest{}, protoErrf("solve request edge %d endpoint (%d,%d) outside %dx%d", i, l, rr, req.N1, req.N2)
		}
		if w <= 0 {
			return SolveRequest{}, protoErrf("solve request edge %d has non-positive weight %d", i, w)
		}
		req.Edges[i] = bipartite.Edge{L: l, R: rr, Weight: w}
	}
	if err := r.done(); err != nil {
		return SolveRequest{}, err
	}
	return req, nil
}

// EncodeSolveResp serializes a schedule as a CodecV1 payload — or CodecV2
// when a trace context (normally the request's, echoed with the server's
// handling time) is attached. Schedules whose encoding would exceed a
// frame are refused (the server maps that to RejectTooLarge). Encoding is
// injective given the trace context: byte-equal payloads mean identical
// schedules, which is what redist-soak's verification rests on (it
// re-encodes its local solve with the trace context echoed by the server
// before comparing bytes).
func EncodeSolveResp(id uint64, s *kpbs.Schedule, tc TraceContext) ([]byte, error) {
	if tc.Zero() && tc.TS != 0 {
		return nil, fmt.Errorf("wire: solve response trace timestamp %d without a trace id", tc.TS)
	}
	size := traceVersionLen(tc) + 8 + 8 + 4
	for _, st := range s.Steps {
		size += 4 + 16*len(st.Comms)
	}
	if size > MaxPayload {
		return nil, fmt.Errorf("wire: schedule with %d steps needs %d bytes, frame maximum is %d", len(s.Steps), size, MaxPayload)
	}
	b := make([]byte, 0, size)
	b = appendTraceVersion(b, tc)
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.BigEndian.AppendUint64(b, uint64(s.Beta))
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Steps)))
	for _, st := range s.Steps {
		b = binary.BigEndian.AppendUint32(b, uint32(len(st.Comms)))
		for _, c := range st.Comms {
			if c.L < 0 || c.R < 0 {
				return nil, fmt.Errorf("wire: schedule communication (%d,%d) has negative endpoint", c.L, c.R)
			}
			if c.Amount <= 0 {
				return nil, fmt.Errorf("wire: schedule communication (%d,%d) has non-positive amount %d", c.L, c.R, c.Amount)
			}
			b = binary.BigEndian.AppendUint32(b, uint32(c.L))
			b = binary.BigEndian.AppendUint32(b, uint32(c.R))
			b = binary.BigEndian.AppendUint64(b, uint64(c.Amount))
		}
	}
	return b, nil
}

// DecodeSolveResp parses a CodecV1 or CodecV2 schedule payload. Step
// durations are recomputed from the amounts (the codec never trusts a
// peer-supplied aggregate), so a decoded schedule passes kpbs duration
// validation. The communications of all steps live in one slice sized from
// the payload; each step holds a capped sub-slice of it, so appending to
// one step never overwrites the next.
func DecodeSolveResp(p []byte) (SolveResponse, error) {
	r := payloadReader{p: p}
	tc := r.traceVersion("solve response")
	resp := SolveResponse{Trace: tc, ID: r.u64()}
	sched := &kpbs.Schedule{Beta: r.i64()}
	nSteps := int(r.u32())
	if r.err != nil {
		return SolveResponse{}, r.err
	}
	if sched.Beta < 0 {
		return SolveResponse{}, protoErrf("solve response beta %d is negative", sched.Beta)
	}
	// Each step costs at least 4 bytes; bound the allocation by what the
	// payload can actually hold.
	if nSteps > (len(p)-r.off)/4 {
		return SolveResponse{}, protoErrf("solve response declares %d steps, payload can hold at most %d", nSteps, (len(p)-r.off)/4)
	}
	var comms []kpbs.Comm
	if nSteps > 0 {
		sched.Steps = make([]kpbs.Step, nSteps)
		// What the step headers leave holds at most this many 16-byte
		// communications.
		if n := (len(p) - r.off - 4*nSteps) / 16; n > 0 {
			comms = make([]kpbs.Comm, n)
		}
	}
	used := 0
	for i := range sched.Steps {
		nComms := int(r.u32())
		if r.err != nil {
			return SolveResponse{}, r.err
		}
		// The headers of the later steps must still fit behind this one's
		// communications, which keeps used within the arena.
		if most := (len(p) - r.off - 4*(nSteps-1-i)) / 16; nComms > most {
			return SolveResponse{}, protoErrf("solve response step %d declares %d communications, payload can hold at most %d", i, nComms, most)
		}
		body := r.take(16 * nComms)
		if nComms == 0 {
			continue
		}
		st := &sched.Steps[i]
		st.Comms = comms[used : used+nComms : used+nComms]
		used += nComms
		for j := range st.Comms {
			b := body[16*j : 16*j+16]
			c := kpbs.Comm{
				L:      int(binary.BigEndian.Uint32(b)),
				R:      int(binary.BigEndian.Uint32(b[4:])),
				Amount: int64(binary.BigEndian.Uint64(b[8:])),
			}
			if c.Amount <= 0 {
				return SolveResponse{}, protoErrf("solve response step %d communication %d has non-positive amount %d", i, j, c.Amount)
			}
			st.Comms[j] = c
			if c.Amount > st.Duration {
				st.Duration = c.Amount
			}
		}
	}
	if err := r.done(); err != nil {
		return SolveResponse{}, err
	}
	resp.Schedule = sched
	return resp, nil
}

// EncodeReject serializes a rejection as a CodecV1 payload, truncating
// over-long reasons.
func EncodeReject(rej Reject) ([]byte, error) {
	if rej.Code < RejectBadRequest || rej.Code > maxRejectCode {
		return nil, fmt.Errorf("wire: unknown reject code %d", uint8(rej.Code))
	}
	reason := rej.Reason
	if len(reason) > maxRejectReason {
		reason = reason[:maxRejectReason]
	}
	b := make([]byte, 0, 1+8+1+2+len(reason))
	b = append(b, CodecV1)
	b = binary.BigEndian.AppendUint64(b, rej.ID)
	b = append(b, byte(rej.Code))
	b = binary.BigEndian.AppendUint16(b, uint16(len(reason)))
	b = append(b, reason...)
	return b, nil
}

// DecodeReject parses a CodecV1 rejection payload.
func DecodeReject(p []byte) (Reject, error) {
	r := payloadReader{p: p}
	r.version()
	rej := Reject{ID: r.u64(), Code: RejectCode(r.u8())}
	n := int(r.u16())
	if r.err != nil {
		return Reject{}, r.err
	}
	if rej.Code < RejectBadRequest || rej.Code > maxRejectCode {
		return Reject{}, protoErrf("reject carries unknown code %d", uint8(rej.Code))
	}
	reason := r.take(n)
	if err := r.done(); err != nil {
		return Reject{}, err
	}
	rej.Reason = string(reason)
	return rej, nil
}
