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
	"math"
	"math/bits"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
)

// CodecV1 is the version byte of an untraced solve payload. The version
// byte selects the header only, CodecV1's or CodecV2's with its trace
// extension, not the body layout: the MsgSolveResp body moved from 16
// fixed bytes a communication to varints (DESIGN.md §10.1) under the same
// two values, so both ends of a session must be built from the same
// source. Decoders reject any other version with a *ProtocolError.
const CodecV1 = 1

// CodecV2 is CodecV1 plus a leading trace-context extension (16-byte trace
// id + int64 timestamp) on solve requests and responses. Encoders emit V2
// exactly when a non-zero trace context is attached, so untraced traffic
// keeps CodecV1's header; decoders accept both versions and enforce that a
// V2 payload carries a non-zero trace id (a zero id would not be a
// canonical encoding).
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
// independently (MaxPayload / 16 edges at most). It bounds the endpoints of
// a response's communications too, which keeps their fields at 2 to 5
// bytes.
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

// Graph materializes the request's instance. The graph takes over
// r.Edges instead of copying them (bipartite.FromEdges), so after Graph
// the request's edges belong to the graph: neither modify them nor build a
// second graph from the same request. Decoded requests are already
// range-checked, so construction cannot panic.
func (r SolveRequest) Graph() *bipartite.Graph {
	return bipartite.FromEdges(r.N1, r.N2, r.Edges)
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
// frame are refused (the server maps that to RejectTooLarge). The body
// layout (DESIGN.md §10.1) follows the header of version byte, optional
// trace extension and 8-byte id:
//
//	uvarint β | uvarint step count | uvarint comm count (all steps)
//	per step:   uvarint n | if n > 0: uvarint d    (d = the step's largest amount)
//	  per comm, in the step's own order:
//	    uvarint zigzag(L − L_prev)<<1 | full       (L_prev: the previous comm's L in this step, 0 first)
//	    uvarint R
//	    uvarint amount                             only when full = 0; 1 ≤ amount < d
//
// Endpoints below MaxInstanceNodes keep a comm at 2 to 5 bytes plus its
// amount when that is not the step's duration. A step's d is its Duration,
// and a Duration that is not the step's largest amount is refused, as kpbs
// validation refuses it. Encoding is injective given the trace context and
// DecodeSolveResp accepts only this canonical form: byte-equal payloads
// mean identical schedules, which is what redist-soak's verification rests
// on (it re-encodes its local solve with the trace context echoed by the
// server before comparing bytes). The encoder makes one allocation, the
// payload, sized exactly by a first pass.
func EncodeSolveResp(id uint64, s *kpbs.Schedule, tc TraceContext) ([]byte, error) {
	if tc.Zero() && tc.TS != 0 {
		return nil, fmt.Errorf("wire: solve response trace timestamp %d without a trace id", tc.TS)
	}
	if s.Beta < 0 {
		return nil, fmt.Errorf("wire: schedule beta %d is negative", s.Beta)
	}
	nComms := 0
	size := traceVersionLen(tc) + 8 + uvarintLen(uint64(s.Beta)) + uvarintLen(uint64(len(s.Steps)))
	for _, st := range s.Steps {
		n, err := stepLen(st)
		if err != nil {
			return nil, err
		}
		size += uvarintLen(uint64(len(st.Comms))) + n
		nComms += len(st.Comms)
	}
	size += uvarintLen(uint64(nComms))
	if size > MaxPayload {
		return nil, fmt.Errorf("wire: schedule with %d steps and %d communications needs %d bytes, frame maximum is %d", len(s.Steps), nComms, size, MaxPayload)
	}
	b := make([]byte, 0, size)
	b = appendTraceVersion(b, tc)
	b = binary.BigEndian.AppendUint64(b, id)
	b = binary.AppendUvarint(b, uint64(s.Beta))
	b = binary.AppendUvarint(b, uint64(len(s.Steps)))
	b = binary.AppendUvarint(b, uint64(nComms))
	for _, st := range s.Steps {
		b = binary.AppendUvarint(b, uint64(len(st.Comms)))
		if len(st.Comms) > 0 {
			b = appendStep(b, st.Comms, st.Duration)
		}
	}
	return b, nil
}

// stepLen checks a step and returns the encoded size of its duration and
// comms, which an empty step does not carry. Like kpbs validation, it
// refuses a Duration that is not the step's largest amount, so the
// emitting pass can write Duration as d without reading the amounts again.
func stepLen(st kpbs.Step) (int, error) {
	var top int64
	size, prev := 0, int32(0)
	for _, c := range st.Comms {
		// MaxInstanceNodes is a power of two, so one test covers both
		// endpoints and their signs.
		if uint(c.L|c.R) >= MaxInstanceNodes || c.Amount <= 0 {
			return 0, fmt.Errorf("wire: schedule communication (%d,%d) amount %d: endpoints must lie in [0, %d) and the amount be positive", c.L, c.R, c.Amount, MaxInstanceNodes)
		}
		top = max(top, c.Amount)
		// The full bit never changes the L field's length. Both fields
		// of most comms take one byte each, and this branch and its twins
		// in appendStep and decodeStep keep the codec near the
		// fixed-width one's speed (BenchmarkSolveResp).
		if x, r := lField(int(c.L-prev), 0), uint64(c.R); x|r < 0x80 {
			size += 2
		} else {
			size += uvarintLen(x) + uvarintLen(r)
		}
		if c.Amount != st.Duration {
			size += uvarintLen(uint64(c.Amount))
		}
		prev = c.L
	}
	if st.Duration != top {
		return 0, fmt.Errorf("wire: schedule step duration %d is not its largest amount %d", st.Duration, top)
	}
	if top > 0 {
		size += uvarintLen(uint64(top))
	}
	return size, nil
}

// appendStep appends the duration d and the comms of a non-empty step.
func appendStep(b []byte, comms []kpbs.Comm, d int64) []byte {
	b = binary.AppendUvarint(b, uint64(d))
	prev := int32(0)
	for _, c := range comms {
		full := uint64(0)
		if c.Amount == d {
			full = 1
		}
		if x, r := lField(int(c.L-prev), full), uint64(c.R); x|r < 0x80 {
			b = append(b, byte(x), byte(r))
		} else {
			b = binary.AppendUvarint(b, x)
			b = binary.AppendUvarint(b, r)
		}
		if full == 0 {
			b = binary.AppendUvarint(b, uint64(c.Amount))
		}
		prev = c.L
	}
	return b
}

// lField packs a comm's left-endpoint delta, zigzag-coded, with its full
// bit (amount = the step's duration).
func lField(delta int, full uint64) uint64 {
	return (uint64(delta)<<1^uint64(delta>>63))<<1 | full
}

// uvarintLen is the length of x's minimal uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// uvarint reads the minimal uvarint at p[off:] and returns it with the
// offset past it. A truncated, overflowing or non-minimal varint (Go's
// binary.Uvarint accepts 0x80 0x00 for 0) returns offset -1, and every read
// at a negative offset fails again, so a decoding loop can check once after
// a run of reads.
func uvarint(p []byte, off int) (uint64, int) {
	if off < 0 || off >= len(p) {
		return 0, -1
	}
	x, n := binary.Uvarint(p[off:])
	if n <= 0 || n > 1 && p[off+n-1] == 0 {
		return 0, -1
	}
	return x, off + n
}

// errVarint reports a truncated, overflowing or non-minimal varint.
func errVarint(where string) error {
	return protoErrf("solve response %s: truncated, overflowing or non-minimal varint", where)
}

// DecodeSolveResp parses a CodecV1 or CodecV2 schedule payload and accepts
// only the canonical encoding EncodeSolveResp emits: minimal varints,
// endpoints in [0, MaxInstanceNodes), at least one full comm per non-empty
// step, explicit amounts in [1, d), step counts that sum to the declared
// total and no trailing bytes. A step's Duration is its d, which those
// rules make its largest amount, as kpbs validation requires. Every comm
// costs at least 2 bytes and every step 1, so the declared totals are
// checked against the payload before anything is allocated: a p-byte
// payload decodes to at most p/2 comms. The comms of all steps live in one
// slice; each step holds a capped sub-slice of it, so appending to one
// step never overwrites the next.
func DecodeSolveResp(p []byte) (SolveResponse, error) {
	r := payloadReader{p: p}
	tc := r.traceVersion("solve response")
	resp := SolveResponse{Trace: tc, ID: r.u64()}
	if r.err != nil {
		return SolveResponse{}, r.err
	}
	beta, off := uvarint(p, r.off)
	nSteps, off := uvarint(p, off)
	nComms, off := uvarint(p, off)
	if off < 0 {
		return SolveResponse{}, errVarint("header")
	}
	if beta > math.MaxInt64 {
		return SolveResponse{}, protoErrf("solve response beta %d overflows int64", beta)
	}
	rest := uint64(len(p) - off)
	if nSteps > rest || nComms > (rest-nSteps)/2 {
		return SolveResponse{}, protoErrf("solve response declares %d steps and %d communications, payload holds %d bytes", nSteps, nComms, rest)
	}
	sched := &kpbs.Schedule{Beta: int64(beta)}
	var comms []kpbs.Comm
	if nSteps > 0 {
		sched.Steps = make([]kpbs.Step, nSteps)
	}
	if nComms > 0 {
		comms = make([]kpbs.Comm, nComms)
	}
	used := 0
	for i := range sched.Steps {
		var n, d uint64
		var err error
		if n, off = uvarint(p, off); n > 0 {
			d, off = uvarint(p, off)
		}
		switch {
		case off < 0:
			return SolveResponse{}, errVarint(fmt.Sprintf("step %d", i))
		case n > uint64(len(comms)-used):
			return SolveResponse{}, protoErrf("solve response step %d declares %d communications, %d of the declared total remain", i, n, len(comms)-used)
		case n == 0:
			continue
		case d == 0 || d > math.MaxInt64:
			return SolveResponse{}, protoErrf("solve response step %d duration %d outside [1, %d]", i, d, int64(math.MaxInt64))
		}
		st := &sched.Steps[i]
		st.Duration = int64(d)
		st.Comms = comms[used : used+int(n) : used+int(n)]
		used += int(n)
		if off, err = decodeStep(p, off, st.Comms, d, i); err != nil {
			return SolveResponse{}, err
		}
	}
	if used != len(comms) {
		return SolveResponse{}, protoErrf("solve response steps carry %d communications, header declares %d", used, len(comms))
	}
	if off != len(p) {
		return SolveResponse{}, protoErrf("payload has %d trailing bytes", len(p)-off)
	}
	resp.Schedule = sched
	return resp, nil
}

// decodeStep fills cs, the comms of step i with duration d, from p[off:]
// and returns the offset past them.
func decodeStep(p []byte, off int, cs []kpbs.Comm, d uint64, i int) (int, error) {
	full, prev := false, int64(0)
	for j := range cs {
		var f, r uint64
		if off+1 < len(p) && (p[off]|p[off+1]) < 0x80 {
			f, r = uint64(p[off]), uint64(p[off+1])
			off += 2
		} else {
			f, off = uvarint(p, off)
			r, off = uvarint(p, off)
		}
		amount := d
		if f&1 == 0 {
			amount, off = uvarint(p, off)
		}
		if off < 0 {
			return 0, errVarint(fmt.Sprintf("step %d communication %d", i, j))
		}
		z := f >> 1
		l := prev + (int64(z>>1) ^ -int64(z&1))
		if uint64(l) >= MaxInstanceNodes || r >= MaxInstanceNodes {
			return 0, protoErrf("solve response step %d communication %d endpoint (%d,%d) outside [0, %d)", i, j, l, r, MaxInstanceNodes)
		}
		if f&1 == 0 && (amount == 0 || amount >= d) {
			return 0, protoErrf("solve response step %d communication %d explicit amount %d outside [1, %d)", i, j, amount, d)
		}
		full = full || f&1 == 1
		cs[j] = kpbs.Comm{L: int32(l), R: int32(r), Amount: int64(amount)}
		prev = l
	}
	if !full {
		return 0, protoErrf("solve response step %d has no communication at its duration %d", i, d)
	}
	return off, nil
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
