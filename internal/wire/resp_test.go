package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
	"redistgo/internal/trafficgen"
)

// respBody builds a CodecV1 response payload with id 7 around a
// hand-written body; each argument is a uvarint, or raw bytes when given
// as []byte.
func respBody(fields ...any) []byte {
	p := binary.BigEndian.AppendUint64([]byte{CodecV1}, 7)
	for _, f := range fields {
		switch v := f.(type) {
		case int:
			p = binary.AppendUvarint(p, uint64(v))
		case uint64:
			p = binary.AppendUvarint(p, v)
		case []byte:
			p = append(p, v...)
		default:
			panic("respBody: unsupported field type")
		}
	}
	return p
}

// lf is a comm's first field: the zigzag-coded L delta and the full bit.
func lf(delta int, full bool) uint64 {
	if full {
		return lField(delta, 1)
	}
	return lField(delta, 0)
}

// TestSolveRespLayout pins the body bytes of a small schedule: the layout
// in DESIGN.md §10.1, comms in their step's order, the amount only where it
// is not the step's duration.
func TestSolveRespLayout(t *testing.T) {
	sched := &kpbs.Schedule{Beta: 300, Steps: []kpbs.Step{
		{Comms: []kpbs.Comm{{L: 2, R: 1, Amount: 5}, {L: 0, R: 200, Amount: 3}}, Duration: 5},
		{},
		{Comms: []kpbs.Comm{{L: 1, R: 0, Amount: 7}}, Duration: 7},
	}}
	got, err := EncodeSolveResp(7, sched, TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	want := respBody(300, 3, 3,
		2, 5, lf(2, true), 1, lf(-2, false), 200, 3,
		0,
		1, 7, lf(1, true), 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("body bytes\n got %x\nwant %x", got, want)
	}
}

// TestDecodeSolveRespCanonical feeds one non-canonical or out-of-range
// body per rule; each must fail with a *ProtocolError naming it.
func TestDecodeSolveRespCanonical(t *testing.T) {
	// A valid one-step body for reference: β 4, one step of duration 9
	// with the comm (0,0).
	if _, err := DecodeSolveResp(respBody(4, 1, 1, 1, 9, lf(0, true), 0)); err != nil {
		t.Fatalf("reference body rejected: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		p          []byte
	}{
		{"non-minimal beta", "non-minimal", respBody([]byte{0x84, 0x00}, 1, 1, 1, 9, lf(0, true), 0)},
		{"non-minimal zero", "non-minimal", respBody(4, 1, 1, 1, 9, lf(0, true), []byte{0x80, 0x00})},
		{"overflowing varint", "overflowing", respBody(bytes.Repeat([]byte{0xff}, 11))},
		{"no full comm", "no communication at its duration", respBody(4, 1, 1, 1, 9, lf(0, false), 0, 5)},
		{"explicit amount zero", "explicit amount 0", respBody(4, 1, 2, 2, 9, lf(0, true), 0, lf(1, false), 1, 0)},
		{"explicit amount at d", "explicit amount 9", respBody(4, 1, 2, 2, 9, lf(0, true), 0, lf(1, false), 1, 9)},
		{"explicit amount above d", "explicit amount 10", respBody(4, 1, 2, 2, 9, lf(0, true), 0, lf(1, false), 1, 10)},
		{"zero duration", "duration 0", respBody(4, 1, 1, 1, 0, lf(0, true), 0)},
		{"duration above MaxInt64", "duration", respBody(4, 1, 1, 1, uint64(1)<<63, lf(0, true), 0)},
		{"L at MaxInstanceNodes", "outside [0, 16384)", respBody(4, 1, 1, 1, 9, lf(MaxInstanceNodes, true), 0)},
		{"negative L", "outside [0, 16384)", respBody(4, 1, 1, 1, 9, lf(-1, true), 0)},
		{"R at MaxInstanceNodes", "outside [0, 16384)", respBody(4, 1, 1, 1, 9, lf(0, true), MaxInstanceNodes)},
		{"steps carry fewer comms", "steps carry 1 communications, header declares 2", respBody(4, 1, 2, 1, 9, lf(0, true), 200)},
		{"step exceeds declared total", "declares 2 communications, 1 of the declared total remain", respBody(4, 1, 1, 2, 9, lf(0, true), 0, lf(1, true), 0)},
		{"declared total above half the bytes", "declares 1 steps and 3 communications", respBody(4, 1, 3, 3, 9, lf(0, true), 0)},
		{"declared steps above the bytes", "declares 9 steps", respBody(4, 9, 0, 0, 0)},
		{"beta above MaxInt64", "overflows int64", respBody(uint64(1)<<63, 0, 0)},
		{"trailing bytes", "trailing", respBody(4, 1, 1, 1, 9, lf(0, true), 0, 0)},
		{"truncated comm", "truncated", respBody(4, 1, 1, 1, 9, lf(0, true))},
	} {
		_, err := DecodeSolveResp(tc.p)
		switch {
		case err == nil:
			t.Errorf("%s: decoder accepted %x", tc.name, tc.p)
		case !IsProtocolError(err):
			t.Errorf("%s: want *ProtocolError, got %T: %v", tc.name, err, err)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestEncodeSolveRespRejectsInvalid: the encoder refuses what the decoder
// would refuse, instead of emitting a payload that cannot decode — in
// particular endpoints at or above MaxInstanceNodes, up to the int32
// extremes, which a fixed-width field would have truncated — and, as kpbs
// validation does, a step whose Duration is not its largest amount.
func TestEncodeSolveRespRejectsInvalid(t *testing.T) {
	badComms := map[string]kpbs.Comm{
		"L at MaxInstanceNodes": {L: MaxInstanceNodes, R: 0, Amount: 1},
		"R at MaxInstanceNodes": {L: 0, R: MaxInstanceNodes, Amount: 1},
		"L at MaxInt32":         {L: math.MaxInt32, R: 0, Amount: 1},
		"R at MinInt32":         {L: 0, R: math.MinInt32, Amount: 1},
		"negative R":            {L: 0, R: -1, Amount: 1},
		"zero amount":           {L: 0, R: 0, Amount: 0},
		"negative amount":       {L: 0, R: 0, Amount: -3},
	}
	for _, name := range sortedKeys(badComms) {
		c := badComms[name]
		sched := &kpbs.Schedule{Steps: []kpbs.Step{{Comms: []kpbs.Comm{c}, Duration: c.Amount}}}
		if _, err := EncodeSolveResp(1, sched, TraceContext{}); err == nil {
			t.Errorf("%s: encoder accepted %+v", name, c)
		}
	}
	comms := []kpbs.Comm{{L: 0, R: 1, Amount: 5}, {L: 1, R: 0, Amount: 8}}
	badSteps := map[string]kpbs.Step{
		"duration unset":           {Comms: comms},
		"duration below the max":   {Comms: comms, Duration: 5},
		"duration above the max":   {Comms: comms, Duration: 9},
		"empty step with duration": {Duration: 3},
	}
	for _, name := range sortedKeys(badSteps) {
		sched := &kpbs.Schedule{Steps: []kpbs.Step{badSteps[name]}}
		if _, err := EncodeSolveResp(1, sched, TraceContext{}); err == nil || !strings.Contains(err.Error(), "largest amount") {
			t.Errorf("%s: encoder accepted it or named another fault (err %v)", name, err)
		}
	}
	if _, err := EncodeSolveResp(1, &kpbs.Schedule{Beta: -1}, TraceContext{}); err == nil {
		t.Error("encoder accepted a negative beta")
	}
}

// roundTripSchedules are the schedules whose encodings must round-trip
// exactly; their payloads also seed FuzzDecodeSolveResp.
func roundTripSchedules(tb testing.TB) map[string]*kpbs.Schedule {
	tb.Helper()
	solve := func(m [][]int64, k int, beta int64, opts kpbs.Options) *kpbs.Schedule {
		g, err := bipartite.FromMatrix(m)
		if err != nil {
			tb.Fatal(err)
		}
		s, err := kpbs.Solve(g, k, beta, opts)
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	rng := rand.New(rand.NewSource(3))
	// Three interleaved components, cells with i ≡ j (mod 3): a sharded
	// solve packs comms of different components into one step, listed
	// component by component, so a step's L order is not ascending.
	blocks := make([][]int64, 12)
	for i := range blocks {
		blocks[i] = make([]int64, 12)
		for j := i % 3; j < 12; j += 3 {
			blocks[i][j] = 1 + rng.Int63n(40)
		}
	}
	dense := trafficgen.DenseUniform(rng, 12, 12, 1, 1<<20)
	const far = MaxInstanceNodes - 1
	return map[string]*kpbs.Schedule{
		"packed sharded OGGP": solve(blocks, 8, 3, kpbs.Options{Algorithm: kpbs.OGGP, Shard: kpbs.ShardAuto}),
		"greedy":              solve(dense, 4, 16, kpbs.Options{Algorithm: kpbs.Greedy}),
		"pack":                solve(dense, 4, 16, kpbs.Options{Algorithm: kpbs.GGP, Pack: true}),
		"zero-comm steps": {Beta: 2, Steps: []kpbs.Step{
			{}, {Comms: []kpbs.Comm{{L: 0, R: 0, Amount: 1}}, Duration: 1}, {}, {},
		}},
		"far endpoints": {Beta: 1, Steps: []kpbs.Step{
			{Comms: []kpbs.Comm{{L: far, R: far, Amount: 2}, {L: 0, R: far, Amount: 1}, {L: far, R: 0, Amount: 2}}, Duration: 2},
		}},
		"amounts near MaxInt64": {Beta: math.MaxInt64, Steps: []kpbs.Step{
			{Comms: []kpbs.Comm{{L: 1, R: 1, Amount: math.MaxInt64 - 1}, {L: 0, R: 0, Amount: math.MaxInt64}}, Duration: math.MaxInt64},
		}},
		"multi-byte varints": {Beta: 1 << 40, Steps: []kpbs.Step{
			{Comms: []kpbs.Comm{{L: 900, R: 300, Amount: 1 << 33}, {L: 3, R: 129, Amount: 200}, {L: 5000, R: 2, Amount: 128}}, Duration: 1 << 33},
		}},
	}
}

// TestSolveRespRoundTripsUnsortedSteps: the packed sharded schedule really
// lists a step's comms out of L order, so TestSolveRespRoundTrip covers it.
func TestSolveRespRoundTripsUnsortedSteps(t *testing.T) {
	for _, st := range roundTripSchedules(t)["packed sharded OGGP"].Steps {
		for j := 1; j < len(st.Comms); j++ {
			if st.Comms[j].L < st.Comms[j-1].L {
				return
			}
		}
	}
	t.Fatal("no packed step lists its comms out of L order")
}

// TestEncodeSolveRespAllocs: encoding sizes the payload in a first pass
// and allocates it once.
func TestEncodeSolveRespAllocs(t *testing.T) {
	resp, err := DecodeSolveResp(denseResp(t))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := EncodeSolveResp(1, resp.Schedule, TraceContext{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("encoding a dense 64x64 response makes %.1f allocations, want 1", allocs)
	}
}

// TestSolveRespPinnedSizes pins the size and SHA-256 of the untraced
// response to each respShapes instance, solved as redist-serve solves it
// (ShardAuto): 85,153 bytes for the dense 64×64 GGP instance, the size
// DESIGN.md §10.1 and README.md quote for dense64-ggp, then the power-law
// 256×256 OGGP and the small 16×16 GGP instances. A change to a served
// schedule or to the body layout that moves one byte fails here; the
// power-law instance has several components, so it covers the sharded
// path end to end.
func TestSolveRespPinnedSizes(t *testing.T) {
	want := []struct {
		name   string
		size   int
		sha256 string
	}{
		{"DenseGGP64", 85153, "450d4b8e3564330709b0d0ecd2fd43ac74e86c6a065ec4c9487479be6c3fd247"},
		{"PowerLawOGGP256", 6329, "43055f56c7a673777bc92ffbfef03d5be2ac3ea350275382ece41aa3eb04dab9"},
		{"MixedSmallGGP16", 2935, "3fa47e36f03a96dae8272d30ae2e6b5067abfe77981882807daddbb65143fd15"},
	}
	shapes := respShapes()
	if len(shapes) != len(want) {
		t.Fatalf("%d response shapes, %d pinned", len(shapes), len(want))
	}
	for i, s := range shapes {
		p, err := EncodeSolveResp(1, s.schedule(t), TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		w := want[i]
		if sum := fmt.Sprintf("%x", sha256.Sum256(p)); s.name != w.name || len(p) != w.size || sum != w.sha256 {
			t.Errorf("%s: %d-byte payload, SHA-256 %s; want %s at %d bytes, %s", s.name, len(p), sum, w.name, w.size, w.sha256)
		}
	}
}
