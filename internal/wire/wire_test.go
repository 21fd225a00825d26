package wire

import (
	"bytes"
	"cmp"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// sortedKeys returns m's keys in ascending order. The tests range over
// them instead of over m, so that table cases, subtests and fuzz seeds run
// and are numbered in the same order on every run.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Type: MsgData, Src: 3, Dst: 7, Payload: []byte("hello")}
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != in.Type || out.Src != in.Src || out.Dst != in.Dst || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestRoundTripEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Frame{Type: MsgBarrier, Src: -1, Dst: 2}); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != MsgBarrier || out.Src != -1 || out.Dst != 2 || len(out.Payload) != 0 {
		t.Fatalf("bad frame: %+v", out)
	}
}

func TestMultipleFramesStream(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{Type: MsgXfer, Src: 0, Dst: 1, Payload: PutUint64(1 << 40)},
		{Type: MsgData, Src: 0, Dst: 1, Payload: bytes.Repeat([]byte{0xAB}, 1000)},
		{Type: MsgAck, Src: 1, Dst: 0, Payload: PutUint64(1000)},
		{Type: MsgDone, Src: 0, Dst: 1},
	}
	for _, f := range frames {
		if err := Write(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := Read(&buf); err != io.EOF {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

func TestWriteRejectsOversizedPayload(t *testing.T) {
	err := Write(io.Discard, Frame{Type: MsgData, Payload: make([]byte, MaxPayload+1)})
	if err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestReadRejectsOversizedDeclaration(t *testing.T) {
	var buf bytes.Buffer
	// Hand-craft a header declaring a payload beyond MaxPayload.
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgData), 0, 0, 0, 0, 0, 0, 0, 0})
	if _, err := Read(&buf); err == nil {
		t.Fatal("oversized declaration accepted")
	}
}

func TestReadTruncatedHeader(t *testing.T) {
	if _, err := Read(strings.NewReader("\x00\x00")); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestReadTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Frame{Type: MsgData, Payload: []byte("abcdef")}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestUint64Helpers(t *testing.T) {
	v, err := Uint64(PutUint64(0xDEADBEEFCAFE))
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEFCAFE {
		t.Fatalf("got %x", v)
	}
	if _, err := Uint64([]byte{1, 2, 3}); err == nil {
		t.Fatal("short uint64 payload accepted")
	}
}

func TestMsgTypeString(t *testing.T) {
	names := map[MsgType]string{
		MsgXfer: "XFER", MsgData: "DATA", MsgAck: "ACK",
		MsgBarrier: "BARRIER", MsgDone: "DONE",
	}
	for _, ty := range sortedKeys(names) {
		if want := names[ty]; ty.String() != want {
			t.Fatalf("%d.String() = %q, want %q", ty, ty.String(), want)
		}
	}
	if !strings.Contains(MsgType(99).String(), "99") {
		t.Fatal("unknown type should embed value")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := Frame{
			Type:    MsgType(1 + rng.Intn(5)),
			Src:     int32(rng.Int31()) - 1<<30,
			Dst:     int32(rng.Int31()) - 1<<30,
			Payload: make([]byte, rng.Intn(4096)),
		}
		rng.Read(in.Payload)
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil {
			return false
		}
		return out.Type == in.Type && out.Src == in.Src && out.Dst == in.Dst &&
			bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
