package tcptransport

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// testPayload exercises every field shape the codec lays out.
type testPayload struct {
	A uint64
	B int64
	C float64
	D bool
	E [3]byte
	F []int32
	G []pair
}

type pair struct {
	K  int32
	On bool
}

// payloadAt is the offset of the test payload in a frame of kind "test".
const payloadAt = headerLen + 13 + len("test")

func testCodec() *Codec {
	c := NewCodec()
	c.Register("test", testPayload{})
	c.Register("empty", nil)
	return c
}

func mustEncode(t *testing.T, msg netsim.Message) []byte {
	t.Helper()
	b, err := EncodeFrame(msg, testCodec())
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

func TestWireRoundTrip(t *testing.T) {
	c := testCodec()
	want := netsim.Message{
		From: 3, To: 7, Kind: "test", Size: 4096,
		Payload: testPayload{A: 1 << 60, B: -42, C: 2.5, D: true, E: [3]byte{0, 1, 2},
			F: []int32{-1, 1189}, G: []pair{{K: 7, On: true}, {K: -7}}},
	}
	frame := mustEncode(t, want)
	got, err := DecodeFrame(bytes.NewReader(frame), c)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.From != want.From || got.To != want.To || got.Kind != want.Kind || got.Size != want.Size {
		t.Fatalf("envelope mismatch: got %+v want %+v", got, want)
	}
	if !reflect.DeepEqual(got.Payload, want.Payload) {
		t.Fatalf("payload mismatch: got %+v want %+v", got.Payload, want.Payload)
	}

	// Two frames back to back decode in sequence; the reader then reports a
	// clean EOF, not an error.
	r := bytes.NewReader(append(append([]byte{}, frame...), frame...))
	for i := 0; i < 2; i++ {
		if _, err := DecodeFrame(r, c); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, err := DecodeFrame(r, c); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestWireNilPayload(t *testing.T) {
	c := testCodec()
	frame := mustEncode(t, netsim.Message{From: 1, To: 2, Kind: "empty"})
	got, err := DecodeFrame(bytes.NewReader(frame), c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload != nil {
		t.Fatalf("want nil payload, got %#v", got.Payload)
	}
}

func TestWireEncodeRejects(t *testing.T) {
	c := testCodec()
	if _, err := EncodeFrame(netsim.Message{Kind: "nope"}, c); err == nil {
		t.Fatal("unregistered kind must not encode")
	}
	if _, err := EncodeFrame(netsim.Message{Kind: "test", Payload: 42}, c); err == nil {
		t.Fatal("a payload of the wrong type must not encode")
	}
	if _, err := EncodeFrame(netsim.Message{Kind: "empty", Payload: testPayload{}}, c); err == nil {
		t.Fatal("a payload on a payload-less kind must not encode")
	}
	huge := netsim.Message{Kind: "test", Payload: testPayload{F: make([]int32, MaxBody/4)}}
	if _, err := EncodeFrame(huge, c); err == nil || !strings.Contains(err.Error(), "MaxBody") {
		t.Fatalf("oversize body must not encode, got %v", err)
	}
}

// TestWireDecodeRejectsMalformed is the bad-peer battery: every corrupted
// frame must come back as an error — never a panic, never a silent success.
func TestWireDecodeRejectsMalformed(t *testing.T) {
	c := testCodec()
	good := mustEncode(t, netsim.Message{
		From: 1, To: 2, Kind: "test", Size: 9,
		Payload: testPayload{D: true, F: []int32{5}},
	})
	corrupt := func(name string, mutate func(b []byte) []byte) {
		t.Helper()
		b := mutate(append([]byte{}, good...))
		if _, err := DecodeFrame(bytes.NewReader(b), c); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", name)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'x'; return b })
	corrupt("bad version", func(b []byte) []byte { b[2] = 99; return b })
	corrupt("truncated header", func(b []byte) []byte { return b[:5] })
	corrupt("truncated body", func(b []byte) []byte { return b[:len(b)-3] })
	corrupt("trailing junk inside frame", func(b []byte) []byte {
		b = append(b, 0xAA)
		binary.BigEndian.PutUint32(b[3:7], uint32(len(b)-headerLen))
		return b
	})
	corrupt("kind length past body", func(b []byte) []byte { b[headerLen+12] = 0xFF; return b })
	corrupt("unregistered kind", func(b []byte) []byte { b[headerLen+13] = 'X'; return b })
	corrupt("oversize announcement", func(b []byte) []byte {
		binary.BigEndian.PutUint32(b[3:7], MaxBody+1)
		return b
	})
	corrupt("slice count past payload", func(b []byte) []byte {
		// F's u32 count follows A, B, C (8 bytes each), D and E.
		binary.BigEndian.PutUint32(b[payloadAt+28:], 1<<30)
		return b
	})
	corrupt("non-canonical bool", func(b []byte) []byte { b[payloadAt+24] = 0xFE; return b })

	// An oversize announcement must be rejected before the body is read, so
	// a hostile peer cannot make the node allocate or block on MaxBody+1
	// bytes that never arrive. eofAfterHeader would block forever if the
	// decoder tried to read the announced body from a net.Conn; with a
	// short reader it must fail cleanly instead.
	hdr := []byte{magic0, magic1, wireVersion, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := DecodeFrame(bytes.NewReader(hdr), c); err == nil || strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("oversize header must be rejected without reading the body, got %v", err)
	}
}

// FuzzWireCodec feeds arbitrary bytes to the frame decoder. The invariant a
// bad peer cares about: DecodeFrame returns (message, nil) or an error —
// it never panics and never over-reads. Seed corpus includes valid frames so
// the fuzzer also explores the accept path, where decoded messages must
// re-encode to the identical bytes (the codec is canonical).
func FuzzWireCodec(f *testing.F) {
	c := testCodec()
	f.Add(mustEncodeF(f, netsim.Message{From: 0, To: 1, Kind: "test", Size: 7,
		Payload: testPayload{A: 1, B: -2, C: 3.5, D: true, E: [3]byte{9}, F: []int32{4}, G: []pair{{K: 1, On: true}}}}))
	f.Add(mustEncodeF(f, netsim.Message{From: 5, To: 0, Kind: "empty"}))
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, wireVersion, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeFrame(bytes.NewReader(data), c)
		if err != nil {
			return
		}
		re, err := EncodeFrame(msg, c)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		// The accepted prefix must be exactly the canonical encoding.
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data[:len(re)], re)
		}
	})
}

func TestRegisterRejectsUnlaidPayloads(t *testing.T) {
	type unexported struct{ a int32 }
	type platformInt struct{ N int }
	type text struct{ S string }
	type zeroWidth struct{ Z []struct{} }
	for name, proto := range map[string]any{
		"not a struct":         int32(1),
		"unexported field":     unexported{},
		"platform-sized int":   platformInt{},
		"string field":         text{},
		"zero-width slice":     zeroWidth{},
		"type of another kind": testPayload{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register accepted it", name)
				}
			}()
			testCodec().Register("other", proto)
		}()
	}
}

func mustEncodeF(f *testing.F, msg netsim.Message) []byte {
	f.Helper()
	b, err := EncodeFrame(msg, testCodec())
	if err != nil {
		f.Fatal(err)
	}
	return b
}
