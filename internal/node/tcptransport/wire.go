// Package tcptransport carries the ecoCloud protocol between real processes:
// a full mesh of TCP connections with a length-prefixed binary frame codec,
// so the same cluster logic that runs on the simulated netsim fabric (and is
// pinned there by the goldens) can run as one shard per OS process on
// loopback or a real network.
//
// The package is quarantined from the simulation core by ecolint's boundary
// rule: sim-critical packages must not import it, because it deals in wall
// clocks, goroutines and sockets — everything the deterministic core forbids.
package tcptransport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"

	"repro/internal/netsim"
)

// Wire format. Every frame is
//
//	magic(2) version(1) bodyLen(4, big-endian) body
//
// and the body is
//
//	from(4) to(4) size(4) kindLen(1) kind payload
//
// where size is the message's logical byte count (what netsim's latency model
// and the Bytes counter see — a TRANSFER frame declares the VM's RAM bytes
// without shipping them), and payload is the kind's registered struct: its
// fields in declaration order, each laid out by encoding/binary, a slice as a
// u32 element count followed by its elements. All integers are big-endian
// and fixed-width: the codec must be rejectable byte-by-byte without
// trusting any length it has not yet bounds-checked.
const (
	magic0 = 0xEC // "ecod"
	magic1 = 0x0D

	// wireVersion 2: bools are one byte each (0 or 1) everywhere; version 1
	// packed MIGRATED's two flags into one byte.
	wireVersion = 2

	headerLen = 7

	// MaxBody bounds a frame body. A peer announcing more is malformed and
	// the connection is dropped before any allocation: a bad peer must never
	// panic or balloon a node.
	MaxBody = 1 << 20
)

// envelope is the fixed-width head of a frame body, ahead of the kind.
type envelope struct {
	From, To, Size int32
	KindLen        uint8
}

// Codec maps message kinds to payload types and back. Decoding a kind the
// codec was never taught is a malformed frame, not a guess.
type Codec struct {
	types map[string]reflect.Type
	kinds map[reflect.Type]string
}

// NewCodec returns an empty codec.
func NewCodec() *Codec {
	return &Codec{types: make(map[string]reflect.Type), kinds: make(map[reflect.Type]string)}
}

// Register teaches the codec one message kind, carried by payloads of
// proto's type: a struct whose exported fields are each fixed-size for
// encoding/binary (int32, int64, uint64, float64, bool, arrays and structs
// of those) or a slice of such elements. A nil proto declares a kind with
// no payload. Registering a kind or a payload type twice, or a type the
// codec cannot lay out, is a programming error.
func (c *Codec) Register(kind string, proto any) {
	if kind == "" || len(kind) > math.MaxUint8 {
		panic(fmt.Sprintf("tcptransport: unusable kind %q", kind))
	}
	if _, dup := c.types[kind]; dup {
		panic(fmt.Sprintf("tcptransport: kind %q registered twice", kind))
	}
	t := reflect.TypeOf(proto)
	if t != nil {
		if err := checkLayout(t); err != nil {
			panic(fmt.Sprintf("tcptransport: kind %q: %v", kind, err))
		}
		if other, dup := c.kinds[t]; dup {
			panic(fmt.Sprintf("tcptransport: %v registered for kinds %q and %q", t, other, kind))
		}
		c.kinds[t] = kind
	}
	c.types[kind] = t
}

// checkLayout reports whether t is a struct the generic codec can lay out.
func checkLayout(t reflect.Type) error {
	if t.Kind() != reflect.Struct {
		return fmt.Errorf("payload %v is not a struct", t)
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		ft := f.Type
		if ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		width := binary.Size(reflect.Zero(ft).Interface())
		switch {
		case !f.IsExported():
			return fmt.Errorf("%v.%s is unexported", t, f.Name)
		case width < 0:
			return fmt.Errorf("%v.%s has no fixed wire width", t, f.Name)
		case width == 0 && ft != f.Type:
			return fmt.Errorf("%v.%s is a slice of zero-width elements", t, f.Name)
		}
	}
	return nil
}

// Kind returns the kind registered for payload's type.
func (c *Codec) Kind(payload any) (string, bool) {
	k, ok := c.kinds[reflect.TypeOf(payload)]
	return k, ok
}

// clone returns a copy of c that can be extended without touching c.
func (c *Codec) clone() *Codec {
	out := NewCodec()
	for kind, t := range c.types {
		out.types[kind] = t
	}
	for t, kind := range c.kinds {
		out.kinds[t] = kind
	}
	return out
}

// writePayload appends v's fields in declaration order. Register has checked
// every field's layout, so binary.Write cannot fail on a bytes.Buffer.
func writePayload(w *bytes.Buffer, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Slice {
			_ = binary.Write(w, binary.BigEndian, uint32(f.Len()))
		}
		_ = binary.Write(w, binary.BigEndian, f.Interface())
	}
}

// readPayload decodes body as a value of type t (nil: no payload). Each
// slice count is bounds-checked against the bytes left before anything is
// allocated, and the body must be the canonical encoding of the value it
// decodes to: a bool byte other than 0 or 1 re-encodes differently and is
// rejected, so no two frames decode to the same message.
func readPayload(t reflect.Type, body []byte) (any, error) {
	if t == nil {
		if len(body) != 0 {
			return nil, fmt.Errorf("%d trailing bytes", len(body))
		}
		return nil, nil
	}
	v := reflect.New(t).Elem()
	r := bytes.NewReader(body)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Slice {
			var n uint32
			if err := binary.Read(r, binary.BigEndian, &n); err != nil {
				return nil, fmt.Errorf("%s count: %w", t.Field(i).Name, err)
			}
			if n == 0 {
				continue
			}
			width := binary.Size(reflect.Zero(f.Type().Elem()).Interface())
			if uint64(n)*uint64(width) > uint64(r.Len()) {
				return nil, fmt.Errorf("%s: %d elements of %d bytes, %d bytes left", t.Field(i).Name, n, width, r.Len())
			}
			f.Set(reflect.MakeSlice(f.Type(), int(n), int(n)))
		}
		if err := binary.Read(r, binary.BigEndian, f.Addr().Interface()); err != nil {
			return nil, fmt.Errorf("%s: %w", t.Field(i).Name, err)
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	var re bytes.Buffer
	writePayload(&re, v)
	if !bytes.Equal(re.Bytes(), body) {
		return nil, fmt.Errorf("body is not the canonical encoding of its %v", t)
	}
	return v.Interface(), nil
}

// EncodeFrame serializes one message into a complete frame. The payload must
// have the type registered for the message's kind; anything else is a
// programming error on the sending side and returns an error rather than
// crossing the wire corrupted.
func EncodeFrame(msg netsim.Message, c *Codec) ([]byte, error) {
	t, ok := c.types[msg.Kind]
	if !ok {
		return nil, fmt.Errorf("tcptransport: encode: unregistered kind %q", msg.Kind)
	}
	if got := reflect.TypeOf(msg.Payload); got != t {
		return nil, fmt.Errorf("tcptransport: encode %q: payload %v, kind carries %v", msg.Kind, got, t)
	}
	var w bytes.Buffer
	w.Write([]byte{magic0, magic1, wireVersion, 0, 0, 0, 0})
	_ = binary.Write(&w, binary.BigEndian, envelope{
		From: int32(msg.From), To: int32(msg.To), Size: int32(msg.Size), KindLen: uint8(len(msg.Kind)),
	})
	w.WriteString(msg.Kind)
	if t != nil {
		writePayload(&w, reflect.ValueOf(msg.Payload))
	}
	frame := w.Bytes()
	body := len(frame) - headerLen
	if body > MaxBody {
		return nil, fmt.Errorf("tcptransport: encode %q: body %d exceeds MaxBody %d", msg.Kind, body, MaxBody)
	}
	binary.BigEndian.PutUint32(frame[3:headerLen], uint32(body))
	return frame, nil
}

// DecodeFrame reads one frame from r and returns the decoded message.
// io.EOF at a frame boundary is returned as io.EOF; every other shortfall or
// inconsistency is an error that the caller must treat as a poisoned
// connection. DecodeFrame never panics on adversarial input.
func DecodeFrame(r io.Reader, c *Codec) (netsim.Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return netsim.Message{}, err // io.EOF here is a clean close
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return netsim.Message{}, unexpected(err)
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return netsim.Message{}, fmt.Errorf("tcptransport: bad magic %#02x%02x", hdr[0], hdr[1])
	}
	if hdr[2] != wireVersion {
		return netsim.Message{}, fmt.Errorf("tcptransport: wire version %d, want %d", hdr[2], wireVersion)
	}
	body := binary.BigEndian.Uint32(hdr[3:headerLen])
	if body > MaxBody {
		return netsim.Message{}, fmt.Errorf("tcptransport: frame body %d exceeds MaxBody %d", body, MaxBody)
	}
	buf := make([]byte, body)
	if _, err := io.ReadFull(r, buf); err != nil {
		return netsim.Message{}, unexpected(err)
	}
	return decodeBody(buf, c)
}

// decodeBody parses a complete frame body. Split out so the fuzz target can
// hit the parser without a reader in the way.
func decodeBody(buf []byte, c *Codec) (netsim.Message, error) {
	r := bytes.NewReader(buf)
	var env envelope
	if err := binary.Read(r, binary.BigEndian, &env); err != nil {
		return netsim.Message{}, fmt.Errorf("tcptransport: truncated body: %w", err)
	}
	kind := make([]byte, env.KindLen)
	if _, err := io.ReadFull(r, kind); err != nil {
		return netsim.Message{}, fmt.Errorf("tcptransport: truncated body: %w", err)
	}
	t, ok := c.types[string(kind)]
	if !ok {
		return netsim.Message{}, fmt.Errorf("tcptransport: unregistered kind %q", kind)
	}
	payload, err := readPayload(t, buf[len(buf)-r.Len():])
	if err != nil {
		return netsim.Message{}, fmt.Errorf("tcptransport: decode %q: %w", kind, err)
	}
	return netsim.Message{
		From: netsim.NodeID(env.From), To: netsim.NodeID(env.To),
		Kind: string(kind), Payload: payload, Size: int(env.Size),
	}, nil
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
