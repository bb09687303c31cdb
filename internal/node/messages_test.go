package node

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/node/tcptransport"
)

// samples holds one valid payload per message kind, every field and slice
// non-zero so a field the codec drops or reorders shows up.
var samples = map[string]any{
	"invite":    inviteMsg{Round: 3, Demand: 812.5, Ta: 0.9, Exclude: -1, NowNS: 4e12},
	"reply":     replyMsg{Round: 3, Node: 2, Accepts: []int32{11, 14}},
	"assign":    assignMsg{VMID: 77, Server: 14, Wake: true, NowNS: 4e12},
	"assigned":  assignedMsg{VMID: 77, Server: 14, Activated: true},
	"remove":    removeMsg{VMID: 77, NowNS: 5e12},
	"removed":   removedMsg{VMID: 77},
	"scan":      scanMsg{NowNS: 6e12},
	"scandone":  scandoneMsg{Node: 1, Hibernated: []int32{6}, MigReqs: []migReqEntry{{Server: 7, VMID: 9, High: true, U: 0.97}}},
	"wake":      wakeMsg{Server: 5, NowNS: 6e12},
	"woken":     wokenMsg{Server: 5},
	"migrate":   migrateMsg{VMID: 9, DestNode: 2, DestServer: 12, High: true, NowNS: 6e12},
	"transfer":  transferMsg{VMID: 9, DestServer: 12, High: true, NowNS: 6e12},
	"cutover":   cutoverMsg{VMID: 9, SrcServer: 7, NowNS: 6e12},
	"migrated":  migratedMsg{VMID: 9, Server: 12, OK: true, Activated: true},
	"utilquery": utilQueryMsg{NowNS: 7e12},
	"utilbest":  utilBestMsg{Node: 2, Has: true, Server: 13, U: 0.41},
	"done":      doneMsg{HorizonNS: 8e12},
	"summary": summaryMsg{Node: 2, Placements: 10, Removals: 4, MigrationsIn: 3, MigrationsOut: 2,
		Hibernates: 1, Activations: 5, FinalActive: 6, EnergyKWh: 1.25, MsgsSent: 900, BytesSent: 1 << 20},
}

func sampleFrame(t testing.TB, payload any) []byte {
	t.Helper()
	frame, err := tcptransport.EncodeFrame(message(1, 2, payload, 100), codec)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func decode(frame []byte) (any, error) {
	msg, err := tcptransport.DecodeFrame(bytes.NewReader(frame), codec)
	return msg.Payload, err
}

// Every kind in the table round-trips, and its frame with the payload cut
// short by one byte (the 7-byte frame header's length adjusted to match) is
// rejected rather than zero-filled.
func TestMessageCodecEveryKind(t *testing.T) {
	if len(samples) != len(messages) {
		t.Fatalf("%d samples for %d kinds", len(samples), len(messages))
	}
	for _, m := range messages {
		payload, ok := samples[m.kind]
		if !ok {
			t.Fatalf("no sample for kind %q", m.kind)
		}
		if got := kindOf(payload); got != m.kind {
			t.Fatalf("kindOf(%T) = %q, want %q", payload, got, m.kind)
		}
		frame := sampleFrame(t, payload)
		got, err := decode(frame)
		if err != nil || !reflect.DeepEqual(got, payload) {
			t.Errorf("%s: round trip gave %+v, %v; want %+v", m.kind, got, err, payload)
		}
		short := append([]byte{}, frame[:len(frame)-1]...)
		binary.BigEndian.PutUint32(short[3:7], uint32(len(short)-7))
		if got, err := decode(short); err == nil {
			t.Errorf("%s: truncated payload decoded as %+v", m.kind, got)
		}
	}
}

// A flag byte other than 0 or 1 decodes to a bool that re-encodes to
// different bytes, so accepting it would let two frames mean one message.
func TestMessageCodecRejectsNonCanonicalFlags(t *testing.T) {
	for _, c := range []struct {
		payload any
		fromEnd int // the flag byte's distance from the frame's end
	}{
		{assignMsg{VMID: 1, Server: 2, Wake: true, NowNS: 3}, 9},
		{migratedMsg{VMID: 1, Server: 2, OK: true, Activated: true}, 1},
	} {
		frame := sampleFrame(t, c.payload)
		frame[len(frame)-c.fromEnd] = 0xFE
		if got, err := decode(frame); err == nil {
			t.Errorf("%T with a 0xFE flag byte decoded as %+v", c.payload, got)
		}
	}
}

// FuzzMessageCodec feeds arbitrary bytes to the ecod codec: DecodeFrame
// returns a message or an error, never panics, and a message it accepts
// re-encodes to exactly the bytes it was read from (the codec is
// canonical). Seeded with one valid frame per kind.
func FuzzMessageCodec(f *testing.F) {
	for _, m := range messages {
		f.Add(sampleFrame(f, samples[m.kind]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := tcptransport.DecodeFrame(bytes.NewReader(data), codec)
		if err != nil {
			return
		}
		re, err := tcptransport.EncodeFrame(msg, codec)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data[:len(re)], re)
		}
	})
}
