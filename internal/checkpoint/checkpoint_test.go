package checkpoint

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/rng"
)

func sampleCheckpoint() *Checkpoint {
	ck := New(7200 * 1e9)
	ck.Policy = "ecocloud"
	ck.RNG = map[string]rng.State{
		"a": rng.New(1).State(),
		"b": rng.New(2).State(),
	}
	ck.PolicyState = json.RawMessage(`{"next_group":3}`)
	ck.Meta = map[string]string{"seed": "42"}
	return ck
}

func TestWriteReadRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	var buf bytes.Buffer
	if err := Write(&buf, ck); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.AtNS != ck.AtNS || got.Policy != ck.Policy {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.RNG["a"] != ck.RNG["a"] || got.RNG["b"] != ck.RNG["b"] {
		t.Fatal("rng states did not round-trip")
	}
	// The indented encoder reformats raw sections; content must survive.
	var a, b bytes.Buffer
	if err := json.Compact(&a, got.PolicyState); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if err := json.Compact(&b, ck.PolicyState); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("policy state %s want %s", a.Bytes(), b.Bytes())
	}
	// The wire bytes themselves must be deterministic (sorted maps).
	var buf2 bytes.Buffer
	if err := Write(&buf2, got); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	var buf3 bytes.Buffer
	if err := Write(&buf3, sampleCheckpoint()); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Fatal("wire bytes not deterministic")
	}
}

// Files written while the format still had protocol and faults sections
// load unchanged: Read ignores both keys.
func TestReadIgnoresRetiredSections(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleCheckpoint()); err != nil {
		t.Fatalf("write: %v", err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	doc["protocol"] = json.RawMessage(`{"next_round":4}`)
	doc["faults"] = json.RawMessage(`{"stats":{}}`)
	old, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var rewritten bytes.Buffer
	if err := Write(&rewritten, got); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if !bytes.Equal(rewritten.Bytes(), buf.Bytes()) {
		t.Fatalf("old file read back as\n%s\nwant\n%s", rewritten.Bytes(), buf.Bytes())
	}
}

func TestValidate(t *testing.T) {
	if err := sampleCheckpoint().Validate(); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	bad := sampleCheckpoint()
	bad.Version = Version + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("future version accepted")
	}
	bad = sampleCheckpoint()
	bad.AtNS = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero capture time accepted")
	}
}

func TestForkIdentity(t *testing.T) {
	ck := sampleCheckpoint()
	fork, err := ck.Fork("")
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	if fork.RNG["a"] != ck.RNG["a"] || fork.RNG["b"] != ck.RNG["b"] {
		t.Fatal("empty-label fork must preserve rng states")
	}
	// The fork is a deep copy: mutating it must not touch the original.
	fork.Meta["seed"] = "tampered"
	if ck.Meta["seed"] != "42" {
		t.Fatal("fork shares Meta with the original")
	}
	st := fork.RNG["a"]
	st.S[0] ^= 1
	fork.RNG["a"] = st
	if ck.RNG["a"].S[0] == st.S[0] {
		t.Fatal("fork shares RNG map with the original")
	}
}

func TestForkDeterministicDivergence(t *testing.T) {
	ck := sampleCheckpoint()
	f1, err := ck.Fork("rep/1")
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	f1again, err := ck.Fork("rep/1")
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	f2, err := ck.Fork("rep/2")
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	if f1.RNG["a"] != f1again.RNG["a"] {
		t.Fatal("same label must fork deterministically")
	}
	if f1.RNG["a"] == f2.RNG["a"] {
		t.Fatal("distinct labels must diverge")
	}
	if f1.RNG["a"] == ck.RNG["a"] {
		t.Fatal("non-empty label must change the stream")
	}
	// Streams stay pairwise distinct inside one fork.
	if f1.RNG["a"] == f1.RNG["b"] {
		t.Fatal("fork collapsed distinct streams")
	}
}
