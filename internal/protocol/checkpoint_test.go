package protocol

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/dc"
	"repro/internal/rng"
)

// warmCluster places a few VMs and drains the engine, leaving a quiescent
// cluster with consumed rng streams, non-trivial stats and traffic counters.
func warmCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(fixedConfig(), dc.UniformFleet(6, 6, 2000), 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		c.PlaceVM(constVM(i, 700))
	}
	c.Engine().Run(time.Hour)
	return c
}

func TestClusterCheckpointRoundTrip(t *testing.T) {
	c := warmCluster(t)
	c.pendingMig[3] = 40 * time.Minute
	c.inflight[3] = true
	c.pendingWakes[5] = &pendingWake{reserved: 900, count: 2}

	raw, err := c.MarshalCheckpoint()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	reg := rng.NewRegistry()
	c.RegisterStreams(reg)
	states := reg.States()

	// A fresh cluster from the same config+seed with the state adopted must
	// re-marshal to the same bytes and continue every stream identically.
	q, err := New(fixedConfig(), dc.UniformFleet(6, 6, 2000), 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.UnmarshalCheckpoint(raw); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := q.AdoptStreams(states); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	raw2, err := q.MarshalCheckpoint()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("state did not round-trip:\n%s\n%s", raw, raw2)
	}
	if q.Stats != c.Stats {
		t.Fatalf("stats %+v want %+v", q.Stats, c.Stats)
	}
	if q.net.Sent != c.net.Sent || q.net.Bytes != c.net.Bytes {
		t.Fatal("network counters did not round-trip")
	}
	for _, id := range []int{0, 3, 5} {
		if a, b := c.servers[id].Float64(), q.servers[id].Float64(); a != b {
			t.Fatalf("server %d stream diverged", id)
		}
	}
	if a, b := c.mgr.Float64(), q.mgr.Float64(); a != b {
		t.Fatal("manager stream diverged")
	}
	if a, b := c.net.RNG().Float64(), q.net.RNG().Float64(); a != b {
		t.Fatal("net stream diverged")
	}
}

func TestCheckpointRefusesOpenRounds(t *testing.T) {
	c := warmCluster(t)
	c.rounds[c.nextRound] = &round{id: c.nextRound}
	if _, err := c.MarshalCheckpoint(); err == nil {
		t.Fatal("checkpoint with an open invitation round accepted")
	}
}

func TestAdoptStreamsRejectsForeignLabel(t *testing.T) {
	c := warmCluster(t)
	reg := rng.NewRegistry()
	c.RegisterStreams(reg)
	states := reg.States()
	states["ecocloud/master"] = rng.New(1).State()

	q, err := New(fixedConfig(), dc.UniformFleet(6, 6, 2000), 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.AdoptStreams(states); err == nil {
		t.Fatal("foreign stream label accepted")
	}
}
