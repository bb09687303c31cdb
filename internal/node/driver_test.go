package node

import (
	"testing"
	"time"

	"repro/internal/dc"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/trace"
)

// assignAcker is a transport that answers every assign the way a shard
// does, so the driver's barrier completes without agents.
type assignAcker struct {
	sendRecorder
	d *driver
}

func (a *assignAcker) Send(m netsim.Message) {
	a.sendRecorder.Send(m)
	if p, ok := m.Payload.(assignMsg); ok {
		a.d.inbox <- assignedMsg{VMID: p.VMID, Server: p.Server, Activated: p.Wake}
	}
}

// The driver reads capacity per server: on a mixed fleet, a VM too big for
// every sleeping server wakes the largest one, not the lowest ID, and the
// pick draws nothing.
func TestDriverWakeAssignPicksLargest(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Servers = 4
	cfg.Nodes = []NodeSpec{{ID: 0, Span: Span{0, 4}}}
	tr := &assignAcker{}
	d, err := newDriver(&cfg, &trace.Set{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.d = d
	d.fleet = []dc.Spec{{Cores: 4, CoreMHz: 2000}, {Cores: 6, CoreMHz: 2000}, {Cores: 8, CoreMHz: 2000}, {Cores: 8, CoreMHz: 2000}}

	vm := constVM(1, 20000)
	d.wakeAssign(time.Minute, vm, vm.DemandAt(time.Minute))
	if len(tr.sent) != 1 {
		t.Fatalf("%d messages sent, want one wake+assign", len(tr.sent))
	}
	if got := tr.sent[0].Payload.(assignMsg); got.Server != 2 || !got.Wake {
		t.Fatalf("assign %+v, want a wake of server 2, the first 8-core server", got)
	}
	if !d.active[2] || d.loc[vm.ID] != 2 || d.stats.Wakes != 1 {
		t.Fatalf("mirror active=%v loc=%d wakes=%d after the wake", d.active, d.loc[vm.ID], d.stats.Wakes)
	}
	if d.mgr.State() != rng.New(cfg.Seed+1).Split("manager").State() {
		t.Fatal("an unfit wake drew on the manager stream")
	}
}

func constVM(id int, mhz float64) *trace.VM {
	return &trace.VM{ID: id, End: 1000 * time.Hour, Epoch: 1000 * time.Hour, Demand: []float64{mhz}}
}
