package node

import (
	"math"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/trace"
)

// sendRecorder is a transport that keeps every sent message.
type sendRecorder struct{ sent []netsim.Message }

func (r *sendRecorder) Register(netsim.NodeID, netsim.Handler) {}
func (r *sendRecorder) Send(m netsim.Message)                  { r.sent = append(r.sent, m) }
func (r *sendRecorder) Broadcast(netsim.NodeID, []netsim.NodeID, string, any, int) {
}
func (r *sendRecorder) Stats() (int, int64) { return len(r.sent), 0 }

// An invitation's Ta comes off the wire from a peer. A NaN Ta fails every
// comparison, so a server in its grace period must not read "not above Ta"
// as "fits" and accept a VM of any size.
func TestInviteWithInvalidTaIsRejected(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.Servers = 2
	cfg.Nodes = []NodeSpec{{ID: 0, Span: Span{0, 0}}, {ID: 1, Span: Span{0, 2}}}
	tr := &sendRecorder{}
	a, err := newAgent(&cfg, 1, &trace.Set{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Minute
	for _, s := range a.dcen.Servers {
		if err := a.dcen.Activate(s, now); err != nil { // in grace from now on
			t.Fatal(err)
		}
	}
	for i, ta := range []float64{math.NaN(), math.Inf(1), 0.9} {
		tr.sent = nil
		a.onInvite(inviteMsg{Round: int32(i), Demand: 1e6, Ta: ta, Exclude: -1, NowNS: int64(now)})
		if len(tr.sent) != 1 {
			t.Fatalf("Ta=%v: %d messages sent, want one reply", ta, len(tr.sent))
		}
		if rep := tr.sent[0].Payload.(replyMsg); len(rep.Accepts) != 0 {
			t.Errorf("Ta=%v: servers %v accepted a 1 THz VM", ta, rep.Accepts)
		}
	}
	tr.sent = nil
	a.onInvite(inviteMsg{Round: 3, Demand: 100, Ta: 0.9, Exclude: -1, NowNS: int64(now)})
	if rep := tr.sent[0].Payload.(replyMsg); len(rep.Accepts) != 2 {
		t.Fatalf("in-grace servers accepted %v of a small VM, want both", rep.Accepts)
	}
}
