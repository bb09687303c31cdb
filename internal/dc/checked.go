package dc

import (
	"fmt"
	"math"
	"time"
)

// Checked mode is the runtime half of the determinism/correctness tooling
// (the static half is cmd/ecolint): when enabled, the data center re-verifies
// its structural invariants after every mutation and the cluster runner
// additionally audits the numeric state at each control tick. A violation is
// a bug in the model or a policy, never an expected condition, so checked
// mode fails hard with a panic that names the mutation that broke the state.
//
// Enable it per data center with SetChecked, or for every data center in the
// process by building with the ecodebug tag:
//
//	go test -tags ecodebug ./...

// SetChecked turns per-mutation invariant checking on or off. The zero-value
// default follows the ecodebug build tag (see defaultChecked).
func (d *DataCenter) SetChecked(on bool) { d.checked = on }

// Checked reports whether per-mutation invariant checking is enabled.
func (d *DataCenter) Checked() bool { return d.checked }

// verify is called by emit after every mutation when checked mode is on.
func (d *DataCenter) verify(e Event) {
	if err := d.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("dc: invariant violated after %s (vm=%d server=%d dest=%d): %v",
			e.Kind, e.VM, e.Server, e.Dest, err))
	}
}

// CheckServerRuntime audits the numeric state of one server (by index into
// Servers) at virtual time now: demands must be finite and non-negative,
// per-server over-demand must agree with demand minus capacity, and
// hibernated servers must be empty and demand-free. It complements
// CheckInvariants, which audits the structural state (indexes, sortedness,
// RAM accounting) independent of time. It only touches that server's state,
// so a parallel control round can shard the audit across workers (see
// AuditSpan) and merge the first error in index order, matching what the
// sequential loop reports.
func (d *DataCenter) CheckServerRuntime(i int, now time.Duration) error {
	s := d.Servers[i]
	demand := 0.0
	for _, vm := range s.vms {
		v := vm.DemandAt(now)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dc: VM %d on server %d has non-finite demand %v at %v", vm.ID, s.ID, v, now)
		}
		if v < 0 {
			return fmt.Errorf("dc: VM %d on server %d has negative demand %v at %v", vm.ID, s.ID, v, now)
		}
		demand += v
	}
	if st := s.State(); st != Active && demand > 0 {
		return fmt.Errorf("dc: %s server %d carries demand %v at %v", st, s.ID, demand, now)
	}
	// The demand kernel promises bit-identity with the naive summation
	// just performed, so this comparison is exact, not tolerance-based.
	//ecolint:allow float-eq — the kernel's contract IS bit-identity; any tolerance would mask the bug this check exists to catch
	if got := s.DemandAt(now); got != demand {
		return fmt.Errorf("dc: server %d cached demand %v disagrees with recomputation %v at %v", s.ID, got, demand, now)
	}
	want := demand - s.CapacityMHz()
	if want < 0 {
		want = 0
	}
	if got := s.OverDemandAt(now); math.Abs(got-want) > 1e-6 {
		return fmt.Errorf("dc: server %d over-demand %v disagrees with demand-capacity %v at %v", s.ID, got, want, now)
	}
	return nil
}
