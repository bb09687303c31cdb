package ecocloud

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/rng"
	"repro/internal/trace"
)

// This file is the decision kernel: the server-local trials of §II that
// every engine runs — the cluster-driver Policy, the netsim protocol and the
// ecod agents. Each function sees one server's local view, that server's
// private rng stream and the thresholds, and nothing else, so a decision
// never depends on another server or on the order servers are visited in.

// Accept is an invited server's answer to one invitation round (§II). ta is
// the round's threshold: f.Ta for an arrival or a low migration, Ta' for a
// high migration. The server rejects when ta is not a valid threshold (it
// may arrive from a peer) or when hosting load — the VM's demand over the
// server's capacity — would push its utilization u past ta. Otherwise it
// accepts without a draw while grace holds (§IV), and runs one Bernoulli
// trial on fa(u) under ta when it does not.
func (f AssignProbFunc) Accept(src *rng.Source, ta, u, load float64, grace bool) bool {
	if !(ta > 0 && ta <= 1) || u+load > ta {
		return false
	}
	if grace {
		return true
	}
	fa, err := f.at(ta)
	if err != nil {
		return false
	}
	return src.Bernoulli(fa.Eval(u))
}

// at returns f under the round threshold ta. An ordinary round reuses f
// as is; only an override rebuilds the normalizer.
func (f AssignProbFunc) at(ta float64) (AssignProbFunc, error) {
	//ecolint:allow float-eq — a round's Ta is copied verbatim from the config, so exact inequality means a real override
	if ta == f.Ta {
		return f, nil
	}
	return f.WithThreshold(ta)
}

// TightenedTa is the threshold of a high migration's invitation round,
// Ta' = min(factor·u, ta) for a source at utilization u: the VM lands only
// on a server less loaded than the one it leaves, so it cannot ping-pong.
func TightenedTa(factor, u, ta float64) float64 { return min(factor*u, ta) }

// Band is the migration band [Tl, Th] with the shapes of f_l and f_h.
type Band struct {
	Tl, Th      float64
	Alpha, Beta float64
}

// Scan is the migration trial of a loaded server at utilization u (§II).
// Inside [Tl, Th] it draws nothing. Below Tl it draws on f_l only when
// lowOK: the caller rules a low request out during grace and, in the
// Policy, during the cooldown. Above Th it always draws on f_h. It returns
// cluster.MigrationLow or cluster.MigrationHigh for a successful trial and
// "" otherwise.
func (b Band) Scan(src *rng.Source, u float64, lowOK bool) string {
	switch {
	case u < b.Tl:
		if lowOK && src.Bernoulli(MigrateLowProb(u, b.Tl, b.Alpha)) {
			return cluster.MigrationLow
		}
	case u > b.Th:
		if src.Bernoulli(MigrateHighProb(u, b.Th, b.Beta)) {
			return cluster.MigrationHigh
		}
	}
	return ""
}

// Pick selects the VM a server at utilization u migrates after a
// successful trial of the given kind (§II), from the candidates in VM ID
// order. A high migration picks uniformly among the VMs big enough that
// moving one brings u back to Th, or else the first of the largest; a low
// migration picks uniformly. Pick returns nil when vms is empty.
func (b Band) Pick(src *rng.Source, kind string, vms []*trace.VM, now time.Duration, u, capMHz float64) *trace.VM {
	if len(vms) == 0 {
		return nil
	}
	if kind != cluster.MigrationHigh {
		return vms[src.Intn(len(vms))]
	}
	need := (u - b.Th) * capMHz
	var big []*trace.VM
	for _, v := range vms {
		if v.DemandAt(now) >= need {
			big = append(big, v)
		}
	}
	if len(big) > 0 {
		return big[src.Intn(len(big))]
	}
	largest := vms[0]
	for _, v := range vms[1:] {
		if v.DemandAt(now) > largest.DemandAt(now) {
			largest = v
		}
	}
	return largest
}
