package ecocloud

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/rng"
	"repro/internal/trace"
)

// This file is the decision kernel: the trials of §II and §V that every
// engine runs — the cluster-driver Policy, the netsim protocol and the ecod
// agents. A server-side function sees one server's local view, that
// server's private rng stream and the thresholds, and nothing else, so a
// decision never depends on another server or on the order servers are
// visited in. Invitees is the one manager-side decision: who is invited.

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

// MultiTrial is the §V extension of Accept to memory: fa on CPU and on RAM,
// combined by Strategy.
type MultiTrial struct {
	CPU, RAM AssignProbFunc
	Strategy MultiStrategy
}

// Accept is a server's answer to one invitation round when it models
// memory. ta, u, load and grace mean what they mean to AssignProbFunc.Accept;
// ramU is the server's memory utilization and ramLoad the VM's footprint
// over the server's memory. The VM must fit under both thresholds; a server
// in grace then accepts without a draw. Otherwise AllTrials draws on CPU and,
// only if that succeeds, on RAM; CriticalPlusConstraints draws once, on the
// resource with the higher utilization relative to its threshold (ties go
// to CPU).
func (m MultiTrial) Accept(src *rng.Source, ta, u, load, ramU, ramLoad float64, grace bool) bool {
	if !(ta > 0 && ta <= 1) || u+load > ta || ramU+ramLoad > m.RAM.Ta {
		return false
	}
	if grace {
		return true
	}
	fa, err := m.CPU.at(ta)
	if err != nil {
		return false
	}
	if m.Strategy == CriticalPlusConstraints {
		if ramU/m.RAM.Ta > u/ta {
			return src.Bernoulli(m.RAM.Eval(ramU))
		}
		return src.Bernoulli(fa.Eval(u))
	}
	return src.Bernoulli(fa.Eval(u)) && src.Bernoulli(m.RAM.Eval(ramU))
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

// Invitees returns the servers one invitation round reaches (§II): the
// active servers other than exclude (-1 for none). With groups above 1 it
// keeps only the static group ID mod groups == *next mod groups and advances
// *next, so successive rounds rotate through the groups (footnote 1). With
// subset positive and more candidates than that, it samples subset of them
// uniformly with one mgr.Perm and returns them in Perm order. The result
// never aliases servers.
func Invitees(servers []*dc.Server, exclude, groups, subset int, next *int, mgr *rng.Source) []*dc.Server {
	group := -1
	if groups > 1 {
		group = *next % groups
		*next++
	}
	out := make([]*dc.Server, 0, len(servers))
	for _, s := range servers {
		if s.State() != dc.Active || s.ID == exclude || (group >= 0 && s.ID%groups != group) {
			continue
		}
		out = append(out, s)
	}
	if subset <= 0 || len(out) <= subset {
		return out
	}
	perm := mgr.Perm(len(out))
	sample := make([]*dc.Server, subset)
	for i := range sample {
		sample[i] = out[perm[i]]
	}
	return sample
}
