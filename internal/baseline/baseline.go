// Package baseline implements the centralized consolidation algorithms that
// the paper positions ecoCloud against.
//
// BFD is a power-aware Best Fit Decreasing reallocation in the style of
// Beloglazov & Buyya (CCGrid 2010) — the paper's reference [3] and the "one
// of the best centralized algorithms devised so far" of the abstract. Every
// control interval it detects servers outside a [lower, upper] utilization
// band, picks VMs to migrate (minimization-of-migrations for overload, full
// drain for underload), and re-places them on the servers that minimize the
// data center's power increase. FFD is the First Fit Decreasing variant
// (the paper's reference [16] style). AllOn never consolidates: it is the
// no-energy-management floor the savings are measured against.
//
// All three run under the exact same cluster driver and data-center model as
// ecoCloud, so every figure is directly comparable.
package baseline

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/trace"
)

// Fit selects the destination-choice rule of the centralized reallocator.
type Fit int

const (
	// BestFitPower places each VM on the feasible server with the smallest
	// power increase (ties: higher utilization, then lower ID).
	BestFitPower Fit = iota
	// FirstFit places each VM on the lowest-ID feasible server.
	FirstFit
)

// Config parameterizes the centralized policies.
type Config struct {
	// Upper and Lower bound the target utilization band. Defaults follow the
	// ecoCloud experiment settings (0.90 / 0.50) so comparisons are fair.
	Upper float64
	Lower float64
	// Power drives the best-fit objective.
	Power dc.PowerModel
	// Fit selects BFD vs FFD placement.
	Fit Fit
}

// DefaultConfig returns the band used in the comparison experiments.
func DefaultConfig() Config {
	return Config{Upper: 0.90, Lower: 0.50, Power: dc.DefaultPowerModel(), Fit: BestFitPower}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Upper <= 0 || c.Upper > 1 {
		return fmt.Errorf("baseline: Upper = %v outside (0,1]", c.Upper)
	}
	if c.Lower < 0 || c.Lower >= c.Upper {
		return fmt.Errorf("baseline: Lower = %v outside [0,Upper)", c.Lower)
	}
	if c.Power.PeakW <= 0 {
		return fmt.Errorf("baseline: power model peak = %v", c.Power.PeakW)
	}
	return nil
}

// Centralized is the BFD/FFD reallocation policy.
type Centralized struct {
	cfg  Config
	name string
}

var _ cluster.Policy = (*Centralized)(nil)

// NewBFD returns the power-aware Best Fit Decreasing policy.
func NewBFD(cfg Config) (*Centralized, error) {
	cfg.Fit = BestFitPower
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Centralized{cfg: cfg, name: "bfd"}, nil
}

// NewFFD returns the First Fit Decreasing policy.
func NewFFD(cfg Config) (*Centralized, error) {
	cfg.Fit = FirstFit
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Centralized{cfg: cfg, name: "ffd"}, nil
}

// Name implements cluster.Policy.
func (c *Centralized) Name() string { return c.name }

// fits reports whether adding demand to s keeps it inside the band.
func (c *Centralized) fits(s *dc.Server, now time.Duration, demand float64) bool {
	return s.UtilizationAt(now)+demand/s.CapacityMHz() <= c.cfg.Upper
}

// pick chooses the destination for a VM of the given demand among active
// servers, honoring the fit rule. exclude contains server IDs that may not
// receive (sources being drained). Returns nil if nothing fits.
func (c *Centralized) pick(env cluster.Env, demand float64, exclude map[int]bool) *dc.Server {
	var best *dc.Server
	var bestDelta, bestUtil float64
	for _, s := range env.DC.Servers {
		if s.State() != dc.Active || exclude[s.ID] || !c.fits(s, env.Now, demand) {
			continue
		}
		switch c.cfg.Fit {
		case FirstFit:
			return s // servers iterate in ID order
		case BestFitPower:
			u := s.UtilizationAt(env.Now)
			delta := c.cfg.Power.Power(dc.Active, u+demand/s.CapacityMHz()) - c.cfg.Power.Power(dc.Active, u)
			//ecolint:allow float-eq — exact tie on power delta falls through to the utilization tie-break
			if best == nil || delta < bestDelta || (delta == bestDelta && u > bestUtil) {
				best, bestDelta, bestUtil = s, delta, u
			}
		}
	}
	return best
}

// wake activates the hibernated server that fits the demand with the lowest
// resulting utilization headroom cost: the largest capacity first (smallest
// marginal power for future placements). Returns nil if none fits or none
// exists.
func (c *Centralized) wake(env cluster.Env, demand float64) *dc.Server {
	var best *dc.Server
	for _, s := range env.DC.HibernatedServers() {
		if demand > c.cfg.Upper*s.CapacityMHz() {
			continue
		}
		if best == nil || s.CapacityMHz() > best.CapacityMHz() {
			best = s
		}
	}
	if best == nil {
		return nil
	}
	if err := env.DC.Activate(best, env.Now); err != nil {
		panic(fmt.Sprintf("baseline: waking server %d: %v", best.ID, err))
	}
	return best
}

// OnArrival places the VM with the configured fit rule, waking a server if
// no active one fits.
func (c *Centralized) OnArrival(env cluster.Env, vm *trace.VM) {
	demand := vm.DemandAt(env.Now)
	dest := c.pick(env, demand, nil)
	if dest == nil {
		dest = c.wake(env, demand)
	}
	if dest == nil {
		env.Rec.Saturations++
		dest, _ = env.DC.LeastUtilizedAt(env.Now)
		if dest == nil {
			panic(fmt.Sprintf("baseline: no server for VM %d in an empty fleet", vm.ID))
		}
	}
	if err := env.DC.Place(vm, dest); err != nil {
		panic(fmt.Sprintf("baseline: placing VM %d: %v", vm.ID, err))
	}
}

// migrant is one VM scheduled for reallocation in a control round.
type migrant struct {
	vm     *trace.VM
	from   *dc.Server
	demand float64
	kind   string
}

// OnControl runs one centralized reallocation round:
//
//  1. overloaded servers shed the minimal set of VMs that restores u <= Upper
//     (largest-first among those that suffice — Beloglazov's MM heuristic);
//  2. underloaded servers are drained completely;
//  3. the migrant list, sorted by decreasing demand (the "Decreasing" in
//     BFD/FFD), is re-placed; overload migrants may wake servers, drain
//     migrants may not (draining must not switch machines on) — a drain
//     whose VMs cannot all be placed is cancelled;
//  4. emptied servers hibernate.
func (c *Centralized) OnControl(env cluster.Env) {
	now := env.Now
	var migrants []migrant
	exclude := map[int]bool{}

	for _, s := range env.DC.Servers {
		if s.State() != dc.Active || s.NumVMs() == 0 {
			continue
		}
		u := s.UtilizationAt(now)
		switch {
		case u > c.cfg.Upper:
			for _, m := range c.overloadPicks(s, now) {
				migrants = append(migrants, m)
			}
			exclude[s.ID] = true
		case u < c.cfg.Lower:
			for _, vm := range s.VMs() { // ID-sorted
				migrants = append(migrants, migrant{vm: vm, from: s, demand: vm.DemandAt(now), kind: cluster.MigrationLow})
			}
			exclude[s.ID] = true
		}
	}

	// Decreasing demand order; ties by VM ID for determinism.
	sort.Slice(migrants, func(i, j int) bool {
		//ecolint:allow float-eq — sort comparator: exact ties fall through to the VM-ID tie-break
		if migrants[i].demand != migrants[j].demand {
			return migrants[i].demand > migrants[j].demand
		}
		return migrants[i].vm.ID < migrants[j].vm.ID
	})

	// Drains are all-or-nothing per server: tentatively assign, commit later.
	type move struct {
		m    migrant
		dest *dc.Server
	}
	var commits []move
	drainMoves := map[int][]move{}
	drainFailed := map[int]bool{}

	for _, m := range migrants {
		if m.kind == cluster.MigrationLow && drainFailed[m.from.ID] {
			continue
		}
		dest := c.pick(env, m.demand, exclude)
		if dest == nil && m.kind == cluster.MigrationHigh {
			dest = c.wake(env, m.demand)
		}
		if dest == nil {
			if m.kind == cluster.MigrationLow {
				// Cancel the whole drain of this server; already-applied
				// moves roll back below.
				drainFailed[m.from.ID] = true
			}
			continue
		}
		// Apply immediately so subsequent picks see updated utilization;
		// drains roll back if a later VM of the same server fails.
		if err := env.DC.Migrate(m.vm.ID, dest); err != nil {
			panic(fmt.Sprintf("baseline: migrating VM %d: %v", m.vm.ID, err))
		}
		if m.kind == cluster.MigrationLow {
			drainMoves[m.from.ID] = append(drainMoves[m.from.ID], move{m, dest})
		} else {
			commits = append(commits, move{m, dest})
		}
	}

	for id, moves := range drainMoves {
		if drainFailed[id] {
			for _, mv := range moves {
				if err := env.DC.Migrate(mv.m.vm.ID, mv.m.from); err != nil {
					panic(fmt.Sprintf("baseline: rollback VM %d: %v", mv.m.vm.ID, err))
				}
			}
			continue
		}
		commits = append(commits, moves...)
	}

	for _, mv := range commits {
		env.Rec.Migration(now, mv.m.kind)
	}

	// Hibernate emptied servers.
	for _, s := range env.DC.Servers {
		if s.State() == dc.Active && s.NumVMs() == 0 {
			if err := env.DC.Hibernate(s); err != nil {
				panic(fmt.Sprintf("baseline: hibernating server %d: %v", s.ID, err))
			}
		}
	}
}

// overloadPicks returns the minimal migrant set that brings s back under
// Upper: repeatedly take the smallest VM whose removal suffices, or the
// largest VM when none alone suffices.
func (c *Centralized) overloadPicks(s *dc.Server, now time.Duration) []migrant {
	vms := s.VMs()
	// Sort ascending by demand for the "smallest sufficient" scan.
	sort.Slice(vms, func(i, j int) bool {
		di, dj := vms[i].DemandAt(now), vms[j].DemandAt(now)
		//ecolint:allow float-eq — sort comparator: exact ties fall through to the VM-ID tie-break
		if di != dj {
			return di < dj
		}
		return vms[i].ID < vms[j].ID
	})
	var out []migrant
	excess := s.DemandAt(now) - c.cfg.Upper*s.CapacityMHz()
	for excess > 0 && len(vms) > 0 {
		idx := -1
		for i, vm := range vms {
			if vm.DemandAt(now) >= excess {
				idx = i
				break
			}
		}
		if idx == -1 {
			idx = len(vms) - 1 // largest
		}
		vm := vms[idx]
		out = append(out, migrant{vm: vm, from: s, demand: vm.DemandAt(now), kind: cluster.MigrationHigh})
		excess -= vm.DemandAt(now)
		vms = append(vms[:idx], vms[idx+1:]...)
	}
	return out
}

// AllOn is the no-consolidation floor: every server stays active for the
// whole run and VMs are spread to balance load (least utilized first). It
// never migrates.
type AllOn struct{}

var _ cluster.Policy = (*AllOn)(nil)

// Name implements cluster.Policy.
func (*AllOn) Name() string { return "allon" }

// OnArrival places the VM on the least-utilized server, activating the
// whole fleet lazily on first use.
func (*AllOn) OnArrival(env cluster.Env, vm *trace.VM) {
	for _, s := range env.DC.HibernatedServers() {
		if err := env.DC.Activate(s, env.Now); err != nil {
			panic(err)
		}
	}
	dest, _ := env.DC.LeastUtilizedAt(env.Now)
	if dest == nil {
		panic("baseline: empty fleet")
	}
	if err := env.DC.Place(vm, dest); err != nil {
		panic(fmt.Sprintf("baseline: allon placing VM %d: %v", vm.ID, err))
	}
}

// OnControl does nothing: AllOn never consolidates or hibernates.
func (*AllOn) OnControl(cluster.Env) {}
