package ecocloud

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Policy is the ecoCloud consolidation algorithm (assignment + migration
// procedures) in the shape the cluster driver runs. It is not safe for
// concurrent use; the driver invokes callbacks sequentially.
type Policy struct {
	cfg  Config
	fa   AssignProbFunc
	band Band
	// multi is the §V two-resource trial (zero value when cfg.RAM is nil).
	multi MultiTrial

	// mgr is the data-center manager's stream: choosing among available
	// servers, picking which hibernated server to wake, sampling invitation
	// subsets.
	mgr *rng.Source
	// servers holds one independent stream per server, so Bernoulli draws
	// do not depend on iteration (or goroutine) order.
	servers map[int]*rng.Source
	master  *rng.Source

	// lastMig is the virtual time of each server's last migration request,
	// for the cooldown.
	lastMig map[int]time.Duration

	// nextGroup rotates which static server group receives the next
	// invitation when InviteGroups is enabled.
	nextGroup int
}

var _ cluster.Policy = (*Policy)(nil)

// New builds an ecoCloud policy from a validated configuration and a seed.
func New(cfg Config, seed uint64) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fa, err := NewAssignProb(cfg.Ta, cfg.P)
	if err != nil {
		return nil, err
	}
	var multi MultiTrial
	if cfg.RAM != nil {
		faRAM, err := NewAssignProb(cfg.RAM.Ta, cfg.RAM.P)
		if err != nil {
			return nil, err
		}
		multi = MultiTrial{CPU: fa, RAM: faRAM, Strategy: cfg.RAM.Strategy}
	}
	master := rng.New(seed)
	return &Policy{
		cfg:     cfg,
		fa:      fa,
		band:    Band{Tl: cfg.Tl, Th: cfg.Th, Alpha: cfg.Alpha, Beta: cfg.Beta},
		multi:   multi,
		mgr:     master.Split("manager"),
		servers: make(map[int]*rng.Source),
		master:  master,
		lastMig: make(map[int]time.Duration),
	}, nil
}

// Name implements cluster.Policy.
func (p *Policy) Name() string { return "ecocloud" }

// Config returns the policy's configuration.
func (p *Policy) Config() Config { return p.cfg }

// serverSrc returns server id's private stream, creating it on first use.
func (p *Policy) serverSrc(id int) *rng.Source {
	s, ok := p.servers[id]
	if !ok {
		s = p.master.SplitIndex("server", id)
		p.servers[id] = s
	}
	return s
}

// inGrace reports whether server s is inside its post-activation grace
// period at time now.
func (p *Policy) inGrace(s *dc.Server, now time.Duration) bool {
	return s.State() == dc.Active && now-s.ActivatedAt() < p.cfg.Grace
}

// cooling reports whether server id's last successful low migration is
// less than a cooldown ago.
func (p *Policy) cooling(id int, now time.Duration) bool {
	last := p.lastMig[id]
	return last != 0 && now-last < p.cfg.Cooldown
}

// OnArrival implements the assignment procedure (§II): the manager invites
// the active servers; each runs a Bernoulli trial on fa of its local
// utilization; the manager assigns the VM to one of the available servers
// uniformly at random; if none is available it wakes a hibernated server.
func (p *Policy) OnArrival(env cluster.Env, vm *trace.VM) {
	dest := p.selectDestination(env, p.fa.Ta, -1, true, vm.DemandAt(env.Now), vm.RAMMB)
	if dest == nil {
		// Total saturation: every server active and none accepting. The VM
		// still has to run somewhere; degrade gracefully onto the least
		// utilized active server and record the event (the paper: frequent
		// occurrences mean the company should buy servers).
		env.Rec.Saturations++
		dest, _ = env.DC.LeastUtilizedAt(env.Now)
		if dest == nil {
			// No active server at all and nothing to wake: the fleet is
			// empty, which indicates a mis-sized experiment.
			panic(fmt.Sprintf("ecocloud: no server available for VM %d in an empty fleet", vm.ID))
		}
	}
	if err := env.DC.Place(vm, dest); err != nil {
		panic(fmt.Sprintf("ecocloud: placing VM %d: %v", vm.ID, err))
	}
}

// OnControl implements the periodic monitoring step: hibernate drained
// servers, then run the migration procedure on each active server.
func (p *Policy) OnControl(env cluster.Env) {
	// Hibernate empty active servers whose grace has expired. Iterate over
	// a snapshot: Hibernate mutates state, not the slice, but keep it tidy.
	for _, s := range env.DC.Servers {
		if s.State() == dc.Active && s.NumVMs() == 0 && !p.inGrace(s, env.Now) {
			if err := env.DC.Hibernate(s); err != nil {
				panic(fmt.Sprintf("ecocloud: hibernating empty server %d: %v", s.ID, err))
			}
		}
	}
	if p.cfg.DisableMigration {
		return
	}
	for _, s := range env.DC.Servers {
		if s.State() != dc.Active || s.NumVMs() == 0 {
			continue
		}
		u := s.UtilizationAt(env.Now)
		// A low request waits out the grace period and the cooldown, which
		// paces only consolidation; overload relief never waits. Both are
		// looked up only for a server below Tl, the one case Scan reads them.
		lowOK := u < p.cfg.Tl && !p.inGrace(s, env.Now) && !p.cooling(s.ID, env.Now)
		switch p.band.Scan(p.serverSrc(s.ID), u, lowOK) {
		case cluster.MigrationLow:
			p.migrateLow(env, s, u)
		case cluster.MigrationHigh:
			p.migrateHigh(env, s, u)
		}
	}
}

// migrateLow relocates one VM off an under-utilized server. Low migrations
// never wake a server: activating one machine to hibernate another is a net
// loss (§II), so if nobody accepts, the VM stays.
func (p *Policy) migrateLow(env cluster.Env, s *dc.Server, u float64) {
	vm := p.band.Pick(p.serverSrc(s.ID), cluster.MigrationLow, s.VMs(), env.Now, u, s.CapacityMHz())
	if vm == nil {
		return
	}
	dest := p.selectDestination(env, p.fa.Ta, s.ID, false, vm.DemandAt(env.Now), vm.RAMMB)
	if dest == nil {
		return
	}
	if err := env.DC.Migrate(vm.ID, dest); err != nil {
		panic(fmt.Sprintf("ecocloud: low migration of VM %d: %v", vm.ID, err))
	}
	// The cooldown clock starts at the successful migration, so a server
	// that merely failed to find a destination retries at the next scan.
	p.lastMig[s.ID] = env.Now
	env.Rec.Migration(env.Now, cluster.MigrationLow)
	// A server emptied by its last migration hibernates right away.
	if s.NumVMs() == 0 && !p.inGrace(s, env.Now) {
		if err := env.DC.Hibernate(s); err != nil {
			panic(fmt.Sprintf("ecocloud: hibernating drained server %d: %v", s.ID, err))
		}
	}
}

// migrateHigh relocates one VM off an overloaded server, chosen by
// Band.Pick. Destination selection runs with the tightened threshold Ta' so
// the VM provably lands on a less-loaded server (no ping-pong), and may wake
// a hibernated server: relieving overload justifies the power.
func (p *Policy) migrateHigh(env cluster.Env, s *dc.Server, u float64) {
	vm := p.band.Pick(p.serverSrc(s.ID), cluster.MigrationHigh, s.VMs(), env.Now, u, s.CapacityMHz())
	if vm == nil {
		return
	}
	ta := TightenedTa(p.cfg.HighMigTaFactor, u, p.cfg.Ta)
	dest := p.selectDestination(env, ta, s.ID, true, vm.DemandAt(env.Now), vm.RAMMB)
	if dest == nil {
		return
	}
	if err := env.DC.Migrate(vm.ID, dest); err != nil {
		panic(fmt.Sprintf("ecocloud: high migration of VM %d: %v", vm.ID, err))
	}
	env.Rec.Migration(env.Now, cluster.MigrationHigh)
}

// selectDestination runs one invitation round: invite the kernel's
// Invitees (a sampled subset back in ID order), let each answer under the
// round threshold ta, and pick uniformly among the accepting ones.
// With no acceptor and allowWake set, a hibernated server is woken and
// returned (its grace period starts now). Returns nil when no destination
// exists.
//
// The invitation carries the VM's CPU demand (the manager knows the
// application's resource requirements, §I), and availability includes the
// feasibility check u + demand/capacity <= Ta: a server never volunteers for
// a VM that would push it past the threshold, which matters for the heavy
// tail of CPU-hungry VMs.
func (p *Policy) selectDestination(env cluster.Env, ta float64, exclude int, allowWake bool, demandMHz, ramMB float64) *dc.Server {
	invited := Invitees(env.DC.Servers, exclude, p.cfg.InviteGroups, p.cfg.InviteSubset, &p.nextGroup, p.mgr)
	if p.cfg.InviteSubset > 0 {
		slices.SortFunc(invited, func(a, b *dc.Server) int { return a.ID - b.ID })
	}

	utils := utilizations(env.Pool, invited, env.Now)
	var accepted []*dc.Server
	for i, s := range invited {
		load := demandMHz / s.CapacityMHz()
		grace := p.inGrace(s, env.Now)
		var ok bool
		if p.cfg.RAM == nil || s.Spec.RAMMB <= 0 {
			ok = p.fa.Accept(p.serverSrc(s.ID), ta, utils[i], load, grace)
		} else {
			ok = p.multi.Accept(p.serverSrc(s.ID), ta, utils[i], load, s.RAMUtilization(), ramMB/s.Spec.RAMMB, grace)
		}
		if ok {
			accepted = append(accepted, s)
		}
	}
	if len(accepted) > 0 {
		if p.cfg.PickMostLoaded {
			best := accepted[0]
			bestU := best.UtilizationAt(env.Now)
			for _, s := range accepted[1:] {
				if u := s.UtilizationAt(env.Now); u > bestU {
					best, bestU = s, u
				}
			}
			return best
		}
		return accepted[p.mgr.Intn(len(accepted))]
	}
	if !allowWake {
		return nil
	}
	// Wake a hibernated server that can actually fit the VM; if the VM is
	// too big for every sleeping machine, wake the largest one and degrade.
	var sleeping, fitting []*dc.Server
	for _, s := range env.DC.Servers {
		if s.State() != dc.Hibernated {
			continue
		}
		sleeping = append(sleeping, s)
		fitsRAM := p.cfg.RAM == nil || s.Spec.RAMMB <= 0 || ramMB <= p.cfg.RAM.Ta*s.Spec.RAMMB
		if demandMHz <= ta*s.CapacityMHz() && fitsRAM {
			fitting = append(fitting, s)
		}
	}
	if len(sleeping) == 0 {
		return nil
	}
	var wake *dc.Server
	if len(fitting) > 0 {
		wake = fitting[p.mgr.Intn(len(fitting))]
	} else {
		wake = sleeping[0]
		for _, s := range sleeping[1:] {
			if s.CapacityMHz() > wake.CapacityMHz() {
				wake = s
			}
		}
	}
	if err := env.DC.Activate(wake, env.Now); err != nil {
		panic(fmt.Sprintf("ecocloud: waking server %d: %v", wake.ID, err))
	}
	return wake
}

// utilizations evaluates UtilizationAt for every server, sharding across
// the run's fork-join pool when one is attached and the fleet is large. The
// result is identical to the sequential path: a utilization read returns the
// same bits either way (it may fill the server's demand cache, but that is a
// per-server mutation, and internal/par never hands one index-slot to two
// workers). Small invitations stay inline — the reads are cache hits and
// not worth the fan-out.
func utilizations(pool *par.Pool, servers []*dc.Server, now time.Duration) []float64 {
	out := make([]float64, len(servers))
	if !pool.Parallel() || len(servers) < 128 {
		for i, s := range servers {
			out[i] = s.UtilizationAt(now)
		}
		return out
	}
	par.For(pool, len(servers), func(i int) { out[i] = servers[i].UtilizationAt(now) })
	return out
}
