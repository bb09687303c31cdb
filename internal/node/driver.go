package node

import (
	"fmt"
	"time"

	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
)

// driver is the node-0 role: it owns the run's virtual clock (a sim.Engine
// scheduling arrivals, departures and scan ticks exactly like the netsim
// protocol day) and plays the manager. Where the netsim manager's handlers
// run inside the engine loop, the driver's engine handlers block on barrier
// acks from the shard agents: every protocol exchange completes over the
// sockets before virtual time advances, so at any instant at most one
// exchange is in flight and TCP delivery order cannot reorder decisions.
//
// The driver never holds server objects — it keeps a power-state mirror
// (active/hibernated per global ID, advanced only by agent acks) plus the
// vmID -> serverID location map, and asks the shards for anything
// utilization-shaped (invitation rounds, the saturation utilquery). The
// manager decision stream is rng(seed+1).Split("manager"), the netsim
// cluster's convention.
type driver struct {
	cfg  *ClusterConfig
	pcfg protocol.Config
	eng  *sim.Engine
	tr   transport
	mgr  *rng.Source
	fa   ecocloud.AssignProbFunc
	ws   *trace.Set

	n      int       // nodes
	fleet  []dc.Spec // server specs, indexed by global server ID
	active []bool    // power-state mirror, indexed by global server ID
	loc    map[int]int
	vmByID map[int]*trace.VM

	// watchdog bounds the wait for a MIGRATED ack when -impair may have
	// dropped the TRANSFER frame. Zero means wait forever (perfect fabric).
	watchdog time.Duration

	// stats counts the manager-side outcomes; the fields that only netsim
	// fault paths and latency bookkeeping reach stay zero.
	stats     protocol.Stats
	nextRound int32

	// inbox carries every agent ack payload, fed by the transport's
	// dispatch goroutine; await is its only reader. It holds a gather's
	// one ack per node plus stale duplicated MIGRATED acks.
	inbox chan any
}

const migWatchdog = 2 * time.Second

func newDriver(cfg *ClusterConfig, ws *trace.Set, tr transport) (*driver, error) {
	pcfg := cfg.Proto()
	fa, err := ecocloud.NewAssignProb(pcfg.Ta, pcfg.P)
	if err != nil {
		return nil, err
	}
	d := &driver{
		cfg:    cfg,
		pcfg:   pcfg,
		eng:    sim.New(),
		tr:     tr,
		mgr:    rng.New(cfg.Seed + 1).Split("manager"),
		fa:     fa,
		ws:     ws,
		n:      len(cfg.Nodes),
		fleet:  cfg.Fleet(),
		active: make([]bool, cfg.Servers),
		loc:    make(map[int]int),
		vmByID: make(map[int]*trace.VM, len(ws.VMs)),
		inbox:  make(chan any, len(cfg.Nodes)+8),
	}
	if cfg.Impairments().Enabled() {
		d.watchdog = migWatchdog
	}
	for _, vm := range ws.VMs {
		d.vmByID[vm.ID] = vm
	}
	return d, nil
}

// await blocks for the next ack of type T that keep accepts (nil keeps
// any). It is the driver's one receive on agent acks: every barrier waits
// here. A MIGRATED ack that nobody awaits is a stale duplicate (-impair dup
// re-acks a duplicated TRANSFER) and is dropped; any other unexpected ack
// is a protocol violation. A MIGRATED wait is bounded by the watchdog when
// impairments are on: a dropped TRANSFER produces no ack at all, and there
// is no virtual clock to hang a timeout on — the sockets are the only place
// real time legitimately exists in this system. ok is false on expiry.
func await[T any](d *driver, keep func(T) bool) (ack T, ok bool) {
	var expired <-chan time.Time
	if _, mig := any(ack).(migratedMsg); mig && d.watchdog > 0 {
		//ecolint:allow wallclock — bounds the wait for an ack whose TRANSFER may have been dropped by -impair; virtual time cannot advance while the barrier is open
		timer := time.NewTimer(d.watchdog)
		defer timer.Stop()
		expired = timer.C
	}
	for {
		select {
		case p := <-d.inbox:
			if m, match := p.(T); match && (keep == nil || keep(m)) {
				return m, true
			}
			discardStale(p)
		case <-expired:
			return ack, false
		}
	}
}

// discardStale drops a stale duplicated MIGRATED ack and panics on any
// other ack that arrives unawaited.
func discardStale(p any) {
	if _, stale := p.(migratedMsg); !stale {
		panic(fmt.Sprintf("node: unawaited %T ack", p))
	}
}

// gather awaits one ack of type T from every node, in node order.
func gather[T interface{ sender() int32 }](d *driver) []T {
	acks := make([]T, d.n)
	for range d.n {
		m, _ := await[T](d, nil)
		acks[m.sender()] = m
	}
	return acks
}

// run schedules the churn workload, drives the horizon, then collects every
// node's summary. It executes on the caller's goroutine.
func (d *driver) run() []summaryMsg {
	for _, vm := range d.ws.VMs {
		vm := vm
		d.eng.Schedule(vm.Start, "arrival", func(*sim.Engine) { d.placeVM(vm) })
		if vm.End < d.cfg.Horizon {
			d.eng.Schedule(vm.End, "departure", func(*sim.Engine) { d.removeVM(vm.ID) })
		}
	}
	d.eng.Every(d.pcfg.ScanInterval, d.pcfg.ScanInterval, "migration-scan", func(*sim.Engine) { d.scanTick() })
	d.eng.Run(d.cfg.Horizon)

	d.broadcast(doneMsg{HorizonNS: int64(d.cfg.Horizon)}, d.pcfg.InviteSize)
	return gather[summaryMsg](d)
}

func (d *driver) send(to int, payload any, size int) {
	d.tr.Send(message(driverNode, to, payload, size))
}

// broadcast sends one frame per node, node 0 (loopback) last. Node 0's
// agent shares this transport and reads its counters when the done frame
// arrives, so every other frame of the broadcast must be counted by then.
func (d *driver) broadcast(payload any, size int) {
	tos := make([]netsim.NodeID, d.n)
	for i := range tos {
		tos[i] = netsim.NodeID((i + 1) % d.n)
	}
	d.tr.Broadcast(netsim.NodeID(driverNode), tos, kindOf(payload), payload, size)
}

// activeCount counts mirror-active servers, optionally excluding one.
func (d *driver) activeCount(exclude int) int {
	count := 0
	for id, on := range d.active {
		if on && id != exclude {
			count++
		}
	}
	return count
}

// round runs one invitation round: every node scans its shard under the
// effective threshold ta and replies with its accepting server IDs. The
// returned slice is ascending in global ID (node spans are contiguous by
// node ID, and each shard replies in ID order). With no active server to
// invite the round is skipped entirely — no messages, no rng draws —
// matching the netsim manager's unopened round.
func (d *driver) round(now time.Duration, ta, demand float64, exclude int) []int {
	if d.activeCount(exclude) == 0 {
		return nil
	}
	d.nextRound++
	d.broadcast(inviteMsg{Round: d.nextRound, Demand: demand, Ta: ta, Exclude: int32(exclude), NowNS: int64(now)},
		d.pcfg.InviteSize)
	var accepts []int
	for _, r := range gather[replyMsg](d) {
		if r.Round != d.nextRound {
			panic(fmt.Sprintf("node: reply for round %d during round %d", r.Round, d.nextRound))
		}
		for _, id := range r.Accepts {
			accepts = append(accepts, int(id))
		}
	}
	return accepts
}

// placeVM runs one arrival: an invitation round, then the wake fallback.
func (d *driver) placeVM(vm *trace.VM) {
	now := d.eng.Now()
	demand := vm.DemandAt(now)
	if accepts := d.round(now, d.fa.Ta, demand, -1); len(accepts) > 0 {
		d.assign(now, vm, accepts[d.mgr.Intn(len(accepts))], false)
		d.stats.Placements++
		return
	}
	d.wakeAssign(now, vm, demand)
}

// assign lands vm on the chosen server (waking it when ordered) and blocks
// on the shard's ack before updating the mirror and the location map.
func (d *driver) assign(now time.Duration, vm *trace.VM, server int, wake bool) {
	d.send(d.cfg.Owner(server),
		assignMsg{VMID: int32(vm.ID), Server: int32(server), Wake: wake, NowNS: int64(now)}, d.pcfg.AssignSize)
	ack, _ := await[assignedMsg](d, nil)
	if int(ack.VMID) != vm.ID || int(ack.Server) != server {
		panic(fmt.Sprintf("node: assigned ack for VM %d on %d, want VM %d on %d",
			ack.VMID, ack.Server, vm.ID, server))
	}
	if ack.Activated {
		d.active[server] = true
	}
	d.loc[vm.ID] = server
}

// wakeAssign mirrors the netsim manager's fallback tiers, minus the
// pending-wake bookkeeping: barriers land every wake synchronously in
// virtual time, so a wake is never "in flight" when the next placement
// decides — WakeReuses is structurally zero here (see DESIGN.md). A wake
// that fits nothing lands on the largest hibernated server.
func (d *driver) wakeAssign(now time.Duration, vm *trace.VM, demand float64) {
	if wake, _, ok := d.pickWake(demand, d.fa.Ta); ok {
		d.stats.Wakes++
		d.assign(now, vm, wake, true)
		d.active[wake] = true
		d.stats.Placements++
		return
	}
	// Total saturation: degrade onto the least-utilized active server,
	// located by a utilquery barrier across the shards.
	d.stats.Saturations++
	best := d.leastUtilizedActive(now)
	if best < 0 {
		panic(fmt.Sprintf("node: no server at all for VM %d", vm.ID))
	}
	d.assign(now, vm, best, false)
	d.stats.Placements++
}

// leastUtilizedActive asks every shard for its least-utilized active server
// and picks the global minimum (ties to the lowest ID, the netsim manager's
// scan order).
func (d *driver) leastUtilizedActive(now time.Duration) int {
	d.broadcast(utilQueryMsg{NowNS: int64(now)}, d.pcfg.InviteSize)
	best := utilBestMsg{Server: -1}
	for _, m := range gather[utilBestMsg](d) {
		if !m.Has {
			continue
		}
		if !best.Has || m.U < best.U || (!(best.U < m.U) && m.Server < best.Server) {
			best = m
		}
	}
	return int(best.Server)
}

// removeVM runs one departure through the owning shard.
func (d *driver) removeVM(vmID int) {
	server, ok := d.loc[vmID]
	if !ok {
		return
	}
	now := d.eng.Now()
	d.send(d.cfg.Owner(server), removeMsg{VMID: int32(vmID), NowNS: int64(now)}, d.pcfg.AssignSize)
	d.awaitRemoved(vmID)
	delete(d.loc, vmID)
}

// awaitRemoved blocks on the removed ack for vmID.
func (d *driver) awaitRemoved(vmID int) {
	if ack, _ := await[removedMsg](d, nil); int(ack.VMID) != vmID {
		panic(fmt.Sprintf("node: removed ack for VM %d, want %d", ack.VMID, vmID))
	}
}

// scanTick runs one migration-scan round: every shard scans locally and
// reports hibernations plus migration requests; the driver applies the
// mirror updates and then serves the requests one at a time in global
// server-ID order — the order the netsim manager receives them in, since
// its scan walks servers by ID.
func (d *driver) scanTick() {
	now := d.eng.Now()
	d.broadcast(scanMsg{NowNS: int64(now)}, d.pcfg.InviteSize)
	byNode := gather[scandoneMsg](d)
	for _, m := range byNode {
		for _, id := range m.Hibernated {
			d.active[id] = false
		}
	}
	for _, m := range byNode {
		for _, mr := range m.MigReqs {
			d.serveMigReq(now, mr)
		}
	}
}

// serveMigReq is the manager side of one migration request: a tightened
// round excluding the source; high migrations may wake a server, low
// migrations never do.
func (d *driver) serveMigReq(now time.Duration, mr migReqEntry) {
	vmID, src := int(mr.VMID), int(mr.Server)
	if cur, ok := d.loc[vmID]; !ok || cur != src {
		return // departed or already moved by an earlier request this tick
	}
	vm := d.vmByID[vmID]
	demand := vm.DemandAt(now)
	ta := d.fa.Ta
	if mr.High {
		ta = ecocloud.TightenedTa(d.pcfg.HighMigTaFactor, mr.U, ta)
	}
	if accepts := d.round(now, ta, demand, src); len(accepts) > 0 {
		d.migrate(now, vmID, src, accepts[d.mgr.Intn(len(accepts))], mr.High)
		return
	}
	if mr.High {
		if wake, fit, _ := d.pickWake(demand, ta); fit {
			d.stats.Wakes++
			d.send(d.cfg.Owner(wake), wakeMsg{Server: int32(wake), NowNS: int64(now)}, d.pcfg.AssignSize)
			if ack, _ := await[wokenMsg](d, nil); int(ack.Server) != wake {
				panic(fmt.Sprintf("node: woken ack for server %d, want %d", ack.Server, wake))
			}
			d.active[wake] = true
			d.migrate(now, vmID, src, wake, mr.High)
			return
		}
	}
	d.stats.MigrationsAborted++
}

// pickWake is ecocloud.Wake over the mirror's hibernated servers, fitting
// demand under ta.
func (d *driver) pickWake(demand, ta float64) (wake int, fit, ok bool) {
	var asleep []int
	for id, on := range d.active {
		if !on {
			asleep = append(asleep, id)
		}
	}
	return ecocloud.Wake(d.mgr, asleep,
		func(id int) float64 { return d.fleet[id].CapacityMHz() },
		func(id int) bool { return demand <= ta*d.fleet[id].CapacityMHz() })
}

// migrate runs the three-phase live migration: MIGRATE to the source shard,
// which ships a TRANSFER to the destination shard, which acks MIGRATED to
// the driver; the CUTOVER then retires the source copy. The VM keeps
// running at the source until cutover, so a TRANSFER dropped by -impair
// only costs the attempt: the watchdog expires the barrier and the VM is
// re-eligible at the next scan, mirroring netsim's MigTimeout expiry.
func (d *driver) migrate(now time.Duration, vmID, src, dest int, high bool) {
	// Retire stale duplicated MIGRATED acks (the -impair dup path) before
	// opening a new barrier: a dup frame is written back-to-back with its
	// original, so its ack is long since queued by the time the next
	// migration starts. Only this goroutine receives, so a non-empty inbox
	// never blocks the drain.
	for len(d.inbox) > 0 {
		discardStale(<-d.inbox)
	}
	d.send(d.cfg.Owner(src),
		migrateMsg{VMID: int32(vmID), DestNode: int32(d.cfg.Owner(dest)), DestServer: int32(dest), High: high, NowNS: int64(now)},
		d.pcfg.AssignSize)
	ack, ok := await(d, func(m migratedMsg) bool { return int(m.VMID) == vmID })
	if !ok {
		d.stats.MigrationsExpired++
		return
	}
	if !ack.OK {
		d.stats.MigrationsAborted++
		return
	}
	if ack.Activated {
		d.active[dest] = true
	}
	d.send(d.cfg.Owner(src), cutoverMsg{VMID: int32(vmID), SrcServer: int32(src), NowNS: int64(now)}, d.pcfg.AssignSize)
	d.awaitRemoved(vmID)
	d.loc[vmID] = dest
	if high {
		d.stats.MigrationsHigh++
	} else {
		d.stats.MigrationsLow++
	}
}
