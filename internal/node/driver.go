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
	tr   protocol.Transport
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
	nextRound int

	replyCh    chan replyMsg
	assignedCh chan assignedMsg
	removedCh  chan removedMsg
	scandoneCh chan scandoneMsg
	wokenCh    chan wokenMsg
	migratedCh chan migratedMsg
	utilCh     chan utilBestMsg
	summaryCh  chan summaryMsg
}

const migWatchdog = 2 * time.Second

func newDriver(cfg *ClusterConfig, ws *trace.Set, tr protocol.Transport) (*driver, error) {
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

		replyCh:    make(chan replyMsg, len(cfg.Nodes)),
		assignedCh: make(chan assignedMsg, 4),
		removedCh:  make(chan removedMsg, 4),
		scandoneCh: make(chan scandoneMsg, len(cfg.Nodes)),
		wokenCh:    make(chan wokenMsg, 4),
		migratedCh: make(chan migratedMsg, 8),
		utilCh:     make(chan utilBestMsg, len(cfg.Nodes)),
		summaryCh:  make(chan summaryMsg, len(cfg.Nodes)),
	}
	if cfg.Impairments().Enabled() {
		d.watchdog = migWatchdog
	}
	for _, vm := range ws.VMs {
		d.vmByID[vm.ID] = vm
	}
	return d, nil
}

// handle demuxes an agent ack into its barrier channel. It runs on the
// transport dispatch goroutine; the engine goroutine consumes.
func (d *driver) handle(msg netsim.Message) bool {
	switch p := msg.Payload.(type) {
	case replyMsg:
		d.replyCh <- p
	case assignedMsg:
		d.assignedCh <- p
	case removedMsg:
		d.removedCh <- p
	case scandoneMsg:
		d.scandoneCh <- p
	case wokenMsg:
		d.wokenCh <- p
	case migratedMsg:
		d.migratedCh <- p
	case utilBestMsg:
		d.utilCh <- p
	case summaryMsg:
		d.summaryCh <- p
	default:
		return false
	}
	return true
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

	d.broadcast(kindDone, doneMsg{HorizonNS: int64(d.cfg.Horizon)}, d.pcfg.InviteSize)
	sums := make([]summaryMsg, d.n)
	for i := 0; i < d.n; i++ {
		s := <-d.summaryCh
		sums[s.Node] = s
	}
	return sums
}

func (d *driver) send(to int, kind string, payload any, size int) {
	d.tr.Send(netsim.Message{
		From: netsim.NodeID(driverNode), To: netsim.NodeID(to),
		Kind: kind, Payload: payload, Size: size,
	})
}

// broadcast sends one frame per node, node 0 (loopback) last. Node 0's
// agent shares this transport and reads its counters when the done frame
// arrives, so every other frame of the broadcast must be counted by then.
func (d *driver) broadcast(kind string, payload any, size int) {
	tos := make([]netsim.NodeID, d.n)
	for i := range tos {
		tos[i] = netsim.NodeID((i + 1) % d.n)
	}
	d.tr.Broadcast(netsim.NodeID(driverNode), tos, kind, payload, size)
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
	d.broadcast(kindInvite,
		inviteMsg{Round: d.nextRound, Demand: demand, Ta: ta, Exclude: exclude, NowNS: int64(now)},
		d.pcfg.InviteSize)
	byNode := make([][]int32, d.n)
	for i := 0; i < d.n; i++ {
		r := <-d.replyCh
		if r.Round != d.nextRound {
			panic(fmt.Sprintf("node: reply for round %d during round %d", r.Round, d.nextRound))
		}
		byNode[r.Node] = r.Accepts
	}
	var accepts []int
	for _, ids := range byNode {
		for _, id := range ids {
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
	d.send(d.cfg.Owner(server), kindAssign,
		assignMsg{VMID: vm.ID, Server: server, Wake: wake, NowNS: int64(now)}, d.pcfg.AssignSize)
	ack := <-d.assignedCh
	if ack.VMID != vm.ID || ack.Server != server {
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
	d.broadcast(kindUtilQuery, utilQueryMsg{NowNS: int64(now)}, d.pcfg.InviteSize)
	best := utilBestMsg{Server: -1}
	for i := 0; i < d.n; i++ {
		m := <-d.utilCh
		if !m.Has {
			continue
		}
		if !best.Has || m.U < best.U || (!(best.U < m.U) && m.Server < best.Server) {
			best = m
		}
	}
	return best.Server
}

// removeVM runs one departure through the owning shard.
func (d *driver) removeVM(vmID int) {
	server, ok := d.loc[vmID]
	if !ok {
		return
	}
	now := d.eng.Now()
	d.send(d.cfg.Owner(server), kindRemove, removeMsg{VMID: vmID, NowNS: int64(now)}, d.pcfg.AssignSize)
	d.awaitRemoved(vmID)
	delete(d.loc, vmID)
}

// awaitRemoved blocks on the removed ack for vmID.
func (d *driver) awaitRemoved(vmID int) {
	ack := <-d.removedCh
	if ack.VMID != vmID {
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
	d.broadcast(kindScan, scanMsg{NowNS: int64(now)}, d.pcfg.InviteSize)
	byNode := make([]scandoneMsg, d.n)
	for i := 0; i < d.n; i++ {
		m := <-d.scandoneCh
		byNode[m.Node] = m
	}
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
			d.send(d.cfg.Owner(wake), kindWake, wakeMsg{Server: wake, NowNS: int64(now)}, d.pcfg.AssignSize)
			ack := <-d.wokenCh
			if ack.Server != wake {
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
	// migration starts.
	for {
		select {
		case <-d.migratedCh:
			continue
		default:
		}
		break
	}
	d.send(d.cfg.Owner(src), kindMigrate,
		migrateMsg{VMID: vmID, DestNode: d.cfg.Owner(dest), DestServer: dest, High: high, NowNS: int64(now)},
		d.pcfg.AssignSize)
	ack, ok := d.awaitMigrated(vmID)
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
	d.send(d.cfg.Owner(src), kindCutover, cutoverMsg{VMID: vmID, SrcServer: src, NowNS: int64(now)}, d.pcfg.AssignSize)
	d.awaitRemoved(vmID)
	d.loc[vmID] = dest
	if high {
		d.stats.MigrationsHigh++
	} else {
		d.stats.MigrationsLow++
	}
}

// awaitMigrated blocks for the MIGRATED ack carrying vmID, discarding acks
// for other VMs (stale duplicates). With impairments enabled the wait is
// bounded by the real-time watchdog: a dropped TRANSFER produces no ack at
// all, and there is no virtual clock to hang a timeout on — the sockets are
// the only place real time legitimately exists in this system.
func (d *driver) awaitMigrated(vmID int) (migratedMsg, bool) {
	if d.watchdog <= 0 {
		for {
			m := <-d.migratedCh
			if m.VMID == vmID {
				return m, true
			}
		}
	}
	//ecolint:allow wallclock — bounds the wait for an ack whose TRANSFER may have been dropped by -impair; virtual time cannot advance while the barrier is open
	timer := time.NewTimer(d.watchdog)
	defer timer.Stop()
	for {
		select {
		case m := <-d.migratedCh:
			if m.VMID == vmID {
				return m, true
			}
		case <-timer.C:
			return migratedMsg{}, false
		}
	}
}
