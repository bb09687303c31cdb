package node

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/trace"
)

// agent is one shard of the fleet: the servers in this node's span, hosted
// in a local policy-free dc.DataCenter, driven by a single event-loop
// goroutine that consumes one inbox of request payloads. All decisions use
// the virtual timestamp carried by the triggering message; the loop never
// reads a host clock.
//
// Server ID mapping: local index i in the shard's DataCenter is global ID
// span.Lo+i. Per-server rng streams are split from the protocol master by
// GLOBAL ID with the same labels the netsim cluster uses, so a server's
// Bernoulli draw sequence is the shard layout's business, not its owner's.
type agent struct {
	node int
	span Span
	cfg  *ClusterConfig
	pcfg protocol.Config

	dcen   *dc.DataCenter
	vmByID map[int]*trace.VM
	fa     ecocloud.AssignProbFunc
	band   ecocloud.Band
	srcs   []*rng.Source // per local server
	pm     dc.PowerModel

	tr transport

	// Energy integration: utilization only changes at message-borne events
	// (VM demand is constant over a VM's life), so left-rectangle integration
	// at every virtual-time-carrying message is exact, not approximate.
	lastT  time.Duration
	joules float64

	counters agentCounters
	final    summaryMsg // set by onDone; the per-node CSV row

	// inbox carries every request payload in delivery order, fed by the
	// transport's dispatch goroutine. Barriers keep at most one request
	// and its duplicated TRANSFERs queued; the buffer is headroom so
	// dispatch, which node 0 shares with the driver, rarely waits.
	inbox chan any
}

// agentCounters are the per-node totals reported in the summary and the
// per-node CSV.
type agentCounters struct {
	Placements    int64
	Removals      int64
	MigrationsIn  int64
	MigrationsOut int64
	Hibernates    int64
	Activations   int64
}

// newAgent builds the shard for cfg.Nodes[nodeID] over transport tr.
func newAgent(cfg *ClusterConfig, nodeID int, ws *trace.Set, tr transport) (*agent, error) {
	pcfg := cfg.Proto()
	fa, err := ecocloud.NewAssignProb(pcfg.Ta, pcfg.P)
	if err != nil {
		return nil, err
	}
	span := cfg.Nodes[nodeID].Span
	a := &agent{
		node:   nodeID,
		span:   span,
		cfg:    cfg,
		pcfg:   pcfg,
		dcen:   dc.New(cfg.Fleet()[span.Lo:span.Hi]),
		vmByID: make(map[int]*trace.VM, len(ws.VMs)),
		fa:     fa,
		band:   ecocloud.Band{Tl: pcfg.Tl, Th: pcfg.Th, Alpha: pcfg.Alpha, Beta: pcfg.Beta},
		srcs:   make([]*rng.Source, span.Size()),
		pm:     dc.DefaultPowerModel(),
		tr:     tr,
		inbox:  make(chan any, 16),
	}
	for _, vm := range ws.VMs {
		a.vmByID[vm.ID] = vm
	}
	// Same stream derivation as protocol.Cluster: master is seed+1 (the
	// protocolday convention), servers split by global ID.
	master := rng.New(cfg.Seed + 1)
	for i := 0; i < span.Size(); i++ {
		a.srcs[i] = master.SplitIndex("server", span.Lo+i)
	}
	return a, nil
}

// run is the event loop. It exits after the done message's summary is sent.
// A driver-bound ack from a confused peer matches no case and is dropped.
func (a *agent) run() {
	for {
		switch m := (<-a.inbox).(type) {
		case inviteMsg:
			a.onInvite(m)
		case assignMsg:
			a.onAssign(m)
		case removeMsg:
			a.onRemove(m)
		case scanMsg:
			a.onScan(m)
		case wakeMsg:
			a.onWake(m)
		case migrateMsg:
			a.onMigrate(m)
		case transferMsg:
			a.onTransfer(m)
		case cutoverMsg:
			a.onCutover(m)
		case utilQueryMsg:
			a.onUtilQuery(m)
		case doneMsg:
			a.onDone(m)
			return
		}
	}
}

// server returns the local server for a global ID, panicking on a foreign
// ID: the driver routing a server to the wrong shard is a protocol bug.
func (a *agent) server(globalID int32) *dc.Server {
	if !a.span.Contains(int(globalID)) {
		panic(fmt.Sprintf("node %d: server %d outside span %d:%d", a.node, globalID, a.span.Lo, a.span.Hi))
	}
	return a.dcen.Servers[int(globalID)-a.span.Lo]
}

// integrate advances the energy account to virtual time now.
func (a *agent) integrate(now time.Duration) {
	if now > a.lastT {
		a.joules += a.dcen.PowerAt(a.lastT, a.pm) * (now - a.lastT).Seconds()
		a.lastT = now
	}
}

// send is a shorthand for a driver-bound or peer-bound message.
func (a *agent) send(to int, payload any, size int) {
	a.tr.Send(message(a.node, to, payload, size))
}

const driverNode = 0

// onInvite evaluates the round against every local active server (in global
// ID order) and replies with the accepting IDs — the shard-aggregated form
// of the per-server ACCEPT/REJECT replies in the netsim protocol.
func (a *agent) onInvite(m inviteMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	var accepts []int32
	for i, s := range a.dcen.Servers {
		globalID := a.span.Lo + i
		if globalID == int(m.Exclude) || s.State() != dc.Active {
			continue
		}
		// The same kernel call as the netsim cluster's servers make.
		if a.fa.Accept(a.srcs[i], m.Ta, s.UtilizationAt(now), m.Demand/s.CapacityMHz(),
			now-s.ActivatedAt() < a.pcfg.Grace) {
			accepts = append(accepts, int32(globalID))
		}
	}
	a.send(driverNode, replyMsg{Round: m.Round, Node: int32(a.node), Accepts: accepts}, a.pcfg.ReplySize)
}

// onAssign places a VM on the driver-chosen server, waking it first when
// ordered to. Re-delivery is idempotent: an already-hosted VM just re-acks.
func (a *agent) onAssign(m assignMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	s := a.server(m.Server)
	activated := false
	if host, ok := a.dcen.HostOf(int(m.VMID)); !ok || host != s {
		if ok {
			panic(fmt.Sprintf("node %d: assign of VM %d to server %d but hosted on %d",
				a.node, m.VMID, m.Server, host.ID+a.span.Lo))
		}
		if s.State() == dc.Hibernated {
			if !m.Wake {
				panic(fmt.Sprintf("node %d: assign to hibernated server %d without wake", a.node, m.Server))
			}
			if err := a.dcen.Activate(s, now); err != nil {
				panic(fmt.Sprintf("node %d: waking server %d: %v", a.node, m.Server, err))
			}
			a.counters.Activations++
			activated = true
		}
		vm := a.vmByID[int(m.VMID)]
		if vm == nil {
			panic(fmt.Sprintf("node %d: assign of unknown VM %d", a.node, m.VMID))
		}
		if err := a.dcen.Place(vm, s); err != nil {
			panic(fmt.Sprintf("node %d: placing VM %d on server %d: %v", a.node, m.VMID, m.Server, err))
		}
		a.counters.Placements++
	}
	a.send(driverNode, assignedMsg{VMID: m.VMID, Server: m.Server, Activated: activated}, a.pcfg.ReplySize)
}

// onRemove handles a departure. A VM the shard no longer hosts is acked
// anyway: the barrier must complete.
func (a *agent) onRemove(m removeMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	if _, ok := a.dcen.HostOf(int(m.VMID)); ok {
		if _, err := a.dcen.Remove(int(m.VMID)); err != nil {
			panic(fmt.Sprintf("node %d: removing VM %d: %v", a.node, m.VMID, err))
		}
		a.counters.Removals++
	}
	a.send(driverNode, removedMsg{VMID: m.VMID}, a.pcfg.ReplySize)
}

// onScan is the local monitoring tick (§II): hibernate servers drained
// empty past the grace period, and run each loaded server's migration
// Bernoulli trial; successful trials select a VM with the paper's rules.
func (a *agent) onScan(m scanMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	out := scandoneMsg{Node: int32(a.node)}
	for i, s := range a.dcen.Servers {
		if s.State() != dc.Active {
			continue
		}
		globalID := a.span.Lo + i
		if s.NumVMs() == 0 {
			if now-s.ActivatedAt() >= a.pcfg.Grace {
				if err := a.dcen.Hibernate(s); err != nil {
					panic(fmt.Sprintf("node %d: hibernating server %d: %v", a.node, globalID, err))
				}
				a.counters.Hibernates++
				out.Hibernated = append(out.Hibernated, int32(globalID))
			}
			continue
		}
		u := s.UtilizationAt(now)
		kind := a.band.Scan(a.srcs[i], u, now-s.ActivatedAt() >= a.pcfg.Grace)
		if kind == "" {
			continue
		}
		if vm := a.band.Pick(a.srcs[i], kind, s.VMs(), now, u, s.CapacityMHz()); vm != nil {
			out.MigReqs = append(out.MigReqs, migReqEntry{
				Server: int32(globalID), VMID: int32(vm.ID), High: kind == cluster.MigrationHigh, U: u,
			})
		}
	}
	a.send(driverNode, out, a.pcfg.ReplySize)
}

// onWake activates a hibernated server ahead of an incoming migration.
func (a *agent) onWake(m wakeMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	s := a.server(m.Server)
	if s.State() == dc.Hibernated {
		if err := a.dcen.Activate(s, now); err != nil {
			panic(fmt.Sprintf("node %d: waking server %d: %v", a.node, m.Server, err))
		}
		a.counters.Activations++
	}
	a.send(driverNode, wokenMsg{Server: m.Server}, a.pcfg.ReplySize)
}

// onMigrate is the source side of a live migration: ship the VM's identity
// to the destination shard, RAM bytes declared in the frame size. The local
// copy keeps running until the cutover order arrives — which is what makes
// a TRANSFER dropped by -impair recoverable.
func (a *agent) onMigrate(m migrateMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	if _, ok := a.dcen.HostOf(int(m.VMID)); !ok {
		// Departed or already moved: nothing to transfer; tell the driver.
		a.send(driverNode, migratedMsg{VMID: m.VMID, Server: m.DestServer}, a.pcfg.ReplySize)
		return
	}
	a.send(int(m.DestNode),
		transferMsg{VMID: m.VMID, DestServer: m.DestServer, High: m.High, NowNS: m.NowNS},
		a.pcfg.TransferBytes)
}

// onTransfer is the destination side: land the VM on the chosen server
// (defensively waking it if the driver's wake was somehow lost) and ack the
// driver. When the source server lives in this same shard the VM is still
// present locally — that is an intra-shard move, handled by dc.Migrate, and
// the later cutover (scoped to the source server) leaves it alone.
// Duplicated transfers (-impair dup) re-ack without re-placing.
func (a *agent) onTransfer(m transferMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	s := a.server(m.DestServer)
	activated := false
	if host, ok := a.dcen.HostOf(int(m.VMID)); !ok || host != s {
		if s.State() == dc.Hibernated {
			if err := a.dcen.Activate(s, now); err != nil {
				panic(fmt.Sprintf("node %d: transfer wake of server %d: %v", a.node, m.DestServer, err))
			}
			a.counters.Activations++
			activated = true
		}
		if ok {
			// Intra-shard migration: source and destination share this dc.
			if err := a.dcen.Migrate(int(m.VMID), s); err != nil {
				panic(fmt.Sprintf("node %d: intra-shard migration of VM %d to %d: %v",
					a.node, m.VMID, m.DestServer, err))
			}
			a.counters.MigrationsIn++
			a.counters.MigrationsOut++
		} else {
			vm := a.vmByID[int(m.VMID)]
			if vm == nil {
				panic(fmt.Sprintf("node %d: transfer of unknown VM %d", a.node, m.VMID))
			}
			if err := a.dcen.Place(vm, s); err != nil {
				panic(fmt.Sprintf("node %d: migrating VM %d to server %d: %v", a.node, m.VMID, m.DestServer, err))
			}
			a.counters.MigrationsIn++
		}
	}
	a.send(driverNode,
		migratedMsg{VMID: m.VMID, Server: m.DestServer, OK: true, Activated: activated}, a.pcfg.ReplySize)
}

// onCutover drops the source copy of a migrated VM and acks via removed:
// the driver holds the barrier until the copy is gone, so no later exchange
// can observe the VM in two shards. The removal is scoped to the migration's
// source server: after an intra-shard move the VM is already on its
// destination in this same dc and must stay there.
func (a *agent) onCutover(m cutoverMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	if host, ok := a.dcen.HostOf(int(m.VMID)); ok && host.ID+a.span.Lo == int(m.SrcServer) {
		if _, err := a.dcen.Remove(int(m.VMID)); err != nil {
			panic(fmt.Sprintf("node %d: cutover of VM %d: %v", a.node, m.VMID, err))
		}
		a.counters.MigrationsOut++
	}
	a.send(driverNode, removedMsg{VMID: m.VMID}, a.pcfg.ReplySize)
}

// onUtilQuery reports the least-utilized local active server (ties keep the
// lowest ID, matching the netsim manager's scan order).
func (a *agent) onUtilQuery(m utilQueryMsg) {
	now := vt(m.NowNS)
	a.integrate(now)
	out := utilBestMsg{Node: int32(a.node)}
	if s, u := a.dcen.LeastUtilizedAt(now); s != nil {
		out = utilBestMsg{Node: int32(a.node), Has: true, Server: int32(a.span.Lo + s.ID), U: u}
	}
	a.send(driverNode, out, a.pcfg.ReplySize)
}

// onDone closes the energy account at the horizon, checks the shard's
// invariants and reports its totals. The transport counters are read before
// the summary send, so the reported figures are deterministic.
func (a *agent) onDone(m doneMsg) {
	a.integrate(vt(m.HorizonNS))
	if err := a.dcen.CheckInvariants(); err != nil {
		panic(fmt.Sprintf("node %d: shard left inconsistent: %v", a.node, err))
	}
	sent, bytes := a.tr.Stats()
	a.final = summaryMsg{
		Node:          int32(a.node),
		Placements:    a.counters.Placements,
		Removals:      a.counters.Removals,
		MigrationsIn:  a.counters.MigrationsIn,
		MigrationsOut: a.counters.MigrationsOut,
		Hibernates:    a.counters.Hibernates,
		Activations:   a.counters.Activations,
		FinalActive:   int64(a.dcen.ActiveCount()),
		EnergyKWh:     a.joules / 3.6e6,
		MsgsSent:      int64(sent),
		BytesSent:     bytes,
	}
	a.send(driverNode, a.final, a.pcfg.ReplySize)
}
