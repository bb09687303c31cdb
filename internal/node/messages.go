package node

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/node/tcptransport"
)

// The ecod wire protocol: one row per message kind in the messages table,
// giving its kind string, its payload struct and whether it is a
// driver-bound ack. Everything else is derived from the table: the codec
// lays each payload out from its field types (tcptransport's generic
// path), senders pass only a payload and kindOf names it, and node 0
// routes acks to the driver's inbox and everything else to its agent's.
//
//	driver -> agents   invite, assign, remove, scan, wake, migrate, cutover, done
//	agent  -> agent    transfer (the live migration, source shard to dest shard)
//	agents -> driver   reply, assigned, removed, scandone, woken, migrated, summary, utilbest
//	driver -> agents   utilquery (saturation fallback only)
//
// Every request/ack pair is a barrier: the driver never advances virtual
// time (or sends the next request) while an ack is outstanding, which is
// what makes a run over real sockets bit-reproducible — at any instant at
// most one exchange is in flight, so TCP delivery order cannot reorder
// decisions. All decision-relevant time is the virtual NowNS stamped on the
// message; nothing reads a host clock.
//
// Field types are wire widths: IDs and counters that fit travel as int32,
// times as int64 nanoseconds, flags as one-byte bools.
//
// Sizes: control messages reuse the protocol.Config sizes; TRANSFER
// declares the VM's RAM bytes as its logical size (counted by Stats,
// not shipped) exactly like the netsim experiment.
var messages = []struct {
	kind    string
	payload any
	ack     bool
}{
	{"invite", inviteMsg{}, false},
	{"reply", replyMsg{}, true},
	{"assign", assignMsg{}, false},
	{"assigned", assignedMsg{}, true},
	{"remove", removeMsg{}, false},
	{"removed", removedMsg{}, true},
	{"scan", scanMsg{}, false},
	{"scandone", scandoneMsg{}, true},
	{"wake", wakeMsg{}, false},
	{"woken", wokenMsg{}, true},
	{"migrate", migrateMsg{}, false},
	{"transfer", transferMsg{}, false},
	{"cutover", cutoverMsg{}, false},
	{"migrated", migratedMsg{}, true},
	{"utilquery", utilQueryMsg{}, false},
	{"utilbest", utilBestMsg{}, true},
	{"done", doneMsg{}, false},
	{"summary", summaryMsg{}, true},
}

// codec is the wire codec over the messages table.
var codec = func() *tcptransport.Codec {
	c := tcptransport.NewCodec()
	for _, m := range messages {
		c.Register(m.kind, m.payload)
	}
	return c
}()

// kindOf names a payload's kind. A payload outside the table is a
// programming error.
func kindOf(payload any) string {
	kind, ok := codec.Kind(payload)
	if !ok {
		panic(fmt.Sprintf("node: %T is not an ecod message", payload))
	}
	return kind
}

// isAck reports whether kind is a driver-bound ack.
func isAck(kind string) bool {
	for _, m := range messages {
		if m.kind == kind {
			return m.ack
		}
	}
	return false
}

// message addresses payload from one node to another.
func message(from, to int, payload any, size int) netsim.Message {
	return netsim.Message{
		From: netsim.NodeID(from), To: netsim.NodeID(to),
		Kind: kindOf(payload), Payload: payload, Size: size,
	}
}

// TransferImpaired reports whether kind is subject to -impair drop/dup.
// Only the live-migration data plane is lossy; the control barriers play
// the sequencing role the simulation engine plays in netsim runs, so
// impairing them would model a broken harness, not a lossy fabric.
func TransferImpaired(kind string) bool { return kind == kindOf(transferMsg{}) }

type inviteMsg struct {
	Round   int32
	Demand  float64
	Ta      float64
	Exclude int32 // global server ID excluded from the round, -1 for none
	NowNS   int64
}

// replyMsg aggregates one node's accepting servers for a round — the shard
// analog of netsim's per-server ACCEPT/REJECT replies.
type replyMsg struct {
	Round   int32
	Node    int32
	Accepts []int32 // global server IDs, ascending
}

type assignMsg struct {
	VMID   int32
	Server int32 // global server ID, chosen by the driver
	Wake   bool
	NowNS  int64
}

type assignedMsg struct {
	VMID      int32
	Server    int32
	Activated bool // the assign woke the server
}

type removeMsg struct {
	VMID  int32
	NowNS int64
}

type removedMsg struct {
	VMID int32
}

type scanMsg struct {
	NowNS int64
}

// migReqEntry is one server's migration request out of a scan tick.
type migReqEntry struct {
	Server int32
	VMID   int32
	High   bool
	U      float64
}

// scandoneMsg is one node's scan outcome: servers it hibernated (drained
// empty past the grace period) and the migration requests its servers drew.
type scandoneMsg struct {
	Node       int32
	Hibernated []int32
	MigReqs    []migReqEntry
}

type wakeMsg struct {
	Server int32
	NowNS  int64
}

type wokenMsg struct {
	Server int32
}

// migrateMsg orders the source shard to start a live migration.
type migrateMsg struct {
	VMID       int32
	DestNode   int32
	DestServer int32
	High       bool
	NowNS      int64
}

// transferMsg is the live migration on the wire, shard to shard. The VM's
// RAM is declared in the frame's Size, not shipped: every node regenerates
// the workload from the shared seed, so the VM's identity suffices.
type transferMsg struct {
	VMID       int32
	DestServer int32
	High       bool
	NowNS      int64
}

// cutoverMsg tells the source shard the destination runs the VM: drop the
// copy still on SrcServer. Until cutover the VM keeps running at the source
// (the paper: live migrations are asynchronous), which is also what makes a
// dropped TRANSFER recoverable — the driver just never sends the cutover.
// SrcServer scopes the removal: an intra-shard migration already moved the
// VM off the source when the transfer landed, and the cutover must not
// touch the destination copy.
type cutoverMsg struct {
	VMID      int32
	SrcServer int32
	NowNS     int64
}

// migratedMsg acks a completed (or moot) migration to the driver.
type migratedMsg struct {
	VMID      int32
	Server    int32 // destination global server ID
	OK        bool
	Activated bool // defensive cutover woke the destination
}

type utilQueryMsg struct {
	NowNS int64
}

// utilBestMsg reports a node's least-utilized active server (saturation
// fallback: everything is full, degrade onto the least-loaded machine).
type utilBestMsg struct {
	Node   int32
	Has    bool
	Server int32
	U      float64
}

type doneMsg struct {
	HorizonNS int64
}

// summaryMsg is one node's run totals, merged by the driver into the
// cluster summary figure.
type summaryMsg struct {
	Node          int32
	Placements    int64
	Removals      int64
	MigrationsIn  int64
	MigrationsOut int64
	Hibernates    int64
	Activations   int64
	FinalActive   int64
	EnergyKWh     float64
	MsgsSent      int64
	BytesSent     int64
}

// The acks every node sends once per broadcast name their sender, so
// gather can file them in node order.
func (m replyMsg) sender() int32    { return m.Node }
func (m scandoneMsg) sender() int32 { return m.Node }
func (m utilBestMsg) sender() int32 { return m.Node }
func (m summaryMsg) sender() int32  { return m.Node }

// vt converts a wire timestamp back to virtual time.
func vt(ns int64) time.Duration { return time.Duration(ns) }
