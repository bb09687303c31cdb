package dc

import (
	"time"

	"repro/internal/obs"
)

// Event is one state mutation of the data center, emitted to the journal
// callback when one is installed. Fields not applicable to a kind are -1.
type Event struct {
	Kind   EventKind
	VM     int // VM involved, or -1
	Server int // primary server (placement target, migration source, switch subject)
	Dest   int // migration destination, or -1
}

// EventKind enumerates the journal events.
type EventKind string

// Journal event kinds.
const (
	EventPlace     EventKind = "place"
	EventRemove    EventKind = "remove"
	EventMigrate   EventKind = "migrate"
	EventActivate  EventKind = "activate"
	EventHibernate EventKind = "hibernate"
	// EventFail marks a server crash; every VM it hosted is journaled first
	// as its own EventCrashEvict (distinct from EventRemove so crash losses
	// never pollute the departure counters). EventRecover marks the repaired
	// server rejoining the wakeable pool.
	EventFail       EventKind = "fail"
	EventRecover    EventKind = "recover"
	EventCrashEvict EventKind = "crash-evict"
)

// eventCounters names the obs counter each event kind adds one to.
var eventCounters = map[EventKind]string{
	EventPlace:      "cluster.assignments",
	EventRemove:     "cluster.removals",
	EventMigrate:    "cluster.migrations",
	EventActivate:   "cluster.wakeups",
	EventHibernate:  "cluster.hibernations",
	EventFail:       "cluster.failures",
	EventRecover:    "cluster.recoveries",
	EventCrashEvict: "cluster.crash_evictions",
}

// Counter returns the name of the obs counter that counts k's events.
func (k EventKind) Counter() string { return eventCounters[k] }

// SetRecorder installs r as the data center's telemetry, the one path by
// which a run's mutations reach obs: from here on every mutation adds one
// to its kind's Counter and writes one obs.Line, stamped with the virtual
// time now returns, to r's journal (if r carries one). A nil recorder
// installs nothing, so telemetry off costs each mutation one nil test. The
// callback runs synchronously inside each mutation, after the state change
// has been applied.
func (d *DataCenter) SetRecorder(r *obs.Recorder, now func() time.Duration) {
	if !r.Enabled() {
		d.journal = nil
		return
	}
	d.journal = func(e Event) {
		r.Count(e.Kind.Counter(), 1)
		r.Log(obs.Line{TNS: int64(now()), Kind: string(e.Kind), VM: e.VM, Server: e.Server, Dest: e.Dest})
	}
}

// emit reports an event to the journal if one is installed, then re-verifies
// the invariants when checked mode is on (the event names the culprit in the
// panic message).
func (d *DataCenter) emit(e Event) {
	if d.journal != nil {
		d.journal(e)
	}
	if d.checked {
		d.verify(e)
	}
}
