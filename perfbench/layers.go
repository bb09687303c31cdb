package main

import (
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/trace"
)

// metricDef names one reported metric. moves says which end-to-end metric
// a per-layer metric should move, and on which workload, so that a change
// to one layer comes with a prediction the benchmark can test.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics a user of the simulator sees, from the untraced
// runs. failed_frac is reported too, as a line and through the result's
// attempted and failed counts; it is not listed here because it is 0 on a
// correct run, and a 0 median has no relative spread to bound.
var endToEnd = []metricDef{
	{name: "server_h_per_s", unit: "server-h/s", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "cpu_s", unit: "s", better: "lower"},
	{name: "peak_heap_mb", unit: "MB", better: "lower"},
}

const (
	movesSim      = "server_h_per_s and cpu_s on wire-day; flat on paper-day"
	movesProtocol = "server_h_per_s on wire-day"
	movesEco      = "server_h_per_s on paper-day (most) and fleet-100k (little)"
	movesCluster  = "server_h_per_s on fleet-100k"
	movesDC       = "server_h_per_s on paper-day; peak_heap_mb on fleet-100k"
	movesNode     = "server_h_per_s on ecod-day"
	movesRuntime  = "cpu_s and peak_heap_mb; wire-day most"
)

// perLayer are the metrics of the traced pass. Every workload prints all of
// them; a layer the workload does not reach reads 0.
var perLayer = []metricDef{
	{"trace.gen_s", "s", "lower", "setup_s on paper-day and fleet-100k"},
	{"sim.events", "count", "lower", movesSim},
	{"sim.ns_per_event", "ns", "lower", movesSim},
	{"sim.queue_depth_max", "count", "lower", movesSim},
	{"sim.core_s", "s", "lower", movesSim},
	{"netsim.messages", "count", "lower", "exact count; wire-day"},
	{"netsim.mbytes", "MiB", "lower", "exact count; wire-day"},
	{"protocol.arrival_s", "s", "lower", movesProtocol},
	{"protocol.invite_s", "s", "lower", movesProtocol},
	{"protocol.reply_s", "s", "lower", movesProtocol},
	{"protocol.assign_s", "s", "lower", movesProtocol},
	{"protocol.migration_s", "s", "lower", movesProtocol},
	{"protocol.msgs_per_placement", "count", "lower", movesProtocol},
	{"protocol.migrations_aborted_frac", "frac", "lower", movesProtocol},
	{"protocol.wake_reuses", "count", "higher", movesProtocol},
	{"ecocloud.arrival_s", "s", "lower", movesEco},
	{"ecocloud.arrival_us_per_call", "us", "lower", movesEco},
	{"ecocloud.control_s", "s", "lower", movesEco},
	{"ecocloud.control_ms_per_call", "ms", "lower", movesEco},
	{"cluster.self_s", "s", "lower", movesCluster},
	{"cluster.control_s", "s", "lower", movesCluster},
	{"cluster.sample_s", "s", "lower", movesCluster},
	{"cluster.migrations", "count", "lower", movesCluster},
	{"dc.cache_hits", "count", "higher", movesDC},
	{"dc.cache_misses", "count", "lower", movesDC},
	{"dc.cache_invalidations", "count", "lower", movesDC},
	{"dc.cache_hit_ratio", "frac", "higher", movesDC},
	{"dc.heap_b_per_server", "B", "lower", movesDC},
	{"dc.heap_b_per_vm", "B", "lower", movesDC},
	{"par.cpu_per_wall", "ratio", "higher", movesCluster},
	{"obs.overhead_frac", "frac", "lower", "server_h_per_s on wire-day; none elsewhere"},
	{"ecod.messages", "count", "lower", movesNode},
	{"ecod.us_per_message", "us", "lower", movesNode},
	{"go.alloc_mb", "MB", "lower", movesRuntime},
	{"go.allocs", "count", "lower", movesRuntime},
	{"go.gc_cycles", "count", "lower", movesRuntime},
	{"bench.trace_overhead_frac", "frac", "lower", "none (traced vs untraced)"},
}

// span is one timed call into a layer. Parent indexes the span that was
// open when this one began, -1 for none.
type span struct {
	Name    string `json:"name"`
	Iter    int    `json:"iter"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tracer keeps the spans of a traced pass in memory; they are written out
// when the benchmark ends. A nil tracer records nothing, so workload code
// calls it unconditionally. Spans are opened and closed on one goroutine.
type tracer struct {
	epoch time.Time
	iter  int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Iter: t.iter, StartNS: int64(time.Since(t.epoch)), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// record adds a span timed elsewhere, such as on another goroutine.
func (t *tracer) record(name string, start, end time.Time, parent int) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Iter: t.iter, Parent: parent,
		StartNS: int64(start.Sub(t.epoch)), EndNS: int64(end.Sub(t.epoch)),
	})
}

// total returns the summed duration in seconds and the number of the spans
// named name in the current iteration.
func (t *tracer) total(name string) (seconds float64, calls int) {
	if t == nil {
		return 0, 0
	}
	var ns int64
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].Iter == t.iter; i-- {
		if t.spans[i].Name == name {
			ns += t.spans[i].EndNS - t.spans[i].StartNS
			calls++
		}
	}
	return float64(ns) / 1e9, calls
}

// timedPolicy is the cluster.Policy the traced pass hands cluster.Run: it
// wraps ecoCloud and records one span per call into it.
type timedPolicy struct {
	cluster.Policy
	tr *tracer
}

func (p timedPolicy) OnArrival(env cluster.Env, vm *trace.VM) {
	id := p.tr.begin("ecocloud.OnArrival")
	p.Policy.OnArrival(env, vm)
	p.tr.end(id)
}

func (p timedPolicy) OnControl(env cluster.Env) {
	id := p.tr.begin("ecocloud.OnControl")
	p.Policy.OnControl(env)
	p.tr.end(id)
}

// withTracer wraps pol when the run is traced and returns it unchanged
// otherwise, so untraced runs call ecoCloud directly.
func withTracer(pol cluster.Policy, tr *tracer) cluster.Policy {
	if tr == nil {
		return pol
	}
	return timedPolicy{Policy: pol, tr: tr}
}

const handlerPrefix = "sim.handler."

// handlerSeconds sums the wall-clock engine handler timers with the given
// names, or every sim.handler.* timer when no name is given. The registry
// also holds virtual-time timers (protocol.placement_latency and the like);
// they never carry the handler prefix, so they stay out of the sum.
func handlerSeconds(s obs.Snapshot, names ...string) float64 {
	var ns int64
	if len(names) == 0 {
		for name, t := range s.Timers {
			if strings.HasPrefix(name, handlerPrefix) {
				ns += t.TotalNS
			}
		}
	}
	for _, name := range names {
		ns += s.Timers[handlerPrefix+name].TotalNS
	}
	return float64(ns) / 1e9
}

// engineLayers derives the sim metrics from a run's registry: the engine's
// own time is the wall time of the call that ran it minus the time spent in
// handlers.
func engineLayers(l map[string]float64, s obs.Snapshot, runWall float64) {
	events := float64(s.Counters["sim.events"])
	core := runWall - handlerSeconds(s)
	l["sim.events"] = events
	l["sim.queue_depth_max"] = float64(s.Gauges["sim.queue_depth_max"])
	l["sim.core_s"] = core
	l["sim.ns_per_event"] = ratio(core*1e9, events)
}
