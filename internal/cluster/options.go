package cluster

import (
	"io"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// Option mutates a RunConfig before Run validates it. Options are the only
// way to set the attachments that are not part of a run's identity —
// telemetry sinks, journals, checkpoints — so call sites read as
//
//	cluster.Run(cfg, policy, cluster.WithObs(rec), cluster.WithEventLog(w))
//
// with cfg carrying only the simulation itself (fleet, workload, horizon,
// cadences, power model).
type Option func(*RunConfig)

// WithObs attaches a telemetry recorder to the run: engine metrics (events,
// queue depth, handler wall time), cluster counters (assignments, removals,
// migrations by kind, activations, hibernations, overload ticks), live
// gauges (sim time, active servers), and — when the recorder carries a
// journal — one JSONL event per policy-driven data-center mutation (setup
// pre-placement is excluded, like WithEventLog). A nil recorder costs the
// run nothing.
func WithObs(r *obs.Recorder) Option {
	return func(c *RunConfig) { c.obs = r }
}

// WithEventLog streams one JSON line per data-center mutation to w:
// {"t_ns":..., "kind":"place|remove|migrate|activate|hibernate",
// "vm":..., "server":..., "dest":...}. Useful for debugging policies and for
// external analysis; adds encoding cost per event. Setup mutations (the
// SpreadRoundRobin pre-placement) are not journaled: the log reflects policy
// behaviour only, matching the counters. A nil writer journals nothing.
func WithEventLog(w io.Writer) Option {
	return func(c *RunConfig) { c.eventLog = w }
}

// WithCheckpointAt makes Run capture a full checkpoint at the end of the
// control tick at virtual time at and hand it to sink; a non-nil error from
// sink aborts the run and is returned from Run. The control tick is the last
// event at its timestamp (for t > 0), so the capture is a well-defined cut of
// the simulation; at must be a positive multiple of ControlInterval and
// before the horizon. Capture is pure reads: a checkpointing run's results
// are bit-identical to a non-checkpointing one.
func WithCheckpointAt(at time.Duration, sink func(*checkpoint.Checkpoint) error) Option {
	return func(c *RunConfig) {
		c.checkpointAt = at
		c.checkpointSink = sink
	}
}

// WithCheckpointStop stops the run right after the checkpoint is captured
// and delivered; the Result then covers only the prefix [0, at]. Use it to
// warm a prefix once and fork many continuations from it.
func WithCheckpointStop() Option {
	return func(c *RunConfig) { c.checkpointStop = true }
}

// WithResume starts the run from a checkpoint instead of t=0: the data
// center, policy state, rng streams, driver accounting and obs counters are
// reinstated, arrivals and departures before the capture point are skipped,
// and the tick cadences continue exactly where the captured run left off.
// The configuration must rebuild the same fleet, workload and cadences the
// checkpoint was captured under; the continued run is then bit-identical
// (CSV and journal) to the uninterrupted one.
func WithResume(ck *checkpoint.Checkpoint) Option {
	return func(c *RunConfig) { c.resume = ck }
}
