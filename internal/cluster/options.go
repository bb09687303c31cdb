package cluster

import (
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// Option mutates a RunConfig before Run validates it. Options are the only
// way to set the attachments that are not part of a run's identity —
// telemetry, checkpoints — so call sites read as
//
//	cluster.Run(cfg, policy, cluster.WithObs(rec))
//
// with cfg carrying only the simulation itself (fleet, workload, horizon,
// cadences, power model).
type Option func(*RunConfig)

// WithObs attaches a telemetry recorder to the run: engine metrics (events,
// queue depth, handler wall time), one cluster.* counter per data-center
// mutation kind (see dc.EventKind.Counter), overload ticks, live gauges (sim
// time, active servers) and — when the recorder carries a journal — one
// obs.Line per mutation, the same schema protocol.New writes. Setup
// pre-placement (SpreadRoundRobin) is scenario construction, not policy
// behaviour: neither the counters nor the journal see it. A nil recorder
// costs the run nothing.
func WithObs(r *obs.Recorder) Option {
	return func(c *RunConfig) { c.obs = r }
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
