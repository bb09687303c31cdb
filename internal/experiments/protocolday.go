package experiments

import (
	"fmt"
	"time"

	"repro/internal/dc"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ProtocolDayOptions parameterizes a full day of operation of the complete
// distributed system — arrivals, departures and the migration procedure all
// running as wire messages on the simulated fabric. Where the Figs. 6–11
// driver abstracts the protocol into function calls, this experiment
// measures what the paper's architecture actually costs on the network:
// control messages, bandwidth (including live-migration transfers), and the
// latencies users would see.
// ProtocolDayOptions embeds RunConfig with churn semantics: NumVMs is the
// initial VM population (Churn.InitialVMs) and Horizon the churn horizon;
// both are copied into Churn when the experiment runs.
type ProtocolDayOptions struct {
	RunConfig
	Churn trace.ChurnConfig
	Proto protocol.Config
}

// DefaultProtocolDayOptions runs 100 six-core servers for 24 hours under
// the paper's parameters with 4 GiB live migrations.
func DefaultProtocolDayOptions() ProtocolDayOptions {
	churn := trace.DefaultChurnConfig()
	churn.Horizon = 24 * time.Hour
	return ProtocolDayOptions{
		RunConfig: RunConfig{Servers: 100, NumVMs: churn.InitialVMs, Horizon: churn.Horizon, Seed: 1},
		Churn:     churn,
		Proto:     protocol.DefaultConfig(),
	}
}

// ProtocolDay runs the experiment and reports the control-plane budget.
func ProtocolDay(opts ProtocolDayOptions) (*Figure, error) {
	// RunConfig is canonical: NumVMs/Horizon drive the churn generator.
	opts.Churn.InitialVMs = opts.NumVMs
	opts.Churn.Horizon = opts.Horizon
	opts.Proto.Obs = opts.Obs
	opts.Proto.Workers = opts.Workers
	ws, err := trace.GenerateChurn(opts.Churn, opts.Seed)
	if err != nil {
		return nil, err
	}
	c, err := protocol.New(opts.Proto, dc.UniformFleet(opts.Servers, 6, 2000), opts.Seed+1)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	for _, vm := range ws.VMs {
		vm := vm
		c.Engine().Schedule(vm.Start, "arrival", func(*sim.Engine) { c.PlaceVM(vm) })
		if vm.End < opts.Churn.Horizon {
			c.Engine().Schedule(vm.End, "departure", func(*sim.Engine) {
				if _, ok := c.DC().HostOf(vm.ID); ok {
					if _, err := c.DC().Remove(vm.ID); err != nil {
						panic(fmt.Sprintf("experiments: protocol-day departure: %v", err))
					}
				}
			})
		}
	}
	c.StartMigrationScan()
	c.Engine().Run(opts.Churn.Horizon)
	if err := c.DC().CheckInvariants(); err != nil {
		return nil, fmt.Errorf("experiments: protocol day left inconsistent state: %v", err)
	}

	hours := opts.Churn.Horizon.Hours()
	migrations := c.Stats.MigrationsLow + c.Stats.MigrationsHigh
	f := &Figure{
		ID:    "protocolday",
		Title: "One day of the complete distributed system on the wire",
		Columns: []string{
			"placements", "migrations_low", "migrations_high", "migrations_aborted",
			"wakes", "saturations", "messages", "megabytes",
			"placement_latency_us", "migration_latency_ms", "final_active",
		},
	}
	migLatMS := float64(c.Stats.MeanMigrationLatency().Microseconds()) / 1000
	f.Add(
		float64(c.Stats.Placements),
		float64(c.Stats.MigrationsLow), float64(c.Stats.MigrationsHigh),
		float64(c.Stats.MigrationsAborted),
		float64(c.Stats.Wakes), float64(c.Stats.Saturations),
		float64(c.MessagesSent()), float64(c.BytesSent())/(1<<20),
		float64(c.Stats.MeanLatency().Microseconds()), migLatMS,
		float64(c.DC().ActiveCount()),
	)
	f.Notef("%d placements and %d migrations over %.0f h cost %d wire messages (%.0f/hour) and %.1f MiB "+
		"(live transfers dominate: %d migrations x %d MiB)",
		c.Stats.Placements, migrations, hours,
		c.MessagesSent(), float64(c.MessagesSent())/hours,
		float64(c.BytesSent())/(1<<20), migrations, opts.Proto.TransferBytes>>20)
	f.Notef("placement latency %v mean; migration (request to cutover) %.0f ms mean",
		c.Stats.MeanLatency(), migLatMS)
	f.Notef("end of day: %d of %d servers active; %d migration requests aborted (no destination)",
		c.DC().ActiveCount(), opts.Servers, c.Stats.MigrationsAborted)
	return f, nil
}
