package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/experiments"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
)

// goldenSeed is the seed the checked-in out/*.csv figures were made with.
const goldenSeed = 1

// parWorkers is the fleet-100k control-round pool: one worker per core of
// the 2-core reference host. It is fixed rather than taken from the host so
// the workload is the same everywhere; a host with fewer cores is reported
// as oversubscribed.
const parWorkers = 2

// workload is one set of inputs. setup builds one iteration's inputs from
// the seed (its wall time is setup_s) and returns the call that runs it.
type workload struct {
	name string
	why  string
	// serverHours is the simulated server-hours one run covers.
	serverHours float64
	// recorderOn marks a workload that runs with telemetry on; its traced
	// pass also runs it with the recorder off to price the recorder.
	recorderOn bool
	setup      func(e *env) (func() (*outcome, error), error)
	// golden compares a run's output with the checked-in figures in dir; it
	// applies at goldenSeed only. Nil when the workload has none.
	golden func(figs []*experiments.Figure, dir string) error
}

// outcome is what one run produced, for the checks and the traced pass.
type outcome struct {
	// render builds the run's output after the timed run; every run of one
	// seed must produce the same bytes.
	render func() []*experiments.Figure
	// counts are exact work counts that must repeat across runs of a seed.
	counts map[string]int64
	// check is a workload-specific output check (nil for none).
	check func() error
	// layers fills the per-layer metrics after a traced run.
	layers func(l map[string]float64)
}

// env is what one iteration's set-up and run share.
type env struct {
	seed   uint64
	tr     *tracer // nil on untraced runs
	obsOff bool    // wire-day's recorder-off comparison run
	rec    *obs.Recorder
	// layers collects the per-layer values set-up measures (traced only).
	layers map[string]float64
}

// generate runs the workload generator as the set-up step trace.gen. A
// traced run also measures the live heap the workload holds per VM.
func (e *env) generate(gen func() (*trace.Set, error)) (*trace.Set, error) {
	var ws *trace.Set
	var err error
	step := func() any {
		id := e.tr.begin("trace.gen")
		ws, err = gen()
		e.tr.end(id)
		return ws
	}
	if e.tr == nil {
		step()
		return ws, err
	}
	b := heapDelta(step)
	if err != nil {
		return nil, err
	}
	e.layers["trace.gen_s"], _ = e.tr.total("trace.gen")
	e.layers["dc.heap_b_per_vm"] = ratio(float64(b), float64(len(ws.VMs)))
	return ws, nil
}

// measureFleet records, in a traced run, the live heap a data center over
// specs takes per server.
func (e *env) measureFleet(specs []dc.Spec) {
	if e.tr == nil {
		return
	}
	b := heapDelta(func() any { return dc.New(specs) })
	e.layers["dc.heap_b_per_server"] = ratio(float64(b), float64(len(specs)))
}

// runCluster calls cluster.Run. A traced run wraps the policy, attaches a
// metrics-only recorder for the engine's handler timers, and times the call.
func (e *env) runCluster(cfg cluster.RunConfig, pol cluster.Policy) (*cluster.Result, error) {
	if e.tr == nil {
		return cluster.Run(cfg, pol)
	}
	e.rec = obs.NewRecorder(nil, nil)
	id := e.tr.begin("cluster.Run")
	defer e.tr.end(id)
	return cluster.Run(cfg, withTracer(pol, e.tr), cluster.WithObs(e.rec))
}

// clusterOutcome fills what the cluster.Run workloads share: exact counts
// and, for a traced run, the sim, ecocloud, cluster and dc layers.
func (e *env) clusterOutcome(res *cluster.Result, render func() []*experiments.Figure) *outcome {
	migrations := res.TotalLowMigrations + res.TotalHighMigrations
	counts := cacheCounts(res.DemandCache)
	counts["cluster.migrations"] = int64(migrations)
	if e.rec != nil {
		counts["sim.events"] = e.rec.Snapshot().Counters["sim.events"]
	}
	return &outcome{
		render: render,
		counts: counts,
		layers: func(l map[string]float64) {
			snap := e.rec.Snapshot()
			wall, _ := e.tr.total("cluster.Run")
			arr, nArr := e.tr.total("ecocloud.OnArrival")
			ctl, nCtl := e.tr.total("ecocloud.OnControl")
			// cluster.Run is the engine's only caller here, so the
			// engine's own time also holds cluster.Run's set-up and
			// wind-down around the event loop.
			engineLayers(l, snap, wall)
			l["ecocloud.arrival_s"] = arr
			l["ecocloud.arrival_us_per_call"] = ratio(arr*1e6, float64(nArr))
			l["ecocloud.control_s"] = ctl
			l["ecocloud.control_ms_per_call"] = ratio(ctl*1e3, float64(nCtl))
			l["cluster.self_s"] = wall - arr - ctl
			l["cluster.control_s"] = handlerSeconds(snap, "control") - ctl
			l["cluster.sample_s"] = handlerSeconds(snap, "sample")
			l["cluster.migrations"] = float64(migrations)
			cacheLayers(l, res.DemandCache)
		},
	}
}

func cacheCounts(st dc.DemandCacheStats) map[string]int64 {
	return map[string]int64{
		"dc.cache_hits":          int64(st.Hits),
		"dc.cache_misses":        int64(st.Misses),
		"dc.cache_invalidations": int64(st.Invalidations),
	}
}

func cacheLayers(l map[string]float64, st dc.DemandCacheStats) {
	l["dc.cache_hits"] = float64(st.Hits)
	l["dc.cache_misses"] = float64(st.Misses)
	l["dc.cache_invalidations"] = float64(st.Invalidations)
	l["dc.cache_hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses))
}

// workloads returns the benchmark's workloads; small shrinks each one for
// the self-test.
func workloads(small bool) []*workload {
	return []*workload{paperDay(small), wireDay(small), fleet100k(small), ecodDay(small)}
}

func findWorkload(name string, small bool) (*workload, error) {
	var names []string
	for _, w := range workloads(small) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// paperDay is the paper's section III run behind Figs. 6-11.
func paperDay(small bool) *workload {
	o := experiments.DefaultDailyOptions()
	if small {
		o.Servers, o.NumVMs, o.Horizon = 40, 600, 6*time.Hour
	}
	w := &workload{
		name:        "paper-day",
		why:         "the paper's two-day run: mostly ecoCloud decisions and demand-cache hits, with an idle event core",
		serverHours: float64(o.Servers) * o.Horizon.Hours(),
	}
	w.setup = func(e *env) (func() (*outcome, error), error) {
		o := o
		o.Seed = e.seed
		g := o.Gen
		g.NumVMs, g.Horizon = o.NumVMs, o.Horizon
		ws, err := e.generate(func() (*trace.Set, error) { return trace.Generate(g, o.Seed) })
		if err != nil {
			return nil, err
		}
		pol, err := ecocloud.New(o.Eco, o.Seed+1)
		if err != nil {
			return nil, err
		}
		specs := dc.StandardFleet(o.Servers)
		e.measureFleet(specs)
		cfg := o.ClusterConfig(specs, ws, o.Control, o.Sample, o.Power)
		cfg.RecordServerUtil = true
		return func() (*outcome, error) {
			res, err := e.runCluster(cfg, pol)
			if err != nil {
				return nil, err
			}
			d := &experiments.DailyResult{Run: res, Workload: ws, Servers: o.Servers, TaForBound: o.Eco.Ta}
			return e.clusterOutcome(res, func() []*experiments.Figure {
				return []*experiments.Figure{d.Fig6(), d.Fig8(), d.Fig9(), d.Fig10(), d.Fig11()}
			}), nil
		}, nil
	}
	w.golden = goldenFigures
	return w
}

// wireDay is the protocolday experiment: the whole message protocol on the
// simulated fabric, with telemetry on as `ecobench -out` runs it.
func wireDay(small bool) *workload {
	o := experiments.DefaultProtocolDayOptions()
	if small {
		o.Servers, o.NumVMs, o.Horizon = 20, 100, 2*time.Hour
		o.Churn.ArrivalPerHour = 100
	}
	w := &workload{
		name:        "wire-day",
		why:         "protocolday on netsim with telemetry on: millions of events and messages, so the event queue, netsim and obs dominate",
		serverHours: float64(o.Servers) * o.Horizon.Hours(),
		recorderOn:  true,
	}
	w.setup = func(e *env) (func() (*outcome, error), error) {
		churn := o.Churn
		churn.InitialVMs, churn.Horizon = o.NumVMs, o.Horizon
		ws, err := e.generate(func() (*trace.Set, error) { return trace.GenerateChurn(churn, e.seed) })
		if err != nil {
			return nil, err
		}
		proto := o.Proto
		if !e.obsOff {
			e.rec = obs.NewRecorder(nil, obs.NewJournal(io.Discard))
			proto.Obs = e.rec
		}
		specs := dc.UniformFleet(o.Servers, 6, 2000)
		e.measureFleet(specs)
		c, err := protocol.New(proto, specs, e.seed+1)
		if err != nil {
			return nil, err
		}
		tr := e.tr
		for _, vm := range ws.VMs {
			vm := vm
			c.Engine().Schedule(vm.Start, "arrival", func(*sim.Engine) {
				id := tr.begin("bench.arrival")
				c.PlaceVM(vm)
				tr.end(id)
			})
			if vm.End < churn.Horizon {
				c.Engine().Schedule(vm.End, "departure", func(*sim.Engine) {
					id := tr.begin("bench.departure")
					if _, ok := c.DC().HostOf(vm.ID); ok {
						if _, err := c.DC().Remove(vm.ID); err != nil {
							panic(fmt.Sprintf("wire-day departure: %v", err))
						}
					}
					tr.end(id)
				})
			}
		}
		c.StartMigrationScan()
		return func() (*outcome, error) {
			defer c.Close()
			id := tr.begin("Engine.Run")
			c.Engine().Run(churn.Horizon)
			tr.end(id)
			if err := c.DC().CheckInvariants(); err != nil {
				return nil, err
			}
			st := c.Stats
			counts := cacheCounts(c.DC().DemandCacheStats())
			counts["sim.events"] = int64(c.Engine().Processed())
			counts["netsim.messages"] = int64(c.MessagesSent())
			counts["netsim.bytes"] = c.BytesSent()
			counts["protocol.placements"] = int64(st.Placements)
			return &outcome{
				render: func() []*experiments.Figure {
					return []*experiments.Figure{protocolDayFigure(c, o, churn.Horizon)}
				},
				counts: counts,
				layers: func(l map[string]float64) {
					snap := e.rec.Snapshot()
					wall, _ := tr.total("Engine.Run")
					engineLayers(l, snap, wall)
					msgs := float64(c.MessagesSent())
					l["netsim.messages"] = msgs
					l["netsim.mbytes"] = float64(c.BytesSent()) / (1 << 20)
					l["protocol.arrival_s"], _ = tr.total("bench.arrival")
					l["protocol.invite_s"] = handlerSeconds(snap, "netsim:invite")
					l["protocol.reply_s"] = handlerSeconds(snap, "netsim:reply")
					l["protocol.assign_s"] = handlerSeconds(snap, "netsim:assign", "wake-delay")
					l["protocol.migration_s"] = handlerSeconds(snap, "migration-scan",
						"netsim:migreq", "netsim:migrate", "netsim:transfer", "netsim:wake")
					l["protocol.msgs_per_placement"] = ratio(msgs, float64(st.Placements))
					moved := st.MigrationsLow + st.MigrationsHigh
					l["protocol.migrations_aborted_frac"] = ratio(float64(st.MigrationsAborted), float64(moved+st.MigrationsAborted))
					l["protocol.wake_reuses"] = float64(st.WakeReuses)
					cacheLayers(l, c.DC().DemandCacheStats())
				},
			}, nil
		}, nil
	}
	w.golden = goldenFigures
	return w
}

// protocolDayFigure renders the run as experiments.ProtocolDay does; the
// golden check holds the two to the same bytes.
func protocolDayFigure(c *protocol.Cluster, o experiments.ProtocolDayOptions, horizon time.Duration) *experiments.Figure {
	st := c.Stats
	hours := horizon.Hours()
	migrations := st.MigrationsLow + st.MigrationsHigh
	f := &experiments.Figure{
		ID:    "protocolday",
		Title: "One day of the complete distributed system on the wire",
		Columns: []string{
			"placements", "migrations_low", "migrations_high", "migrations_aborted",
			"wakes", "saturations", "messages", "megabytes",
			"placement_latency_us", "migration_latency_ms", "final_active",
		},
	}
	migLatMS := float64(st.MeanMigrationLatency().Microseconds()) / 1000
	f.Add(
		float64(st.Placements),
		float64(st.MigrationsLow), float64(st.MigrationsHigh),
		float64(st.MigrationsAborted),
		float64(st.Wakes), float64(st.Saturations),
		float64(c.MessagesSent()), float64(c.BytesSent())/(1<<20),
		float64(st.MeanLatency().Microseconds()), migLatMS,
		float64(c.DC().ActiveCount()),
	)
	f.Notef("%d placements and %d migrations over %.0f h cost %d wire messages (%.0f/hour) and %.1f MiB "+
		"(live transfers dominate: %d migrations x %d MiB)",
		st.Placements, migrations, hours,
		c.MessagesSent(), float64(c.MessagesSent())/hours,
		float64(c.BytesSent())/(1<<20), migrations, o.Proto.TransferBytes>>20)
	f.Notef("placement latency %v mean; migration (request to cutover) %.0f ms mean",
		st.MeanLatency(), migLatMS)
	f.Notef("end of day: %d of %d servers active; %d migration requests aborted (no destination)",
		c.DC().ActiveCount(), o.Servers, st.MigrationsAborted)
	return f
}

// fleet100k is one parscale cell: 100,000 servers x 10 VMs on a par pool.
func fleet100k(small bool) *workload {
	o := experiments.DefaultParScaleOptions()
	servers := 100_000
	if small {
		servers, o.Horizon = 300, time.Hour
	}
	vms := servers * o.VMsPerServer
	w := &workload{
		name:        "fleet-100k",
		why:         "one parscale cell of 100k servers on a 2-worker pool: memory and per-server control-round work, no migrations",
		serverHours: float64(servers) * o.Horizon.Hours(),
	}
	w.setup = func(e *env) (func() (*outcome, error), error) {
		o := o
		o.Seed = e.seed
		var cfg cluster.RunConfig
		var pol cluster.Policy
		_, err := e.generate(func() (*trace.Set, error) {
			var err error
			cfg, pol, err = experiments.ParScaleCell(o, servers, parWorkers)
			return cfg.Workload, err
		})
		if err != nil {
			return nil, err
		}
		e.measureFleet(cfg.Specs)
		return func() (*outcome, error) {
			res, err := e.runCluster(cfg, pol)
			if err != nil {
				return nil, err
			}
			return e.clusterOutcome(res, func() []*experiments.Figure {
				return []*experiments.Figure{experiments.ParScaleFigure([]experiments.ParScalePoint{
					{Servers: servers, VMs: vms, Workers: []int{parWorkers}, Baseline: res},
				})}
			}), nil
		}, nil
	}
	w.golden = func(figs []*experiments.Figure, dir string) error {
		return goldenRow(figs[0], filepath.Join(dir, "parscale.csv"), "servers",
			"energy_kwh", "mean_active_servers", "overload_pct", "migrations")
	}
	return w
}

// ecodDay runs two ecod nodes in this process over loopback TCP.
func ecodDay(small bool) *workload {
	base := node.DefaultClusterConfig()
	base.Servers, base.Horizon = 100, 24*time.Hour
	if small {
		base.Servers, base.Horizon, base.InitialVMs, base.ArrivalPerHour = 16, 2*time.Hour, 60, 60
	}
	w := &workload{
		name:        "ecod-day",
		why:         "two ecod nodes over loopback TCP: the only workload through the wire codec, the sockets and the driver barriers",
		serverHours: float64(base.Servers) * base.Horizon.Hours(),
	}
	w.setup = func(e *env) (func() (*outcome, error), error) {
		cfg := base
		cfg.Seed = e.seed
		ws, err := e.generate(func() (*trace.Set, error) { return trace.GenerateChurn(cfg.Churn(), cfg.Seed) })
		if err != nil {
			return nil, err
		}
		arrivals := 0
		for _, vm := range ws.VMs {
			if vm.Start <= cfg.Horizon {
				arrivals++
			}
		}
		e.measureFleet(dc.UniformFleet(cfg.Servers, cfg.Cores, cfg.CoreMHz))
		half := cfg.Servers / 2
		spans := []node.Span{{Lo: 0, Hi: half}, {Lo: half, Hi: cfg.Servers}}
		listeners := make([]net.Listener, len(spans))
		closeAll := func() {
			for _, ln := range listeners {
				if ln != nil {
					ln.Close()
				}
			}
		}
		cfg.Nodes = nil
		for i, sp := range spans {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeAll()
				return nil, err
			}
			listeners[i] = ln
			cfg.Nodes = append(cfg.Nodes, node.NodeSpec{ID: i, Addr: ln.Addr().String(), Span: sp})
		}
		nodes := make([]*node.Node, len(spans))
		for i := range nodes {
			if nodes[i], err = node.New(&cfg, i, node.Options{Listener: listeners[i], ConnectTimeout: 10 * time.Second}); err != nil {
				closeAll()
				return nil, err
			}
		}
		return func() (*outcome, error) {
			merged, err := runNodes(e.tr, nodes)
			if err != nil {
				return nil, err
			}
			placements := int64(merged.Column("placements")[0])
			messages := int64(merged.Column("messages")[0])
			// The notes carry the config hash, which covers the listen
			// ports; only the row is compared across runs.
			row := *merged
			row.Notes = nil
			return &outcome{
				render: func() []*experiments.Figure { return []*experiments.Figure{&row} },
				counts: map[string]int64{"ecod.messages": messages, "protocol.placements": placements},
				check: func() error {
					if placements != int64(arrivals) {
						return fmt.Errorf("ecod-day: %d placements for %d arrivals", placements, arrivals)
					}
					return nil
				},
				layers: func(l map[string]float64) {
					wall, _ := e.tr.total("ecod.run")
					l["ecod.messages"] = float64(messages)
					l["ecod.us_per_message"] = ratio(wall*1e6, float64(messages))
				},
			}, nil
		}, nil
	}
	return w
}

// runNodes runs every node to completion, each on its own goroutine as each
// would be its own process, and returns node 0's merged figure.
func runNodes(tr *tracer, nodes []*node.Node) (*experiments.Figure, error) {
	type result struct {
		fig        *experiments.Figure
		err        error
		start, end time.Time
	}
	results := make([]result, len(nodes))
	id := tr.begin("ecod.run")
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(r *result, n *node.Node) {
			defer wg.Done()
			r.start = time.Now()
			r.fig, r.err = n.Run("")
			r.end = time.Now()
		}(&results[i], n)
	}
	wg.Wait()
	tr.end(id)
	for i, r := range results {
		tr.record("node.Run", r.start, r.end, id)
		if r.err != nil {
			return nil, fmt.Errorf("ecod node %d: %w", i, r.err)
		}
	}
	if results[0].fig == nil {
		return nil, fmt.Errorf("ecod node 0 returned no merged figure")
	}
	return results[0].fig, nil
}

// goldenFigures compares each figure's CSV with <dir>/<id>.csv byte for
// byte.
func goldenFigures(figs []*experiments.Figure, dir string) error {
	for _, f := range figs {
		want, err := os.ReadFile(filepath.Join(dir, f.ID+".csv"))
		if err != nil {
			return fmt.Errorf("golden: %w", err)
		}
		got, err := figureBytes(f)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("golden: %s differs from %s", f.ID, filepath.Join(dir, f.ID+".csv"))
		}
	}
	return nil
}

// goldenRow compares the named columns of fig's single row with the row of
// the CSV at path whose key column holds the same value, cell by cell as
// the CSV prints them.
func goldenRow(fig *experiments.Figure, path, key string, cols ...string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	want, err := parseCSV(raw)
	if err != nil {
		return fmt.Errorf("golden: %s: %w", path, err)
	}
	got, err := figureBytes(fig)
	if err != nil {
		return err
	}
	have, err := parseCSV(got)
	if err != nil || len(have) != 1 {
		return fmt.Errorf("golden: %s renders %d rows: %v", fig.ID, len(have), err)
	}
	for _, row := range want {
		if row[key] != have[0][key] {
			continue
		}
		for _, c := range cols {
			if row[c] != have[0][c] {
				return fmt.Errorf("golden: %s %s=%s: %s is %s, want %s", fig.ID, key, row[key], c, have[0][c], row[c])
			}
		}
		return nil
	}
	return fmt.Errorf("golden: %s has no row with %s=%s", path, key, have[0][key])
}

func figureBytes(f *experiments.Figure) ([]byte, error) {
	var b bytes.Buffer
	if err := f.WriteCSV(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// parseCSV reads a figure CSV: '#' comment lines, a header, then rows. The
// figures hold numbers only, so no cell is quoted.
func parseCSV(b []byte) ([]map[string]string, error) {
	var header []string
	var rows []map[string]string
	for _, line := range strings.Split(strings.TrimRight(string(b), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		cells := strings.Split(line, ",")
		if header == nil {
			header = cells
			continue
		}
		if len(cells) != len(header) {
			return nil, fmt.Errorf("row %q has %d cells for %d columns", line, len(cells), len(header))
		}
		row := make(map[string]string, len(cells))
		for i, c := range cells {
			row[header[i]] = c
		}
		rows = append(rows, row)
	}
	return rows, nil
}
