// Command perfbench is the repository's benchmark. One process runs one
// workload as a closed loop, one run at a time, for a given number of
// seconds, checks every run's output, and prints the end-to-end metrics;
// with --trace 1 it instead alternates untraced and traced runs and prints
// the per-layer metrics, and writes the traced runs' spans to a file.
//
// Run it from the root of the repository, where it finds the checked-in
// figures under out/:
//
//	bash perfbench/run.sh --workload paper-day --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":31,"failed":0,"metrics":{"cpu_s":{"value":0.31,"unit":"s"},...}}
//
// BENCHMARK.json at the root of the repository lists the workloads and the
// metrics with their units; the self-test holds this program to it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	golden   string // directory of the checked-in figure CSVs
	spans    string // directory the traced pass writes its spans into
	small    bool   // shrunk workloads, for the self-test
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper-day, wire-day, fleet-100k or ecod-day")
	fs.Uint64Var(&o.seed, "seed", goldenSeed, "workload seed; the checked-in figures are compared at seed 1")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to keep starting runs")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	fs.StringVar(&o.golden, "golden", "out", "directory of the checked-in figure CSVs")
	fs.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "spans"), "directory the traced pass writes its spans into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace %d: want 0 or 1\n", traceFlag)
		return 2
	}
	if !(o.seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: --seconds %v: want a positive number\n", o.seconds)
		return 2
	}
	o.trace = traceFlag == 1
	if err := run(o, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// run measures the workload and prints the report, ending with the JSON
// result line.
func run(o options, stdout io.Writer) error {
	w, err := findWorkload(o.workload, o.small)
	if err != nil {
		return err
	}
	b := &bench{opts: o, w: w, log: stdout}
	h := hostInfo()
	hostJSON, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(stdout, "host %s\n", hostJSON)
	if o.trace {
		b.tr = newTracer()
	}
	b.measure()
	res := b.result()
	if o.trace {
		path, err := b.writeSpans(hostJSON)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(b.tr.spans), path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// host is the fingerprint printed with every result.
type host struct {
	NumCPU         int    `json:"num_cpu"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	GOOS           string `json:"goos"`
	GOARCH         string `json:"goarch"`
	ParWorkers     int    `json:"par_workers"`
	Oversubscribed bool   `json:"oversubscribed"`
}

func hostInfo() host {
	return host{
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		ParWorkers:     parWorkers,
		Oversubscribed: runtime.NumCPU() < parWorkers,
	}
}

// Run variants. Untraced runs give the end-to-end metrics; the traced pass
// alternates them with traced runs, and on a workload that runs with
// telemetry on, with runs that have the recorder off.
const (
	warmup = "warm-up"
	plain  = "untraced"
	traced = "traced"
	obsOff = "obs-off"
)

// iteration is one set-up plus run.
type iteration struct {
	variant  string
	setupS   float64
	runS     float64
	cpuS     float64
	peakHeap uint64
	// Go runtime work over the run.
	allocBytes, allocs, gcCycles uint64
	layers                       map[string]float64 // traced only
	err                          error
}

type bench struct {
	opts options
	w    *workload
	tr   *tracer
	log  io.Writer

	iters []iteration
	// The first checked run's output and counts; every later run of the
	// seed must repeat them.
	refFigures [][]byte
	refCounts  map[string]int64
}

// measure runs cycles of the variants until the time is up, finishing the
// cycle it is in, so every variant runs at least once and equally often.
func (b *bench) measure() {
	variants := []string{plain}
	if b.opts.trace {
		variants = append(variants, traced)
		if b.w.recorderOn {
			variants = append(variants, obsOff)
		}
	}
	// The first run of a process is slower (the heap grows to its working
	// size, the GC pacer settles), so it is a warm-up: checked, but left out
	// of the timings.
	b.record(b.iterate(warmup))
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start).Seconds() < b.opts.seconds; cycle++ {
		for _, v := range variants {
			b.record(b.iterate(v))
		}
	}
}

func (b *bench) record(it iteration) {
	b.iters = append(b.iters, it)
	status := "ok"
	if it.err != nil {
		status = "FAILED: " + it.err.Error()
	}
	fmt.Fprintf(b.log, "run %d %s: setup %.4f s, run %.4f s, cpu %.4f s, peak heap %.1f MB, %s\n",
		len(b.iters), it.variant, it.setupS, it.runS, it.cpuS, float64(it.peakHeap)/1e6, status)
}

// iterate sets up and runs the workload once and checks the output. A
// failure of any kind, a panic included, is recorded on the iteration.
func (b *bench) iterate(variant string) iteration {
	it := iteration{variant: variant}
	e := &env{seed: b.opts.seed, obsOff: variant == obsOff}
	if variant == traced {
		b.tr.iter = len(b.iters)
		e.tr = b.tr
		e.layers = map[string]float64{}
	}

	runtime.GC()
	var runIt func() (*outcome, error)
	start := time.Now()
	err := catch(func() (err error) {
		runIt, err = b.w.setup(e)
		return err
	})
	it.setupS = time.Since(start).Seconds()
	if err != nil {
		it.err = fmt.Errorf("setup: %w", err)
		return it
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	hw := watchHeap()
	cpu0 := cpuSeconds()
	var out *outcome
	start = time.Now()
	err = catch(func() (err error) {
		out, err = runIt()
		return err
	})
	it.runS = time.Since(start).Seconds()
	it.cpuS = cpuSeconds() - cpu0
	it.peakHeap = hw.stop()
	runtime.ReadMemStats(&m1)
	it.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	it.allocs = m1.Mallocs - m0.Mallocs
	it.gcCycles = uint64(m1.NumGC - m0.NumGC)
	if err == nil {
		err = catch(func() error {
			if err := b.check(out); err != nil {
				return err
			}
			if variant == traced {
				out.layers(e.layers)
				it.layers = e.layers
			}
			return nil
		})
	}
	it.err = err
	return it
}

// catch runs f and turns a panic into an error, so one bad run is counted
// as failed instead of ending the benchmark.
func catch(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// check applies the output checks: the workload's own, the checked-in
// figures at the golden seed, and at every seed that the run repeats the
// first run's output and exact counts.
func (b *bench) check(out *outcome) error {
	if out.check != nil {
		if err := out.check(); err != nil {
			return err
		}
	}
	figures := out.render()
	if b.opts.seed == goldenSeed && b.w.golden != nil {
		if err := b.w.golden(figures, b.opts.golden); err != nil {
			return err
		}
	}
	figs := make([][]byte, len(figures))
	for i, f := range figures {
		var err error
		if figs[i], err = figureBytes(f); err != nil {
			return err
		}
	}
	if b.refFigures == nil {
		b.refFigures, b.refCounts = figs, map[string]int64{}
	} else {
		for i := range figs {
			if !bytes.Equal(figs[i], b.refFigures[i]) {
				return fmt.Errorf("output %s differs from the first run of seed %d", figures[i].ID, b.opts.seed)
			}
		}
	}
	// Counts only some variants report (sim.events of a cluster.Run is read
	// from the traced pass's recorder) are compared from their first
	// appearance on.
	names := make([]string, 0, len(out.counts))
	for name := range out.counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got := out.counts[name]
		want, ok := b.refCounts[name]
		if !ok {
			b.refCounts[name] = got
			continue
		}
		if got != want {
			return fmt.Errorf("count %s = %d, first run of seed %d had %d", name, got, b.opts.seed, want)
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result folds the iterations into the reported metrics, printing each by
// name with its unit. Times are medians over the runs that passed.
func (b *bench) result() result {
	res := result{Attempted: len(b.iters), Metrics: map[string]metricValue{}}
	byVariant := map[string][]iteration{}
	for _, it := range b.iters {
		if it.err != nil {
			res.Failed++
			continue
		}
		byVariant[it.variant] = append(byVariant[it.variant], it)
	}
	res.Correct = res.Failed == 0
	runs := byVariant[plain]
	med := func(its []iteration, f func(iteration) float64) float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = f(it)
		}
		return median(xs)
	}
	runWall := func(its []iteration) float64 { return med(its, func(it iteration) float64 { return it.runS }) }

	values := map[string]float64{}
	defs := endToEnd
	if !b.opts.trace {
		values["server_h_per_s"] = med(runs, func(it iteration) float64 { return ratio(b.w.serverHours, it.runS) })
		values["setup_s"] = med(runs, func(it iteration) float64 { return it.setupS })
		values["cpu_s"] = med(runs, func(it iteration) float64 { return it.cpuS })
		values["peak_heap_mb"] = med(runs, func(it iteration) float64 { return float64(it.peakHeap) / 1e6 })
		fmt.Fprintf(b.log, "metric failed_frac = %g frac (%d of %d runs)\n",
			ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	} else {
		defs = perLayer
		tracedRuns := byVariant[traced]
		for _, d := range perLayer {
			values[d.name] = med(tracedRuns, func(it iteration) float64 { return it.layers[d.name] })
		}
		values["go.alloc_mb"] = med(runs, func(it iteration) float64 { return float64(it.allocBytes) / 1e6 })
		values["go.allocs"] = med(runs, func(it iteration) float64 { return float64(it.allocs) })
		values["go.gc_cycles"] = med(runs, func(it iteration) float64 { return float64(it.gcCycles) })
		values["par.cpu_per_wall"] = med(runs, func(it iteration) float64 { return ratio(it.cpuS, it.runS) })
		values["bench.trace_overhead_frac"] = ratio(runWall(tracedRuns), runWall(runs)) - 1
		if b.w.recorderOn {
			values["obs.overhead_frac"] = ratio(runWall(runs), runWall(byVariant[obsOff])) - 1
		}
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if b.opts.trace {
			fmt.Fprintf(b.log, "layer %s = %g %s (moves %s)\n", d.name, v, d.unit, d.moves)
		} else {
			fmt.Fprintf(b.log, "metric %s = %g %s\n", d.name, v, d.unit)
		}
	}
	return res
}

// writeSpans writes the traced pass's spans as JSON lines, after one line
// with the host fingerprint, and returns the file's path.
func (b *bench) writeSpans(hostJSON []byte) (string, error) {
	if err := os.MkdirAll(b.opts.spans, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(b.opts.spans, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.opts.seed))
	var buf bytes.Buffer
	buf.Write(hostJSON)
	buf.WriteByte('\n')
	enc := json.NewEncoder(&buf)
	for _, s := range b.tr.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}
