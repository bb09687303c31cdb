package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// benchmarkFile is the part of ../BENCHMARK.json this program must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	// ecod-day is left out of BENCHMARK.json (see README.md); every listed
	// workload must exist with the same reason.
	for _, bw := range bf.Workloads {
		w, err := findWorkload(bw.Name, false)
		if err != nil {
			t.Error(err)
		} else if bw.Why != w.why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the program %q", bw.Name, bw.Why, w.why)
		}
	}
	if len(bf.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads", len(bf.Workloads))
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	setupBound := 0.0
	for i, d := range endToEnd {
		m := bf.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has bound %v, above setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := bf.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
	}
}

// runSmall runs one shrunk workload for a single cycle and returns the
// printed report and the parsed result line.
func runSmall(t *testing.T, name string, seed uint64, trace bool, golden string) (string, result) {
	t.Helper()
	var out bytes.Buffer
	o := options{workload: name, seed: seed, seconds: 1e-9, trace: trace, golden: golden, spans: t.TempDir(), small: true}
	if err := run(o, &out); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", name, err, out.String())
	}
	return out.String(), res
}

// TestShrunkWorkloadsPrintEveryMetric runs every workload shrunk, untraced
// and traced, and checks each metric is printed by name with its unit and
// carried in the result line.
func TestShrunkWorkloadsPrintEveryMetric(t *testing.T) {
	for _, w := range workloads(true) {
		for _, trace := range []bool{false, true} {
			report, res := runSmall(t, w.name, goldenSeed+1, trace, t.TempDir())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: %+v\n%s", w.name, trace, res, report)
			}
			defs, prefix := endToEnd, "metric "
			if trace {
				defs, prefix = perLayer, "layer "
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics in the result, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
				if !strings.Contains(report, prefix+d.name+" = ") {
					t.Errorf("%s trace=%v: report does not print %s", w.name, trace, d.name)
				}
			}
			if !trace && !strings.Contains(report, "metric failed_frac = 0 frac") {
				t.Errorf("%s: report does not print failed_frac", w.name)
			}
		}
	}
}

// TestWrongExpectedOutputIsCounted gives the golden check wrong and missing
// expected figures: each run must be counted as failed, and the benchmark
// must still print its result.
func TestWrongExpectedOutputIsCounted(t *testing.T) {
	wrong := t.TempDir()
	for _, id := range []string{"fig6", "fig8", "fig9", "fig10", "fig11", "protocolday"} {
		if err := os.WriteFile(filepath.Join(wrong, id+".csv"), []byte("# "+id+"\nx\n1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	parscale := "servers,vms,energy_kwh,mean_active_servers,overload_pct,migrations,parity_ok\n300,3000,1,300,0,0,1\n"
	if err := os.WriteFile(filepath.Join(wrong, "parscale.csv"), []byte(parscale), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"paper-day", "wire-day", "fleet-100k"} {
		for _, dir := range []string{wrong, t.TempDir()} {
			report, res := runSmall(t, name, goldenSeed, false, dir)
			if res.Correct || res.Failed != res.Attempted {
				t.Errorf("%s with expected output in %s: %+v\n%s", name, dir, res, report)
			}
			if !strings.Contains(report, "FAILED: golden") {
				t.Errorf("%s: report does not name the golden failure\n%s", name, report)
			}
			if !strings.Contains(report, "metric failed_frac = 1 frac") {
				t.Errorf("%s: report does not print failed_frac = 1\n%s", name, report)
			}
		}
	}
}

// TestRepeatsMustMatch checks that a run whose output or exact counts
// differ from the first run of its seed fails.
func TestRepeatsMustMatch(t *testing.T) {
	fig := func(v float64) func() []*experiments.Figure {
		return func() []*experiments.Figure {
			f := &experiments.Figure{ID: "f", Columns: []string{"v"}}
			f.Add(v)
			return []*experiments.Figure{f}
		}
	}
	b := &bench{opts: options{seed: goldenSeed + 1}, w: &workload{}}
	first := &outcome{render: fig(1), counts: map[string]int64{"sim.events": 10}}
	if err := b.check(first); err != nil {
		t.Fatal(err)
	}
	if err := b.check(&outcome{render: fig(1), counts: map[string]int64{"sim.events": 10, "dc.cache_hits": 3}}); err != nil {
		t.Fatalf("identical repeat: %v", err)
	}
	if err := b.check(&outcome{render: fig(2), counts: map[string]int64{"sim.events": 10}}); err == nil {
		t.Error("a different output passed")
	}
	if err := b.check(&outcome{render: fig(1), counts: map[string]int64{"dc.cache_hits": 4}}); err == nil {
		t.Error("a different count passed")
	}
}

// TestPaperDayMatchesGolden runs the full paper-day at the golden seed
// against the checked-in figures.
func TestPaperDayMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale run")
	}
	var out bytes.Buffer
	o := options{workload: "paper-day", seed: goldenSeed, seconds: 1e-9, golden: filepath.Join("..", "out"), spans: t.TempDir()}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":true`) {
		t.Fatalf("paper-day at seed %d does not reproduce out/:\n%s", goldenSeed, out.String())
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "paper-day", "--trace", "2"},
		{"--workload", "paper-day", "--seconds", "0"},
		{"--workload", "no-such-workload"},
	} {
		var out, errOut bytes.Buffer
		if code := realMain(args, &out, &errOut); code == 0 || strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
