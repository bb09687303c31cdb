package ecocloud

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/rng"
	"repro/internal/trace"
)

const kernelSeed = 99

// draws reports how many 64-bit values src has consumed since it was built
// as rng.New(kernelSeed), by stepping a reference stream until it matches.
func draws(t *testing.T, src *rng.Source) int {
	t.Helper()
	ref := rng.New(kernelSeed)
	for n := 0; n <= 8; n++ {
		if ref.State() == src.State() {
			return n
		}
		ref.Uint64()
	}
	t.Fatal("stream is more than 8 draws past its seed")
	return -1
}

func TestAcceptFeasibleAtExactlyTa(t *testing.T) {
	f := mustAssign(t, 0.75, 3)
	const u, load = 0.5, 0.25 // u + load == Ta exactly in binary

	src := rng.New(kernelSeed)
	if !f.Accept(src, f.Ta, u, load, true) {
		t.Fatal("in-grace server rejected a VM that fills it exactly to Ta")
	}
	if n := draws(t, src); n != 0 {
		t.Fatalf("grace acceptance consumed %d draws, want 0", n)
	}

	src = rng.New(kernelSeed)
	got := f.Accept(src, f.Ta, u, load, false)
	if want := rng.New(kernelSeed).Bernoulli(f.Eval(u)); got != want {
		t.Fatalf("trial at exactly Ta = %v, reference stream says %v", got, want)
	}
	if n := draws(t, src); n != 1 {
		t.Fatalf("trial at exactly Ta consumed %d draws, want 1", n)
	}

	if f.Accept(rng.New(kernelSeed), f.Ta, u, load+1e-9, true) {
		t.Fatal("in-grace server accepted a VM that overshoots Ta")
	}
}

func TestAcceptGraceDrawsNothing(t *testing.T) {
	f := mustAssign(t, 0.9, 3)
	// u = 0 has fa(u) = 0: outside grace the server could never accept.
	for _, u := range []float64{0, 0.3, 0.6} {
		src := rng.New(kernelSeed)
		if !f.Accept(src, f.Ta, u, 0.1, true) {
			t.Errorf("u=%v: in-grace server rejected a feasible VM", u)
		}
		if n := draws(t, src); n != 0 {
			t.Errorf("u=%v: grace acceptance consumed %d draws", u, n)
		}
	}
}

func TestAcceptOverrideEqualToTaMatchesPlainRound(t *testing.T) {
	f := mustAssign(t, 0.9, 3)
	base := mustAssign(t, 0.95, 3) // reaches Ta = 0.9 only as an override
	for _, u := range []float64{0.2, 0.45, 0.6, 0.7, 0.85} {
		a, b := rng.New(kernelSeed), rng.New(kernelSeed)
		for i := 0; i < 4; i++ {
			if x, y := f.Accept(a, 0.9, u, 0.01, false), base.Accept(b, 0.9, u, 0.01, false); x != y {
				t.Fatalf("u=%v trial %d: plain round %v, override %v", u, i, x, y)
			}
		}
		if a.State() != b.State() {
			t.Fatalf("u=%v: plain round and override consumed different draws", u)
		}
	}
}

func TestAcceptRejectsInvalidRoundTa(t *testing.T) {
	f := mustAssign(t, 0.9, 3)
	for _, ta := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.5, 1.5} {
		for _, grace := range []bool{true, false} {
			src := rng.New(kernelSeed)
			if f.Accept(src, ta, 0.3, 0.05, grace) {
				t.Errorf("Ta=%v grace=%v: accepted", ta, grace)
			}
			if n := draws(t, src); n != 0 {
				t.Errorf("Ta=%v grace=%v: consumed %d draws", ta, grace, n)
			}
		}
	}
}

func TestTightenedTa(t *testing.T) {
	if got := TightenedTa(0.9, 0.97, 0.9); got != 0.9*0.97 {
		t.Fatalf("TightenedTa(0.9, 0.97, 0.9) = %v", got)
	}
	if got := TightenedTa(0.9, 1.2, 0.9); got != 0.9 {
		t.Fatalf("overloaded source: Ta' = %v, want the configured Ta", got)
	}
}

var testBand = Band{Tl: 0.5, Th: 0.95, Alpha: 0.25, Beta: 0.25}

func TestScanLowBlockedDrawsNothing(t *testing.T) {
	// A server in grace or in its cooldown is not allowed a low request.
	src := rng.New(kernelSeed)
	if kind := testBand.Scan(src, 0.2, false); kind != "" {
		t.Fatalf("blocked low trial returned %q", kind)
	}
	if n := draws(t, src); n != 0 {
		t.Fatalf("blocked low trial consumed %d draws", n)
	}

	src = rng.New(kernelSeed)
	want := ""
	if rng.New(kernelSeed).Bernoulli(MigrateLowProb(0.2, testBand.Tl, testBand.Alpha)) {
		want = cluster.MigrationLow
	}
	if kind := testBand.Scan(src, 0.2, true); kind != want {
		t.Fatalf("allowed low trial = %q, reference stream says %q", kind, want)
	}
	if n := draws(t, src); n != 1 {
		t.Fatalf("allowed low trial consumed %d draws, want 1", n)
	}
}

func TestScanInsideBandDrawsNothing(t *testing.T) {
	for _, u := range []float64{0.5, 0.7, 0.95} {
		src := rng.New(kernelSeed)
		if kind := testBand.Scan(src, u, true); kind != "" {
			t.Errorf("u=%v inside the band returned %q", u, kind)
		}
		if n := draws(t, src); n != 0 {
			t.Errorf("u=%v inside the band consumed %d draws", u, n)
		}
	}
}

func TestScanHighIgnoresGrace(t *testing.T) {
	const u = 0.96 // f_h(u) is strictly inside (0,1), so the trial draws
	var want string
	if rng.New(kernelSeed).Bernoulli(MigrateHighProb(u, testBand.Th, testBand.Beta)) {
		want = cluster.MigrationHigh
	}
	for _, lowOK := range []bool{true, false} {
		src := rng.New(kernelSeed)
		if kind := testBand.Scan(src, u, lowOK); kind != want {
			t.Errorf("lowOK=%v: high trial = %q, reference stream says %q", lowOK, kind, want)
		}
		if n := draws(t, src); n != 1 {
			t.Errorf("lowOK=%v: high trial consumed %d draws, want 1", lowOK, n)
		}
	}
}

func vmsWithDemand(mhz ...float64) []*trace.VM {
	vms := make([]*trace.VM, len(mhz))
	for i, d := range mhz {
		vms[i] = constVM(i, d)
	}
	return vms
}

func TestPickHighFallsBackToFirstLargest(t *testing.T) {
	vms := vmsWithDemand(100, 300, 300, 200)
	// At u = 1.2 on 4000 MHz the overload is (1.2-0.95)·4000 = 1000 MHz,
	// more than any single VM demands.
	src := rng.New(kernelSeed)
	vm := testBand.Pick(src, cluster.MigrationHigh, vms, 0, 1.2, 4000)
	if vm != vms[1] {
		t.Fatalf("fallback picked VM %v, want the first of the two largest (ID 1)", vm)
	}
	if n := draws(t, src); n != 0 {
		t.Fatalf("fallback consumed %d draws", n)
	}
}

func TestPickHighUniformAmongSufficient(t *testing.T) {
	vms := vmsWithDemand(50, 300, 120, 400)
	const u, capMHz = 1.0, 2000 // needs (1.0-0.95)·2000 = 100 MHz
	big := []*trace.VM{vms[1], vms[2], vms[3]}
	src := rng.New(kernelSeed)
	vm := testBand.Pick(src, cluster.MigrationHigh, vms, 0, u, capMHz)
	if want := big[rng.New(kernelSeed).Intn(len(big))]; vm != want {
		t.Fatalf("picked VM %d, reference stream says VM %d", vm.ID, want.ID)
	}
	if n := draws(t, src); n != 1 {
		t.Fatalf("high pick consumed %d draws, want 1", n)
	}
}

func TestPickLowUniform(t *testing.T) {
	vms := vmsWithDemand(10, 20, 30)
	src := rng.New(kernelSeed)
	vm := testBand.Pick(src, cluster.MigrationLow, vms, time.Hour, 0.2, 2000)
	if want := vms[rng.New(kernelSeed).Intn(len(vms))]; vm != want {
		t.Fatalf("picked VM %d, reference stream says VM %d", vm.ID, want.ID)
	}
}

func TestPickEmptyReturnsNil(t *testing.T) {
	for _, kind := range []string{cluster.MigrationLow, cluster.MigrationHigh} {
		src := rng.New(kernelSeed)
		if vm := testBand.Pick(src, kind, nil, 0, 1.0, 2000); vm != nil {
			t.Errorf("%s pick from no candidates returned VM %d", kind, vm.ID)
		}
		if n := draws(t, src); n != 0 {
			t.Errorf("%s pick from no candidates consumed %d draws", kind, n)
		}
	}
}

// Every range check must reject NaN and the infinities: written as
// x <= 0 || x > 1 they would let NaN through.
func TestNonFiniteThresholdsRejected(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"Ta", func(c *Config, x float64) { c.Ta = x }},
		{"P", func(c *Config, x float64) { c.P = x }},
		{"Tl", func(c *Config, x float64) { c.Tl = x }},
		{"Th", func(c *Config, x float64) { c.Th = x }},
		{"Alpha", func(c *Config, x float64) { c.Alpha = x }},
		{"Beta", func(c *Config, x float64) { c.Beta = x }},
		{"HighMigTaFactor", func(c *Config, x float64) { c.HighMigTaFactor = x }},
		{"RAM.Ta", func(c *Config, x float64) { c.RAM.Ta = x }},
		{"RAM.P", func(c *Config, x float64) { c.RAM.P = x }},
	}
	for _, f := range fields {
		for _, x := range bad {
			cfg := DefaultConfig()
			cfg.RAM = DefaultRAMConfig()
			f.set(&cfg, x)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Config.Validate accepted %s = %v", f.name, x)
			}
		}
	}
	f := mustAssign(t, 0.9, 3)
	for _, x := range bad {
		if _, err := NewAssignProb(x, 3); err == nil {
			t.Errorf("NewAssignProb(%v, 3) accepted", x)
		}
		if _, err := NewAssignProb(0.9, x); err == nil {
			t.Errorf("NewAssignProb(0.9, %v) accepted", x)
		}
		if _, err := f.WithThreshold(x); err == nil {
			t.Errorf("WithThreshold(%v) accepted", x)
		}
	}
}

// activeFleet returns n servers, all active except those listed in asleep.
func activeFleet(t *testing.T, n int, asleep ...int) *dc.DataCenter {
	t.Helper()
	d := dc.New(dc.UniformFleet(n, 6, 2000))
	for _, s := range d.Servers {
		if !slices.Contains(asleep, s.ID) {
			if err := d.Activate(s, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

func ids(servers []*dc.Server) []int {
	out := make([]int, len(servers))
	for i, s := range servers {
		out[i] = s.ID
	}
	return out
}

func TestInviteesGroupsRotate(t *testing.T) {
	d := activeFleet(t, 8, 6)
	src := rng.New(kernelSeed)
	next := 0
	want := [][]int{{0, 4}, {1, 5}, {2}, {3, 7}, {0, 4}}
	for round, w := range want {
		if got := ids(Invitees(d.Servers, -1, 4, 0, &next, src)); !slices.Equal(got, w) {
			t.Fatalf("round %d invited %v, want %v", round, got, w)
		}
		if next != round+1 {
			t.Fatalf("round %d left the group counter at %d", round, next)
		}
	}
	if n := draws(t, src); n != 0 {
		t.Fatalf("group rounds consumed %d manager draws", n)
	}
	// One group is no grouping: every active server, counter untouched.
	next = 0
	if got := Invitees(d.Servers, -1, 1, 0, &next, src); len(got) != 7 || next != 0 {
		t.Fatalf("groups=1 invited %v and moved the counter to %d", ids(got), next)
	}
}

func TestInviteesSubsetCostsOnePerm(t *testing.T) {
	d := activeFleet(t, 12, 2, 9)
	mgr, ref := rng.New(kernelSeed), rng.New(kernelSeed)
	next := 0
	got := Invitees(d.Servers, -1, 0, 3, &next, mgr)

	candidates := []int{0, 1, 3, 4, 5, 6, 7, 8, 10, 11}
	perm := ref.Perm(len(candidates))
	want := []int{candidates[perm[0]], candidates[perm[1]], candidates[perm[2]]}
	if !slices.Equal(ids(got), want) {
		t.Fatalf("subset = %v, want %v in Perm order", ids(got), want)
	}
	if mgr.State() != ref.State() {
		t.Fatal("subset sampling consumed other than exactly one Perm")
	}
	// No more candidates than the subset size: all of them, no draw.
	src := rng.New(kernelSeed)
	if got := Invitees(d.Servers, -1, 0, 10, &next, src); len(got) != 10 {
		t.Fatalf("subset of 10 over 10 candidates invited %d", len(got))
	}
	if n := draws(t, src); n != 0 {
		t.Fatalf("unsampled subset consumed %d draws", n)
	}
}

func TestInviteesExcludeBeforeGroupsAndSubset(t *testing.T) {
	d := activeFleet(t, 8)
	next := 0
	// Excluded first, then grouped: the group loses only the excluded server.
	if got := ids(Invitees(d.Servers, 4, 4, 0, &next, rng.New(kernelSeed))); !slices.Equal(got, []int{0}) {
		t.Fatalf("group 0 minus server 4 = %v, want [0]", got)
	}
	// Excluded first, then sampled: four candidates minus the excluded one
	// fit a subset of three, so nothing is drawn.
	d = activeFleet(t, 4)
	src := rng.New(kernelSeed)
	if got := ids(Invitees(d.Servers, 2, 0, 3, &next, src)); !slices.Equal(got, []int{0, 1, 3}) {
		t.Fatalf("subset after excluding server 2 = %v, want [0 1 3]", got)
	}
	if n := draws(t, src); n != 0 {
		t.Fatalf("subset after exclusion consumed %d draws; exclusion must come first", n)
	}
}

func TestInviteesNoCandidates(t *testing.T) {
	next := 0
	src := rng.New(kernelSeed)
	asleep := activeFleet(t, 3, 0, 1, 2)
	if got := Invitees(asleep.Servers, -1, 0, 2, &next, src); len(got) != 0 {
		t.Fatalf("hibernated fleet invited %v", ids(got))
	}
	alone := activeFleet(t, 3, 1, 2)
	if got := Invitees(alone.Servers, 0, 2, 1, &next, src); len(got) != 0 {
		t.Fatalf("fleet whose only active server is excluded invited %v", ids(got))
	}
	if got := Invitees(nil, -1, 0, 0, &next, src); len(got) != 0 {
		t.Fatalf("empty fleet invited %v", ids(got))
	}
	if n := draws(t, src); n != 0 {
		t.Fatalf("empty rounds consumed %d draws", n)
	}
}

// mustMulti is the §V trial the tests below share: CPU under Ta = 0.9 and
// RAM under Ta = 0.8.
func mustMulti(t *testing.T, s MultiStrategy) MultiTrial {
	t.Helper()
	return MultiTrial{CPU: mustAssign(t, 0.9, 3), RAM: mustAssign(t, 0.8, 2), Strategy: s}
}

// The §V configuration is validated when the policy is built.
func TestNewMultiResourceValidation(t *testing.T) {
	bad := []RAMConfig{
		{Ta: 0, P: 3},
		{Ta: 0.9, P: 0},
		{Ta: 0.9, P: 3, Strategy: MultiStrategy(7)},
	}
	for _, ram := range bad {
		cfg := DefaultConfig()
		cfg.RAM = &ram
		if _, err := New(cfg, 1); err == nil {
			t.Errorf("RAM config %+v accepted", ram)
		}
	}
	cfg := DefaultConfig()
	cfg.RAM = DefaultRAMConfig()
	if _, err := New(cfg, 1); err != nil {
		t.Fatalf("default RAM config rejected: %v", err)
	}
}

func TestTrialAllRejectsWhenAnyResourceFull(t *testing.T) {
	for _, s := range []MultiStrategy{AllTrials, CriticalPlusConstraints} {
		m := mustMulti(t, s)
		src := rng.New(kernelSeed)
		// RAM would end above its threshold, then CPU would: rejected
		// before any draw, grace or not.
		if m.Accept(src, 0.9, 0.5, 0.1, 0.75, 0.1, true) || m.Accept(src, 0.9, 0.85, 0.1, 0.2, 0.1, false) {
			t.Fatalf("strategy %d accepted a VM that does not fit", s)
		}
		if n := draws(t, src); n != 0 {
			t.Fatalf("strategy %d: infeasible rounds consumed %d draws", s, n)
		}
		// A feasible VM in grace is accepted without a draw.
		if !m.Accept(src, 0.9, 0, 0.1, 0, 0.1, true) {
			t.Fatalf("strategy %d: in-grace server rejected a feasible VM", s)
		}
		if n := draws(t, src); n != 0 {
			t.Fatalf("strategy %d: grace acceptance consumed %d draws", s, n)
		}
	}
}

func TestTrialAllEmpiricalRateMatchesProduct(t *testing.T) {
	m := mustMulti(t, AllTrials)
	src := rng.New(3)
	const u, ramU = 0.6, 0.5
	want := m.CPU.Eval(u) * m.RAM.Eval(ramU)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if m.Accept(src, m.CPU.Ta, u, 0.01, ramU, 0.01, false) {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical rate %v, closed form %v", got, want)
	}
}

// Critical draws on the resource with the higher utilization relative to
// its threshold, and on CPU when the two tie.
func TestCriticalPicksHighestRelativeUtilization(t *testing.T) {
	m := MultiTrial{CPU: mustAssign(t, 0.75, 3), RAM: mustAssign(t, 0.5, 2), Strategy: CriticalPlusConstraints}
	cases := []struct {
		name    string
		u, ramU float64
		ram     bool // the trial runs on RAM
	}{
		{"ram critical", 0.3, 0.3, true}, // 0.4 vs 0.6
		{"cpu critical", 0.6, 0.2, false},
		{"tie", 0.375, 0.25, false}, // both exactly 0.5 in binary
	}
	for _, c := range cases {
		p := m.CPU.Eval(c.u)
		if c.ram {
			p = m.RAM.Eval(c.ramU)
		}
		src, ref := rng.New(kernelSeed), rng.New(kernelSeed)
		for i := 0; i < 64; i++ {
			if got, want := m.Accept(src, m.CPU.Ta, c.u, 0.01, c.ramU, 0.01, false), ref.Bernoulli(p); got != want {
				t.Fatalf("%s: trial %d = %v, reference stream on the critical resource says %v", c.name, i, got, want)
			}
		}
	}
	if m.CPU.Eval(0.375) == m.RAM.Eval(0.25) {
		t.Fatal("tie case cannot tell the resources apart")
	}
}

func TestTrialCriticalConstraints(t *testing.T) {
	m := mustMulti(t, CriticalPlusConstraints)
	src := rng.New(5)
	// CPU is critical (0.8/0.9); RAM would end above its threshold: the
	// non-critical resource is still a hard constraint.
	for i := 0; i < 200; i++ {
		if m.Accept(src, 0.9, 0.8, 0.05, 0.7, 0.11, false) {
			t.Fatal("accepted despite a violated constraint")
		}
	}
}

func TestTrialCriticalUsesSingleTrial(t *testing.T) {
	m := mustMulti(t, CriticalPlusConstraints)
	// RAM critical at 0.6/0.8; CPU low (0.2) would often fail its own trial
	// under AllTrials, but strategy 2 ignores CPU's probability entirely.
	const u, ramU = 0.2, 0.6
	want := m.RAM.Eval(ramU)
	src := rng.New(kernelSeed)
	m.Accept(src, m.CPU.Ta, u, 0.01, ramU, 0.01, false)
	if n := draws(t, src); n != 1 {
		t.Fatalf("critical trial consumed %d draws, want 1", n)
	}
	const n = 200000
	hits := 0
	src = rng.New(7)
	for i := 0; i < n; i++ {
		if m.Accept(src, m.CPU.Ta, u, 0.01, ramU, 0.01, false) {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-want) > 0.01 {
		t.Fatalf("empirical rate %v, want fa_ram(0.6) = %v", got, want)
	}
	if all := m.CPU.Eval(u) * m.RAM.Eval(ramU); all >= want {
		t.Fatalf("AllTrials prob %v not below critical-only %v", all, want)
	}
}

// wakeFleet is a sleeping fleet for the Wake tests: candidate IDs in order
// and their capacities in MHz.
type wakeFleet []float64

func (f wakeFleet) ids() []int {
	ids := make([]int, len(f))
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func (f wakeFleet) capMHz(id int) float64 { return f[id] }

// fitsUnder is the CPU fit the engines use: demand under ta of capacity.
func (f wakeFleet) fitsUnder(demand, ta float64) func(int) bool {
	return func(id int) bool { return demand <= ta*f[id] }
}

func TestWakeUniformAmongFitting(t *testing.T) {
	f := wakeFleet{8000, 2000, 12000, 4000, 12000}
	// 3000 MHz under Ta = 0.9 fits servers 0, 2 and 4 only.
	fitting := []int{0, 2, 4}
	mgr, ref := rng.New(kernelSeed), rng.New(kernelSeed)
	id, fit, ok := Wake(mgr, f.ids(), f.capMHz, f.fitsUnder(3000, 0.9))
	if !ok || !fit {
		t.Fatalf("Wake = (%d, fit %v, ok %v), want a fitting server", id, fit, ok)
	}
	if want := fitting[ref.Intn(len(fitting))]; id != want {
		t.Fatalf("woke server %d, reference stream says %d", id, want)
	}
	if mgr.State() != ref.State() {
		t.Fatal("a fitting wake consumed other than exactly one Intn")
	}
	// A fit beats a larger server that does not fit.
	id, fit, _ = Wake(rng.New(kernelSeed), f.ids(), f.capMHz, func(id int) bool { return id == 1 })
	if id != 1 || !fit {
		t.Fatalf("only server 1 fits, Wake = (%d, fit %v)", id, fit)
	}
}

func TestWakeNoFitFallsBackToFirstLargest(t *testing.T) {
	f := wakeFleet{8000, 12000, 4000, 12000}
	src := rng.New(kernelSeed)
	id, fit, ok := Wake(src, f.ids(), f.capMHz, f.fitsUnder(20000, 0.9))
	if !ok || fit || id != 1 {
		t.Fatalf("Wake = (%d, fit %v, ok %v), want the first of the largest (1), unfit", id, fit, ok)
	}
	if n := draws(t, src); n != 0 {
		t.Fatalf("unfit wake consumed %d draws", n)
	}
	// The candidates, not the fleet, decide: without server 1, server 3 is
	// the largest.
	if id, _, _ := Wake(src, []int{0, 2, 3}, f.capMHz, f.fitsUnder(20000, 0.9)); id != 3 {
		t.Fatalf("largest of servers 0, 2, 3 = %d, want 3", id)
	}
}

func TestWakeNoCandidates(t *testing.T) {
	src := rng.New(kernelSeed)
	id, fit, ok := Wake(src, nil, wakeFleet{}.capMHz, func(int) bool { return true })
	if ok || fit || id != 0 {
		t.Fatalf("Wake over no candidates = (%d, fit %v, ok %v), want none", id, fit, ok)
	}
	if n := draws(t, src); n != 0 {
		t.Fatalf("empty wake consumed %d draws", n)
	}
}
