package protocol

import (
	"math"
	"testing"
	"time"

	"repro/internal/dc"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

func constVM(id int, mhz float64) *trace.VM {
	return &trace.VM{ID: id, Start: 0, End: 1000 * time.Hour, Epoch: 1000 * time.Hour, Demand: []float64{mhz}}
}

// fixedConfig removes jitter so latency assertions are exact.
func fixedConfig() Config {
	cfg := DefaultConfig()
	cfg.Latency = netsim.LatencyModel{Base: time.Millisecond}
	return cfg
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Ta = 0 },
		func(c *Config) { c.P = -1 },
		func(c *Config) { c.Grace = -time.Second },
		func(c *Config) { c.InviteGroups = -1 },
		func(c *Config) { c.InviteSubset = -1 },
		func(c *Config) { c.SilentReject = true; c.DecisionWindow = 0 },
		func(c *Config) { c.InviteSize = 0 },
		func(c *Config) { c.ReplySize = -1 },
	}
	for i, mutate := range bad {
		cfg := fixedConfig()
		mutate(&cfg)
		if _, err := New(cfg, dc.UniformFleet(2, 6, 2000), 1); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEmptyFleetWakeAssign(t *testing.T) {
	c, err := New(fixedConfig(), dc.UniformFleet(3, 6, 2000), 1)
	if err != nil {
		t.Fatal(err)
	}
	c.PlaceVM(constVM(1, 500))
	c.Engine().Run(0)
	if c.Stats.Placements != 1 || c.Stats.Wakes != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	if c.DC().ActiveCount() != 1 || c.DC().NumPlaced() != 1 {
		t.Fatal("VM not placed on a woken server")
	}
	// One wake+assign message only.
	if c.MessagesSent() != 1 {
		t.Fatalf("messages = %d, want 1", c.MessagesSent())
	}
	// Latency: one message hop.
	if c.Stats.MeanLatency() != time.Millisecond {
		t.Fatalf("latency = %v, want 1ms", c.Stats.MeanLatency())
	}
}

// activateLoaded wakes n servers and loads each to utilization u so they are
// willing acceptors (grace has long expired).
func activateLoaded(t *testing.T, c *Cluster, n int, u float64) {
	t.Helper()
	id := 10_000
	for i := 0; i < n; i++ {
		s := c.DC().Servers[i]
		if err := c.DC().Activate(s, 0); err != nil {
			t.Fatal(err)
		}
		s.SetActivatedAt(-1000 * time.Hour)
		if u > 0 {
			if err := c.DC().Place(constVM(id, u*s.CapacityMHz()), s); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
}

func TestReplyAllRound(t *testing.T) {
	c, err := New(fixedConfig(), dc.UniformFleet(5, 6, 2000), 2)
	if err != nil {
		t.Fatal(err)
	}
	activateLoaded(t, c, 5, 0.675) // fa peak: everyone nearly always accepts
	c.PlaceVM(constVM(1, 100))
	c.Engine().Run(0)
	if c.Stats.Placements != 1 {
		t.Fatalf("placements = %d", c.Stats.Placements)
	}
	// 1 broadcast + 5 replies + 1 assign = 7 wire sends.
	if got := c.MessagesSent(); got != 7 {
		t.Fatalf("messages = %d, want 7", got)
	}
	// invite (1ms) + reply (1ms) + assign (1ms): 3 hops.
	if c.Stats.MeanLatency() != 3*time.Millisecond {
		t.Fatalf("latency = %v, want 3ms", c.Stats.MeanLatency())
	}
	if c.Stats.Wakes != 0 {
		t.Fatalf("wakes = %d", c.Stats.Wakes)
	}
}

func TestSilentRejectSavesMessages(t *testing.T) {
	cfg := fixedConfig()
	cfg.SilentReject = true
	cfg.DecisionWindow = 5 * time.Millisecond
	c, err := New(cfg, dc.UniformFleet(6, 6, 2000), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Five servers active at u=0 out of grace: fa(0)=0, everyone rejects
	// silently; the sixth stays hibernated for the wake path.
	activateLoaded(t, c, 5, 0)
	c.PlaceVM(constVM(1, 100))
	c.Engine().Run(0)
	if c.Stats.Placements != 1 {
		t.Fatalf("placements = %d", c.Stats.Placements)
	}
	// 1 broadcast + 0 replies + 1 wake-assign = 2 wire sends.
	if got := c.MessagesSent(); got != 2 {
		t.Fatalf("messages = %d, want 2", got)
	}
	if c.Stats.Wakes != 1 {
		t.Fatalf("wakes = %d, want 1 (nobody accepted)", c.Stats.Wakes)
	}
	// Latency includes the decision window: window + assign hop.
	want := 5*time.Millisecond + time.Millisecond
	if c.Stats.MeanLatency() != want {
		t.Fatalf("latency = %v, want %v", c.Stats.MeanLatency(), want)
	}
}

func TestGroupsInviteOneGroup(t *testing.T) {
	cfg := fixedConfig()
	cfg.InviteGroups = 4
	c, err := New(cfg, dc.UniformFleet(8, 6, 2000), 4)
	if err != nil {
		t.Fatal(err)
	}
	activateLoaded(t, c, 8, 0.675)
	c.PlaceVM(constVM(1, 100))
	c.Engine().Run(0)
	// Group has 2 servers: 1 broadcast + 2 replies + 1 assign = 4.
	if got := c.MessagesSent(); got != 4 {
		t.Fatalf("messages = %d, want 4", got)
	}
	if c.Stats.Placements != 1 {
		t.Fatalf("placements = %d", c.Stats.Placements)
	}
}

func TestSubsetInviteLimitsFanout(t *testing.T) {
	cfg := fixedConfig()
	cfg.InviteSubset = 3
	c, err := New(cfg, dc.UniformFleet(10, 6, 2000), 5)
	if err != nil {
		t.Fatal(err)
	}
	activateLoaded(t, c, 10, 0.675)
	c.PlaceVM(constVM(1, 100))
	c.Engine().Run(0)
	// 1 broadcast + 3 replies + 1 assign = 5.
	if got := c.MessagesSent(); got != 5 {
		t.Fatalf("messages = %d, want 5", got)
	}
}

func TestSaturationDegrades(t *testing.T) {
	c, err := New(fixedConfig(), dc.UniformFleet(2, 6, 2000), 6)
	if err != nil {
		t.Fatal(err)
	}
	activateLoaded(t, c, 2, 0.92) // above Ta: nobody accepts, nothing to wake
	c.PlaceVM(constVM(1, 100))
	c.Engine().Run(0)
	if c.Stats.Saturations != 1 {
		t.Fatalf("saturations = %d, want 1", c.Stats.Saturations)
	}
	if c.DC().NumPlaced() != 3 { // 2 loaders + the degraded placement
		t.Fatalf("placed = %d", c.DC().NumPlaced())
	}
}

func TestScheduledArrivals(t *testing.T) {
	// 100 arrivals one second apart on a cold fleet: the protocol must place
	// every VM, waking servers as needed (fa(0)=0, so early rounds wake and
	// the grace period then concentrates arrivals).
	c, err := New(fixedConfig(), dc.UniformFleet(20, 6, 2000), 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		vm := constVM(i, 300)
		c.Engine().Schedule(time.Duration(i)*time.Second, "arrival", func(*sim.Engine) {
			c.PlaceVM(vm)
		})
	}
	c.Engine().Run(0)
	if c.Stats.Placements != 100 {
		t.Fatalf("placements = %d, want 100", c.Stats.Placements)
	}
	if c.DC().NumPlaced() != 100 {
		t.Fatalf("placed VMs = %d, want 100", c.DC().NumPlaced())
	}
	if err := c.DC().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// 100 VMs x 300 MHz = 30,000 MHz: at Ta=0.9 of 12,000 MHz servers, at
	// least 3 are needed; the grace period should keep the count modest.
	active := c.DC().ActiveCount()
	if active < 3 || active > 12 {
		t.Fatalf("active servers = %d, want a modest count >= 3", active)
	}
	if c.Stats.Saturations != 0 {
		t.Fatalf("saturations = %d", c.Stats.Saturations)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, int64, int) {
		c, err := New(fixedConfig(), dc.UniformFleet(10, 6, 2000), 11)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			vm := constVM(i, 400)
			c.Engine().Schedule(time.Duration(i)*time.Second, "arrival", func(*sim.Engine) {
				c.PlaceVM(vm)
			})
		}
		c.Engine().Run(0)
		return c.MessagesSent(), c.BytesSent(), c.DC().ActiveCount()
	}
	m1, b1, a1 := run()
	m2, b2, a2 := run()
	if m1 != m2 || b1 != b2 || a1 != a2 {
		t.Fatalf("identical runs diverged: (%d,%d,%d) vs (%d,%d,%d)", m1, b1, a1, m2, b2, a2)
	}
}

func migConfig() Config {
	cfg := fixedConfig()
	cfg.ScanInterval = time.Minute
	cfg.TransferBytes = 1 << 20 // small VMs: keeps test latencies short
	return cfg
}

func TestMigrationConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Tl = 0.96 }, // above Th
		func(c *Config) { c.Th = 1.0 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Beta = -1 },
		func(c *Config) { c.HighMigTaFactor = 0 },
		func(c *Config) { c.ScanInterval = 0 },
		func(c *Config) { c.TransferBytes = 0 },
	}
	for i, mutate := range bad {
		cfg := migConfig()
		mutate(&cfg)
		if _, err := New(cfg, dc.UniformFleet(2, 6, 2000), 1); err == nil {
			t.Errorf("bad migration config %d accepted", i)
		}
	}
}

func TestLowMigrationOverMessages(t *testing.T) {
	c, err := New(migConfig(), dc.UniformFleet(3, 6, 2000), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Source at u=0.10 (one VM), destination at u=0.60 (accepts).
	activateLoaded(t, c, 2, 0)
	a, b := c.DC().Servers[0], c.DC().Servers[1]
	if err := c.DC().Place(constVM(1, 1200), a); err != nil {
		t.Fatal(err)
	}
	if err := c.DC().Place(constVM(2, 7200), b); err != nil {
		t.Fatal(err)
	}
	c.StartMigrationScan()
	c.Engine().Run(2 * time.Hour)
	if host, _ := c.DC().HostOf(1); host != b {
		t.Fatalf("VM 1 still on server %d after 2h of scans", host.ID)
	}
	if c.Stats.MigrationsLow == 0 {
		t.Fatal("low migration not counted")
	}
	if c.Stats.MigrationsHigh != 0 {
		t.Fatal("spurious high migration")
	}
	// The drained source hibernates on a later scan.
	if a.State() != dc.Hibernated {
		t.Fatal("drained source not hibernated")
	}
	// Latency includes request, round, order and the 1 MiB transfer.
	if c.Stats.MigrationLatency <= 0 {
		t.Fatal("migration latency not accounted")
	}
	if err := c.DC().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHighMigrationWakesOverMessages(t *testing.T) {
	c, err := New(migConfig(), dc.UniformFleet(2, 6, 2000), 9)
	if err != nil {
		t.Fatal(err)
	}
	// One overloaded server; the only other machine is hibernated, so the
	// manager must wake it for the overload relief.
	activateLoaded(t, c, 1, 0)
	a := c.DC().Servers[0]
	if err := c.DC().Place(constVM(1, 6000), a); err != nil {
		t.Fatal(err)
	}
	if err := c.DC().Place(constVM(2, 6000), a); err != nil { // u = 1.0
		t.Fatal(err)
	}
	c.StartMigrationScan()
	c.Engine().Run(time.Hour)
	if c.Stats.MigrationsHigh == 0 {
		t.Fatal("high migration never completed")
	}
	if c.Stats.Wakes == 0 {
		t.Fatal("no wake despite empty acceptor set")
	}
	if a.UtilizationAt(c.Engine().Now()) > 0.95 {
		t.Fatalf("overload not relieved: u = %v", a.UtilizationAt(c.Engine().Now()))
	}
	if err := c.DC().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLowMigrationAbortsWithoutDestination(t *testing.T) {
	c, err := New(migConfig(), dc.UniformFleet(3, 6, 2000), 10)
	if err != nil {
		t.Fatal(err)
	}
	// Only one active server, under-utilized; the rest hibernated. Low
	// migrations never wake, so every request aborts.
	activateLoaded(t, c, 1, 0)
	a := c.DC().Servers[0]
	if err := c.DC().Place(constVM(1, 1200), a); err != nil {
		t.Fatal(err)
	}
	c.StartMigrationScan()
	c.Engine().Run(time.Hour)
	if c.Stats.MigrationsLow+c.Stats.MigrationsHigh != 0 {
		t.Fatal("a migration completed with no possible destination")
	}
	if c.Stats.MigrationsAborted == 0 {
		t.Fatal("aborts not counted")
	}
	if c.DC().ActiveCount() != 1 {
		t.Fatal("low migration woke a server")
	}
	if host, _ := c.DC().HostOf(1); host != a {
		t.Fatal("VM moved")
	}
}

func TestMigrationTransferDominatesLatency(t *testing.T) {
	// With the default 4 GiB transfer at 1 us/KB, a migration takes ~4.2 s
	// while control messages take microseconds: the latency must be
	// transfer-dominated.
	cfg := migConfig()
	cfg.TransferBytes = 4 << 30
	cfg.Latency.PerKB = time.Microsecond // 4 GiB => ~4.2 s serialization
	c, err := New(cfg, dc.UniformFleet(3, 6, 2000), 11)
	if err != nil {
		t.Fatal(err)
	}
	activateLoaded(t, c, 2, 0)
	a, b := c.DC().Servers[0], c.DC().Servers[1]
	if err := c.DC().Place(constVM(1, 1200), a); err != nil {
		t.Fatal(err)
	}
	if err := c.DC().Place(constVM(2, 7200), b); err != nil {
		t.Fatal(err)
	}
	c.StartMigrationScan()
	c.Engine().Run(time.Hour)
	if c.Stats.MigrationsLow == 0 {
		t.Fatal("no migration completed")
	}
	perMig := c.Stats.MigrationLatency / time.Duration(c.Stats.MigrationsLow)
	if perMig < 3*time.Second {
		t.Fatalf("migration latency %v not transfer-dominated (~4s expected)", perMig)
	}
}

// churnDay runs a small protocol day with migration scanning on a scan
// pool of the given size, and returns its statistics, its wire traffic and
// every VM's final host (-1 when not hosted).
func churnDay(t *testing.T, workers int) (Stats, int, int64, []int) {
	t.Helper()
	churn := trace.DefaultChurnConfig()
	churn.InitialVMs = 300
	churn.ArrivalPerHour = 200
	churn.Horizon = 6 * time.Hour
	churn.DemandMedianMHz = 800 // heavy enough that some servers overload
	ws, err := trace.GenerateChurn(churn, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workers = workers
	c, err := New(cfg, dc.UniformFleet(20, 6, 2000), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, vm := range ws.VMs {
		vm := vm
		c.Engine().Schedule(vm.Start, "arrival", func(*sim.Engine) { c.PlaceVM(vm) })
		c.Engine().Schedule(vm.End, "departure", func(*sim.Engine) {
			if _, ok := c.DC().HostOf(vm.ID); ok {
				if _, err := c.DC().Remove(vm.ID); err != nil {
					t.Errorf("departure of VM %d: %v", vm.ID, err)
				}
			}
		})
	}
	c.StartMigrationScan()
	c.Engine().Run(churn.Horizon)
	hosts := make([]int, len(ws.VMs))
	for i, vm := range ws.VMs {
		hosts[i] = -1
		if s, ok := c.DC().HostOf(vm.ID); ok {
			hosts[i] = s.ID
		}
	}
	return c.Stats, c.MessagesSent(), c.BytesSent(), hosts
}

// The scan's decision phase runs inline without a pool and sharded with
// one: every worker count must give the same day, message for message.
func TestScanWorkerCountInvariance(t *testing.T) {
	stats, msgs, bytes, hosts := churnDay(t, 0)
	if stats.MigrationsLow == 0 || stats.MigrationsHigh == 0 {
		t.Fatalf("day too quiet to exercise the scan: %+v", stats)
	}
	for _, w := range []int{1, 4} {
		s, m, b, h := churnDay(t, w)
		if s != stats || m != msgs || b != bytes {
			t.Fatalf("Workers=%d: stats %+v, %d msgs, %d bytes; Workers=0: %+v, %d msgs, %d bytes",
				w, s, m, b, stats, msgs, bytes)
		}
		for i := range h {
			if h[i] != hosts[i] {
				t.Fatalf("Workers=%d: VM index %d ends on server %d, Workers=0 on %d", w, i, h[i], hosts[i])
			}
		}
	}
}

// A NaN threshold fails every comparison, so a range check written as
// x <= 0 || x > 1 lets it through.
func TestConfigRejectsNonFinite(t *testing.T) {
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
	}
	for _, f := range fields {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig()
			f.set(&cfg, x)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %s = %v", f.name, x)
			}
		}
	}
}
