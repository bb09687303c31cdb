package repro

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dc"
	"repro/internal/ecocloud"
	"repro/internal/trace"
)

// demandKernelConfig is the reduced-scale scenario behind
// BenchmarkDemandKernel: the paper's server mix and VM-per-server ratio
// (15:1) over a short horizon, heavy on exactly the pattern the kernel
// accelerates — every arrival's invitation round reads utilization across
// the whole fleet. CI smoke-runs it
// (`go test -bench=BenchmarkDemandKernel -benchtime=1x`).
func demandKernelConfig(b *testing.B, servers int, disable bool) (cluster.RunConfig, cluster.Policy) {
	b.Helper()
	gen := trace.DefaultGenConfig()
	gen.NumVMs = 15 * servers
	gen.Horizon = time.Hour
	ws, err := trace.Generate(gen, 1)
	if err != nil {
		b.Fatal(err)
	}
	pol, err := ecocloud.New(ecocloud.DefaultConfig(), 2)
	if err != nil {
		b.Fatal(err)
	}
	return cluster.RunConfig{
		Specs:              dc.StandardFleet(servers),
		Workload:           ws,
		Horizon:            gen.Horizon,
		ControlInterval:    5 * time.Minute,
		SampleInterval:     30 * time.Minute,
		PowerModel:         dc.DefaultPowerModel(),
		DisableDemandCache: disable,
	}, pol
}

// BenchmarkDemandKernel compares the simulation hot path with the demand
// kernel on (cached) and off (naive per-VM recomputation) on a 400-server /
// 6,000-VM fleet. The two runs are bit-identical by contract; only the
// wall time differs.
func BenchmarkDemandKernel(b *testing.B) {
	for _, bench := range []struct {
		name    string
		disable bool
	}{
		{"cached", false},
		{"naive", true},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg, pol := demandKernelConfig(b, 400, bench.disable)
				b.StartTimer()
				res, err := cluster.Run(cfg, pol)
				if err != nil {
					b.Fatal(err)
				}
				if res.MeanActiveServers <= 0 {
					b.Fatal("dead run")
				}
			}
		})
	}
}
