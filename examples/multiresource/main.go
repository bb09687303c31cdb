// Multiresource: the paper's §V extension in action. Servers track both CPU
// and RAM; availability for a new VM is decided by the decision kernel's
// two-resource trial (ecocloud.MultiTrial), under both proposed strategies:
//
//   - all-trials: one trial per resource, accept only if every trial succeeds;
//   - critical+constraints: one trial on the most critical resource, the
//     others checked as hard thresholds.
//
// The workload mixes CPU-bound and memory-bound VMs; the demo shows that
// both strategies co-locate complementary VMs (packing more VMs per server
// than a CPU-only policy could justify) and never breach either threshold.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/ecocloud"
	"repro/internal/rng"
)

// server is a toy two-resource bin for the demo.
type server struct {
	cpuMHz, ramMB    float64 // capacity
	usedCPU, usedRAM float64
	vms              int
}

func (s *server) utils() (cpu, ram float64) {
	return s.usedCPU / s.cpuMHz, s.usedRAM / s.ramMB
}

// vm is a two-resource demand. CPU-bound VMs want lots of CPU and little
// RAM; memory-bound VMs the opposite.
type vm struct{ cpuMHz, ramMB float64 }

func main() {
	strategy := flag.String("strategy", "all", `trial strategy: "all" or "critical"`)
	servers := flag.Int("servers", 20, "number of servers")
	vms := flag.Int("vms", 400, "number of arriving VMs")
	seed := flag.Uint64("seed", 1, "seed")
	flag.Parse()

	cpuFn, err := ecocloud.NewAssignProb(0.90, 3)
	if err != nil {
		log.Fatal(err)
	}
	ramFn, err := ecocloud.NewAssignProb(0.85, 2)
	if err != nil {
		log.Fatal(err)
	}
	multi := ecocloud.MultiTrial{CPU: cpuFn, RAM: ramFn}
	switch *strategy {
	case "all":
		multi.Strategy = ecocloud.AllTrials
	case "critical":
		multi.Strategy = ecocloud.CriticalPlusConstraints
	default:
		log.Fatalf("unknown strategy %q", *strategy)
	}

	master := rng.New(*seed)
	workSrc := master.Split("workload")
	fleet := make([]*server, *servers)
	srcs := make([]*rng.Source, *servers)
	for i := range fleet {
		fleet[i] = &server{cpuMHz: 12000, ramMB: 32768}
		srcs[i] = master.SplitIndex("server", i)
	}

	placed, rejected := 0, 0
	for i := 0; i < *vms; i++ {
		// Half the VMs are CPU-bound, half memory-bound.
		var v vm
		if i%2 == 0 {
			v = vm{cpuMHz: 400 + workSrc.Float64()*800, ramMB: 256 + workSrc.Float64()*256}
		} else {
			v = vm{cpuMHz: 100 + workSrc.Float64()*200, ramMB: 1024 + workSrc.Float64()*2048}
		}

		// Invitation round: every server runs its multi-resource trial,
		// which first checks that this particular VM fits on both resources.
		var acceptors []int
		for si, s := range fleet {
			cpuU, ramU := s.utils()
			ok := multi.Accept(srcs[si], cpuFn.Ta, cpuU, v.cpuMHz/s.cpuMHz, ramU, v.ramMB/s.ramMB, false)
			// A server with zero load never accepts (fa(0)=0); seed the
			// first VMs onto empty servers like the manager's wake-up does
			// (every VM fits an empty server).
			if ok || (s.vms == 0 && placed < *servers/4) {
				acceptors = append(acceptors, si)
			}
		}
		if len(acceptors) == 0 {
			rejected++
			continue
		}
		si := acceptors[master.Intn(len(acceptors))]
		fleet[si].usedCPU += v.cpuMHz
		fleet[si].usedRAM += v.ramMB
		fleet[si].vms++
		placed++
	}

	fmt.Printf("multiresource (%s strategy): placed %d, unplaceable %d\n\n", *strategy, placed, rejected)
	fmt.Printf("%-8s %6s %10s %10s\n", "server", "vms", "cpu util", "ram util")
	usedServers := 0
	for i, s := range fleet {
		if s.vms == 0 {
			continue
		}
		usedServers++
		cpuU, ramU := s.utils()
		if cpuU > cpuFn.Ta+1e-9 || ramU > ramFn.Ta+1e-9 {
			log.Fatalf("server %d breached a threshold: cpu=%.3f ram=%.3f", i, cpuU, ramU)
		}
		fmt.Printf("s%-7d %6d %10.3f %10.3f\n", i, s.vms, cpuU, ramU)
	}
	fmt.Printf("\n%d of %d servers used; no threshold breached on either resource\n", usedServers, *servers)
}
