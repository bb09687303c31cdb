// Package node runs the ecoCloud protocol as real operating-system
// processes: each ecod process hosts one shard of the server fleet behind
// an event loop over one inbox, node 0 additionally drives the workload from
// a second inbox of acks, and every exchange crosses the tcptransport TCP
// mesh instead of the simulated netsim fabric. Each message kind is one row
// of the table in messages.go.
//
// Virtual time stays the only clock that matters. The driver sequences
// arrivals, departures and migration-scan ticks on a sim.Engine exactly like
// the single-process protocol day, but where the simulated cluster's
// handlers run inside the engine loop, the driver's block on barrier
// replies from the shard agents: every protocol exchange completes — over
// real sockets — before virtual time advances. Each message carries its
// virtual timestamp; agents integrate energy and evaluate utilization
// against it and never read a host clock. Two same-seed runs therefore
// produce identical merged summaries, byte for byte, regardless of host
// speed or scheduling (see DESIGN.md "Real-process deployment" for the
// deliberate divergences from the netsim figures: no wire latency, so no
// wake reuses and zero placement latency).
package node

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dc"
	"repro/internal/netsim"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Span is one node's slice of the global server fleet: the half-open ID
// range [Lo, Hi). Spans must partition [0, Servers) with no gaps or overlap.
type Span struct {
	Lo, Hi int
}

// Contains reports whether global server ID id falls in the span.
func (s Span) Contains(id int) bool { return id >= s.Lo && id < s.Hi }

// Size returns the number of servers in the span.
func (s Span) Size() int { return s.Hi - s.Lo }

// NodeSpec is one line of the cluster map: which process owns which span,
// reachable where.
type NodeSpec struct {
	ID   int
	Addr string
	Span Span
}

// ClusterConfig is the static cluster description every ecod process is
// started with. There is no coordinator: two processes agree they belong to
// the same run iff their configs hash identically and they carry the same
// seed — checked in the transport handshake.
type ClusterConfig struct {
	// Seed drives everything: the churn workload (Seed) and the protocol
	// streams (Seed+1), the same convention as the protocolday experiment.
	Seed uint64

	// Fleet shape: Servers machines of Cores x CoreMHz (see Fleet).
	Servers int
	Cores   int
	CoreMHz float64

	// Workload (trace.ChurnConfig defaults for everything not listed).
	Horizon        time.Duration
	InitialVMs     int
	ArrivalPerHour float64
	MeanLifetime   time.Duration

	// ScanInterval is the migration-scan cadence (protocol.Config semantics).
	ScanInterval time.Duration

	// Drop and Dup impair the live-migration TRANSFER messages at the TCP
	// codec boundary with netsim.Impairments semantics (deterministic
	// per-link decisions from labeled rng splits). Control-plane barrier
	// messages are never impaired: they play the sequencing role the
	// simulation engine plays in netsim runs.
	Drop, Dup float64

	Nodes []NodeSpec
}

// DefaultClusterConfig returns a single-process 48-server cluster running a
// short protocol day; callers add Nodes.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		Seed:           1,
		Servers:        48,
		Cores:          6,
		CoreMHz:        2000,
		Horizon:        4 * time.Hour,
		InitialVMs:     150,
		ArrivalPerHour: 150,
		MeanLifetime:   90 * time.Minute,
		ScanInterval:   5 * time.Minute,
	}
}

// Validate checks the configuration, including that the node spans exactly
// partition [0, Servers).
func (c *ClusterConfig) Validate() error {
	switch {
	case c.Servers <= 0:
		return fmt.Errorf("node: servers = %d", c.Servers)
	case c.Cores <= 0 || c.CoreMHz <= 0:
		return fmt.Errorf("node: cores = %d, core_mhz = %v", c.Cores, c.CoreMHz)
	case c.Horizon <= 0:
		return fmt.Errorf("node: horizon = %v", c.Horizon)
	case c.InitialVMs < 0 || c.ArrivalPerHour < 0:
		return fmt.Errorf("node: initial_vms = %d, arrival_per_hour = %v", c.InitialVMs, c.ArrivalPerHour)
	case c.MeanLifetime <= 0:
		return fmt.Errorf("node: mean_lifetime = %v", c.MeanLifetime)
	case c.ScanInterval <= 0:
		return fmt.Errorf("node: scan_interval = %v", c.ScanInterval)
	case len(c.Nodes) == 0:
		return fmt.Errorf("node: no nodes")
	}
	if err := c.Impairments().Validate(); err != nil {
		return err
	}
	nodes := append([]NodeSpec(nil), c.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	next := 0
	for i, n := range nodes {
		if n.ID != i {
			return fmt.Errorf("node: node IDs must be 0..%d contiguous, got %d", len(nodes)-1, n.ID)
		}
		if n.Addr == "" {
			return fmt.Errorf("node: node %d has no address", n.ID)
		}
		if n.Span.Lo != next || n.Span.Hi <= n.Span.Lo {
			return fmt.Errorf("node: node %d span %d:%d does not continue the partition at %d",
				n.ID, n.Span.Lo, n.Span.Hi, next)
		}
		next = n.Span.Hi
	}
	if next != c.Servers {
		return fmt.Errorf("node: spans cover [0, %d), want [0, %d)", next, c.Servers)
	}
	return nil
}

// Owner returns the node whose span contains global server ID id.
func (c *ClusterConfig) Owner(id int) int {
	for _, n := range c.Nodes {
		if n.Span.Contains(id) {
			return n.ID
		}
	}
	panic(fmt.Sprintf("node: server %d outside every span", id))
}

// Fleet returns the server specs, indexed by global server ID: Servers
// uniform machines of Cores x CoreMHz. The driver and the agents read
// capacity per server from it, so a heterogeneous fleet changes only this.
func (c *ClusterConfig) Fleet() []dc.Spec {
	return dc.UniformFleet(c.Servers, c.Cores, c.CoreMHz)
}

// Churn returns the workload generator configuration. Every node generates
// the identical workload locally from (Churn, Seed): VM objects never cross
// the wire, only their IDs do.
func (c *ClusterConfig) Churn() trace.ChurnConfig {
	churn := trace.DefaultChurnConfig()
	churn.Horizon = c.Horizon
	churn.InitialVMs = c.InitialVMs
	churn.ArrivalPerHour = c.ArrivalPerHour
	churn.MeanLifetime = c.MeanLifetime
	return churn
}

// Proto returns the protocol parameters the run uses: the paper defaults
// with this cluster's scan cadence.
func (c *ClusterConfig) Proto() protocol.Config {
	p := protocol.DefaultConfig()
	p.ScanInterval = c.ScanInterval
	return p
}

// Impairments returns the TRANSFER-message impairments in the shared
// netsim form, so validation and the guard contract come from one place.
func (c *ClusterConfig) Impairments() netsim.Impairments {
	return netsim.Impairments{DropProb: c.Drop, DupProb: c.Dup}
}

// Canonical renders the configuration in the parseable text format with
// fields in a fixed order — the serialization that is hashed, so two
// processes started from differently formatted but semantically identical
// files still agree.
func (c *ClusterConfig) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed = %d\n", c.Seed)
	fmt.Fprintf(&b, "servers = %d\n", c.Servers)
	fmt.Fprintf(&b, "cores = %d\n", c.Cores)
	fmt.Fprintf(&b, "core_mhz = %v\n", c.CoreMHz)
	fmt.Fprintf(&b, "horizon = %v\n", c.Horizon)
	fmt.Fprintf(&b, "initial_vms = %d\n", c.InitialVMs)
	fmt.Fprintf(&b, "arrival_per_hour = %v\n", c.ArrivalPerHour)
	fmt.Fprintf(&b, "mean_lifetime = %v\n", c.MeanLifetime)
	fmt.Fprintf(&b, "scan_interval = %v\n", c.ScanInterval)
	fmt.Fprintf(&b, "drop = %v\n", c.Drop)
	fmt.Fprintf(&b, "dup = %v\n", c.Dup)
	nodes := append([]NodeSpec(nil), c.Nodes...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for _, n := range nodes {
		fmt.Fprintf(&b, "node = %d %s %d:%d\n", n.ID, n.Addr, n.Span.Lo, n.Span.Hi)
	}
	return b.String()
}

// Hash is the cluster identity carried in the transport handshake.
func (c *ClusterConfig) Hash() [32]byte {
	return sha256.Sum256([]byte(c.Canonical()))
}

// ParseConfig reads the key = value cluster config format:
//
//	# comment
//	seed = 42
//	servers = 48
//	horizon = 4h
//	node = 0 127.0.0.1:7101 0:16
//
// Durations use Go syntax (4h, 90m, 5m30s). Unknown keys are errors: a typo
// must not silently fall back to a default and change the config hash story.
func ParseConfig(r io.Reader) (*ClusterConfig, error) {
	cfg := DefaultClusterConfig()
	cfg.Nodes = nil
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("node: config line %d: no '=' in %q", lineNo, line)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if err := cfg.setField(key, val); err != nil {
			return nil, fmt.Errorf("node: config line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("node: reading config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// LoadConfig reads and parses a cluster config file.
func LoadConfig(path string) (*ClusterConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseConfig(f)
}

// setField applies one key = value line.
func (c *ClusterConfig) setField(key, val string) error {
	switch key {
	case "seed":
		return parseInto(val, &c.Seed)
	case "servers":
		return parseInto(val, &c.Servers)
	case "cores":
		return parseInto(val, &c.Cores)
	case "core_mhz":
		return parseInto(val, &c.CoreMHz)
	case "horizon":
		return parseInto(val, &c.Horizon)
	case "initial_vms":
		return parseInto(val, &c.InitialVMs)
	case "arrival_per_hour":
		return parseInto(val, &c.ArrivalPerHour)
	case "mean_lifetime":
		return parseInto(val, &c.MeanLifetime)
	case "scan_interval":
		return parseInto(val, &c.ScanInterval)
	case "drop":
		return parseInto(val, &c.Drop)
	case "dup":
		return parseInto(val, &c.Dup)
	case "node":
		n, err := parseNodeSpec(val)
		if err != nil {
			return err
		}
		c.Nodes = append(c.Nodes, n)
		return nil
	default:
		return fmt.Errorf("unknown key %q", key)
	}
}

// parseNodeSpec parses "<id> <addr> <lo>:<hi>".
func parseNodeSpec(val string) (NodeSpec, error) {
	fields := strings.Fields(val)
	if len(fields) != 3 {
		return NodeSpec{}, fmt.Errorf("node spec %q: want <id> <addr> <lo>:<hi>", val)
	}
	var n NodeSpec
	if err := parseInto(fields[0], &n.ID); err != nil {
		return NodeSpec{}, fmt.Errorf("node spec %q: %v", val, err)
	}
	n.Addr = fields[1]
	lo, hi, ok := strings.Cut(fields[2], ":")
	if !ok {
		return NodeSpec{}, fmt.Errorf("node spec %q: span must be <lo>:<hi>", val)
	}
	if err := parseInto(lo, &n.Span.Lo); err != nil {
		return NodeSpec{}, fmt.Errorf("node spec %q: %v", val, err)
	}
	if err := parseInto(hi, &n.Span.Hi); err != nil {
		return NodeSpec{}, fmt.Errorf("node spec %q: %v", val, err)
	}
	return n, nil
}

// parseInto parses val into the pointed-to config field type.
func parseInto(val string, dst any) error {
	switch p := dst.(type) {
	case *int:
		v, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		*p = v
	case *uint64:
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return err
		}
		*p = v
	case *float64:
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return err
		}
		*p = v
	case *time.Duration:
		v, err := time.ParseDuration(val)
		if err != nil {
			return err
		}
		if v < 0 {
			return fmt.Errorf("negative duration %v", v)
		}
		*p = v
	default:
		panic(fmt.Sprintf("node: parseInto: unsupported type %T", dst))
	}
	return nil
}
