package protocol

import "repro/internal/netsim"

// Transport is the message fabric the ecod agents and driver
// (internal/node) target: everything the manager and the server agents need
// from a network, and nothing more. Two implementations exist:
//
//   - netsim.Network, the simulated fabric every golden figure is pinned on,
//     which Cluster uses directly. Delivery is virtual-time,
//     single-threaded and seed-deterministic; the protocolday and faults
//     goldens byte-identically pin the cluster's behaviour over it.
//   - internal/node/tcptransport, real length-prefixed TCP between ecod
//     processes, where a NodeID maps to a process in the cluster config and
//     delivery is a socket write.
//
// Contract: Register installs the handler that receives messages addressed
// to id (re-registering replaces); Send and Broadcast queue deliveries;
// handlers are invoked serially, never concurrently, so protocol state needs
// no locking (netsim runs them inside the single-threaded engine loop, the
// TCP transport on its one dispatch goroutine). Broadcast is the fabric's
// chance to exploit hardware broadcast (footnote 1 of the paper): netsim
// counts one wire transmission for the whole fan-out, TCP necessarily pays
// one frame per destination.
type Transport interface {
	// Register installs the handler for a protocol participant.
	Register(id netsim.NodeID, h netsim.Handler)
	// Send queues one message for delivery.
	Send(msg netsim.Message)
	// Broadcast sends the same payload to every destination.
	Broadcast(from netsim.NodeID, tos []netsim.NodeID, kind string, payload any, size int)
	// Stats returns wire transmissions and bytes delivered so far.
	Stats() (sent int, bytes int64)
}

// netsim.Network satisfies Transport natively (the Stats method is the thin
// adapter over its Sent/Bytes counters).
var _ Transport = (*netsim.Network)(nil)
