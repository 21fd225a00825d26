package redistgo

import (
	"redistgo/internal/cluster"
)

// ClusterConfig sizes and shapes the loopback-TCP execution runtime: the
// counterpart of the paper's MPICH + rshaper testbed. Rates are bytes/s;
// zero disables shaping.
type ClusterConfig = cluster.Config

// Transfer is one message for the execution runtime.
type Transfer = cluster.Transfer

// Cluster is a running loopback-TCP cluster: one goroutine per node, one
// real TCP connection per sender-receiver pair, token-bucket NIC and
// backbone shaping. Use RunBruteForce / RunSchedule to execute a
// redistribution for real and measure wall-clock time; Close releases
// sockets.
type Cluster = cluster.Cluster

// NewCluster starts the runtime's listeners and connections.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// TransferSteps converts a schedule whose amounts are bytes into the
// per-step transfer lists consumed by Cluster.RunSchedule.
func TransferSteps(s *Schedule) [][]Transfer {
	steps := make([][]Transfer, 0, len(s.Steps))
	for _, st := range s.Steps {
		ts := make([]Transfer, 0, len(st.Comms))
		for _, c := range st.Comms {
			ts = append(ts, Transfer{Src: int(c.L), Dst: int(c.R), Bytes: c.Amount})
		}
		steps = append(steps, ts)
	}
	return steps
}

// AsyncTransfer is one communication of a dependency-DAG execution over
// the real runtime.
type AsyncTransfer = cluster.AsyncTransfer

// AsyncTransfers converts a dependency plan whose amounts are bytes into
// the input of Cluster.RunAsync — the weakened-barrier execution mode
// over real sockets.
func AsyncTransfers(p *AsyncPlan) []AsyncTransfer {
	out := make([]AsyncTransfer, len(p.Comms))
	for i, c := range p.Comms {
		out[i] = AsyncTransfer{
			Transfer: Transfer{Src: c.L, Dst: c.R, Bytes: c.Amount},
			Deps:     p.Deps[i],
		}
	}
	return out
}

// MatrixTransfers converts a traffic matrix in bytes into the
// all-at-once transfer list of the brute-force baseline.
func MatrixTransfers(m [][]int64) []Transfer {
	var ts []Transfer
	for i, row := range m {
		for j, v := range row {
			if v > 0 {
				ts = append(ts, Transfer{Src: i, Dst: j, Bytes: v})
			}
		}
	}
	return ts
}
