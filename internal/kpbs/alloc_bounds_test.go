//go:build !race

package kpbs

// Allocation bounds of TestColdSolveAllocs and TestShardedSolveAllocs in
// the plain build, each under 10% above the count the test logs: 56 cold
// solves under ShardOff, 65 under ShardAuto, and 265 sharded.
const (
	coldAllocBoundOff  = 61
	coldAllocBoundAuto = 71
	shardedAllocBound  = 291
)
