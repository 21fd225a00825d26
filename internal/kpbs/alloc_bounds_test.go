//go:build !race

package kpbs

// Allocation bounds of TestColdSolveAllocs and TestShardedSolveAllocs in
// the plain build, each under 10% above the count the test logs: 36–37
// cold solves under ShardOff, 45–46 under ShardAuto, and 214 sharded with
// 8 component workers. structuralRebuildAllocs is the exact count
// TestDeltaShardAutoRebuildAllocs pins for a structural rebuild.
const (
	coldAllocBoundOff       = 40
	coldAllocBoundAuto      = 49
	shardedAllocBound       = 235
	structuralRebuildAllocs = 2
)
