//go:build !race

package kpbs

// Allocation bounds of TestColdSolveAllocs, TestShardedSolveAllocs and
// TestColdSolveBytes in the plain build, each under 10% above the count
// the test logs: 36–37 cold solves under ShardOff, 39 under ShardAuto, 214
// sharded with 8 component workers, and 1,683,050 and 1,685,306 bytes a
// cold solve under ShardOff and ShardAuto. structuralRebuildAllocs is the
// exact count TestDeltaShardAutoRebuildAllocs pins for a structural
// rebuild.
const (
	coldAllocBoundOff       = 40
	coldAllocBoundAuto      = 42
	shardedAllocBound       = 235
	coldBytesBoundOff       = 1_850_000
	coldBytesBoundAuto      = 1_850_000
	structuralRebuildAllocs = 2
)
