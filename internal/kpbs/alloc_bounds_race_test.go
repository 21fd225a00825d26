//go:build race

package kpbs

// Allocation bounds of TestColdSolveAllocs, TestShardedSolveAllocs and
// TestColdSolveBytes under -race, each under 10% above the count the test
// logs there: 40–41 cold solves under ShardOff, 43 under ShardAuto, 220
// sharded with 8 component workers, and 1,848,958 and 1,851,213 bytes a
// cold solve under ShardOff and ShardAuto. An instrumented build does not
// fuse slices.Grow's append(s, make(...)...) into one growth, so each
// growth of the peeler's comm arena, and of a structural rebuild's edge
// list, allocates twice: the counts sit above the plain build's
// (alloc_bounds_test.go), and a structural rebuild makes 3 allocations
// instead of 2.
const (
	coldAllocBoundOff       = 43
	coldAllocBoundAuto      = 47
	shardedAllocBound       = 237
	coldBytesBoundOff       = 2_030_000
	coldBytesBoundAuto      = 2_030_000
	structuralRebuildAllocs = 3
)
