//go:build race

package kpbs

// Allocation bounds of TestColdSolveAllocs and TestShardedSolveAllocs
// under -race, each under 10% above the count the test logs there: 40–41
// cold solves under ShardOff, 49 under ShardAuto, and 216 sharded with 8
// component workers. An instrumented build does not fuse slices.Grow's
// append(s, make(...)...) into one growth, so each growth of the peeler's
// comm arena, and of a structural rebuild's edge list, allocates twice:
// the counts sit above the plain build's (alloc_bounds_test.go), and a
// structural rebuild makes 3 allocations instead of 2.
const (
	coldAllocBoundOff       = 43
	coldAllocBoundAuto      = 53
	shardedAllocBound       = 237
	structuralRebuildAllocs = 3
)
