//go:build race

package kpbs

// Allocation bounds of TestColdSolveAllocs and TestShardedSolveAllocs
// under -race, each under 10% above the count the test logs there: 61
// cold solves under ShardOff, 69 under ShardAuto, and 267 sharded. The
// race build's allocator rounds sizes differently, so the peeler's comm
// arena grows more often than in the plain build
// (alloc_bounds_test.go), and the plain bounds would leave no margin.
const (
	coldAllocBoundOff  = 67
	coldAllocBoundAuto = 75
	shardedAllocBound  = 293
)
