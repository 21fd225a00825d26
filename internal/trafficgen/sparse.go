package trafficgen

import (
	"fmt"
	"math/rand"
)

// Sparse and block-structured generators. Real redistribution traffic at
// scale is rarely dense: user shards mostly talk to their own storage
// shard (block-diagonal with a little cross-shard leakage) or follow a
// heavy-tailed popularity law (a few hot nodes carry most flows). These
// patterns split into many connected components, which is exactly what
// the component-sharded solver (kpbs Options.Shard) exploits; the
// BenchmarkShardSolve workloads and the sharding fuzz arms draw from
// these generators.

// BlockDiagonal builds an n×n traffic matrix, n = shards·shardSize, of
// dense shardSize×shardSize diagonal blocks with weights uniform in
// [minW, maxW]. Every off-block pair additionally communicates with
// probability leak — leak = 0 yields exactly `shards` connected
// components, while a small leak stitches some shards together the way
// cross-shard traffic does in production.
func BlockDiagonal(rng *rand.Rand, shards, shardSize int, leak float64, minW, maxW int64) [][]int64 {
	if shards <= 0 || shardSize <= 0 {
		panic(fmt.Sprintf("trafficgen: shard counts must be positive, got %d x %d", shards, shardSize))
	}
	if leak < 0 || leak > 1 {
		panic(fmt.Sprintf("trafficgen: leak probability %v outside [0,1]", leak))
	}
	if minW <= 0 || maxW < minW {
		panic(fmt.Sprintf("trafficgen: bad weight range [%d,%d]", minW, maxW))
	}
	n := shards * shardSize
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			if i/shardSize == j/shardSize {
				m[i][j] = uniform(rng, minW, maxW)
			} else if leak > 0 && rng.Float64() < leak {
				m[i][j] = uniform(rng, minW, maxW)
			}
		}
	}
	return m
}

// Chain builds an n×n traffic matrix shaped like a path: node i sends to
// receiver i, and for i > 0 also to receiver i-1, with weights uniform in
// [minW, maxW]. The bipartite graph is a caterpillar whose perfect
// matching is unique and discoverable purely by degree-1 elimination —
// sender 0 is forced onto receiver 0, which forces sender 1 onto
// receiver 1, and so on down the chain. Pipeline-style redistributions
// (each stage hands off to itself and its predecessor) look exactly like
// this (BenchmarkBitsetSolve/SparseChainGGP).
func Chain(rng *rand.Rand, n int, minW, maxW int64) [][]int64 {
	if n <= 0 {
		panic(fmt.Sprintf("trafficgen: chain length must be positive, got %d", n))
	}
	if minW <= 0 || maxW < minW {
		panic(fmt.Sprintf("trafficgen: bad weight range [%d,%d]", minW, maxW))
	}
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
		m[i][i] = uniform(rng, minW, maxW)
		if i > 0 {
			m[i][i-1] = uniform(rng, minW, maxW)
		}
	}
	return m
}

// StarForest builds a hubs×(hubs·leaves) traffic matrix of disjoint fans:
// hub h sends to its own `leaves` receivers and nobody else, weights
// uniform in [minW, maxW]. Every receiver has in-degree 1, so maximum
// matchings are found by degree-1 elimination alone — the
// fan-out-to-fresh-replicas pattern of a scale-up redistribution
// (BenchmarkBitsetSolve/SparseStarGGP).
func StarForest(rng *rand.Rand, hubs, leaves int, minW, maxW int64) [][]int64 {
	if hubs <= 0 || leaves <= 0 {
		panic(fmt.Sprintf("trafficgen: star shape must be positive, got %d hubs x %d leaves", hubs, leaves))
	}
	if minW <= 0 || maxW < minW {
		panic(fmt.Sprintf("trafficgen: bad weight range [%d,%d]", minW, maxW))
	}
	m := make([][]int64, hubs)
	for h := range m {
		m[h] = make([]int64, hubs*leaves)
		for j := 0; j < leaves; j++ {
			m[h][h*leaves+j] = uniform(rng, minW, maxW)
		}
	}
	return m
}

// PowerLawSparse builds an nLeft×nRight sparse traffic matrix with
// (up to) edges flows whose endpoints follow a Zipf law with the given
// exponent s > 1: node 0 on each side is the hottest, the tail barely
// communicates. Flows drawn onto an already-communicating pair merge by
// adding their amounts, so the effective edge count can be slightly
// below edges. Amounts are uniform in [minW, maxW].
func PowerLawSparse(rng *rand.Rand, nLeft, nRight, edges int, s float64, minW, maxW int64) [][]int64 {
	if nLeft <= 0 || nRight <= 0 {
		panic(fmt.Sprintf("trafficgen: node counts must be positive, got %dx%d", nLeft, nRight))
	}
	if edges < 0 {
		panic(fmt.Sprintf("trafficgen: edge count must be non-negative, got %d", edges))
	}
	if s <= 1 {
		panic(fmt.Sprintf("trafficgen: zipf exponent must be > 1, got %v", s))
	}
	if minW <= 0 || maxW < minW {
		panic(fmt.Sprintf("trafficgen: bad weight range [%d,%d]", minW, maxW))
	}
	zl := rand.NewZipf(rng, s, 1, uint64(nLeft-1))
	zr := rand.NewZipf(rng, s, 1, uint64(nRight-1))
	m := make([][]int64, nLeft)
	for i := range m {
		m[i] = make([]int64, nRight)
	}
	for i := 0; i < edges; i++ {
		l := int(zl.Uint64())
		r := int(zr.Uint64())
		m[l][r] += uniform(rng, minW, maxW)
	}
	return m
}
