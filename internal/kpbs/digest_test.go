package kpbs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/matching"
	"redistgo/internal/trafficgen"
)

// scheduleDigestWant is the SHA-256 of every schedule TestBottleneckScheduleDigest
// solves. OGGP and MinSteps may peel with any bottleneck-optimal matching,
// and the choice changed when the bottleneck matcher began to keep its
// threshold and matching across peels (DESIGN.md §2); the constant was
// re-recorded then, after TestBottleneckRatioCorpus, with constants
// recorded before the change, and the cross-arm checks passed. It pins
// those schedules from here on: any later change to the bottleneck matcher
// must leave every OGGP and MinSteps schedule byte-identical, or argue the
// change in DESIGN.md.
const scheduleDigestWant = "3671cb382fb93e39076db20c4464062604fc9a766618152a78b2036eeae82b83"

// ggpScheduleDigestWant is the SHA-256 of every schedule
// TestGGPScheduleDigest solves. GGP may peel with any perfect matching, and
// the matching rule changed when the GGP matcher's repair became one
// breadth-first search per exposed left node (DESIGN.md §2); the constant
// was re-recorded then, after TestGGPRatioCorpus and the cross-arm checks
// passed. It pins those schedules from here on: any later change to the
// GGP peel, the incremental matcher's ModeAny or denormalization must
// leave every GGP schedule byte-identical, or argue the change in
// DESIGN.md.
const ggpScheduleDigestWant = "c5b3deeb2707d79663c3fb3314ab422b6ebc77d019c90833dfeaa3a9de2ef283"

type digestInstance struct {
	name string
	g    *bipartite.Graph
	k    int
}

// digestCorpus is the fixed-seed instance set of the digest: power-law,
// sparse, dense and block-diagonal families, sized so that the bottleneck
// matcher's failed searches (which dominate power-law OGGP) are exercised
// while the whole test stays well under two seconds.
func digestCorpus(t *testing.T) []digestInstance {
	t.Helper()
	var out []digestInstance
	add := func(name string, k int, m [][]int64) {
		out = append(out, digestInstance{name, mustGraph(t, m), k})
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		add(fmt.Sprintf("powerlaw128/%d", seed), 16, trafficgen.PowerLawSparse(rng, 128, 128, 900, 1.3, 1, 1000))
		add(fmt.Sprintf("sparse40/%d", seed), 8, trafficgen.SparseUniform(rng, 40, 36, 0.12, 1, 500))
		add(fmt.Sprintf("dense16/%d", seed), 6, trafficgen.DenseUniform(rng, 16, 16, 1, 60))
		add(fmt.Sprintf("blockdiag4x12/%d", seed), 10, trafficgen.BlockDiagonal(rng, 4, 12, 0.02, 1, 200))
	}
	rng := rand.New(rand.NewSource(256))
	add("powerlaw256", 32, trafficgen.PowerLawSparse(rng, 256, 256, 2000, 1.3, 1, 1000))
	return out
}

// TestBottleneckScheduleDigest hashes the schedules of OGGP and MinSteps —
// the two algorithms that peel with the bottleneck matcher — under both
// kernel arms and both shard modes into one SHA-256 and compares it to the
// recorded constant.
func TestBottleneckScheduleDigest(t *testing.T) {
	h := sha256.New()
	for _, in := range digestCorpus(t) {
		for _, alg := range []Algorithm{OGGP, MinSteps} {
			for _, eng := range []matching.Engine{matching.EngineScalar, matching.EngineBitset} {
				for _, shard := range []ShardMode{ShardOff, ShardAuto} {
					s, err := Solve(in.g, in.k, 1, Options{Algorithm: alg, engine: eng, Shard: shard})
					if err != nil {
						t.Fatalf("%s %v %v %v: %v", in.name, alg, eng, shard, err)
					}
					fmt.Fprintf(h, "%s %v %v %v\n%s", in.name, alg, eng, shard, s.String())
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != scheduleDigestWant {
		t.Fatalf("schedule digest changed:\n got %s\nwant %s", got, scheduleDigestWant)
	}
}

// TestGGPScheduleDigest hashes the GGP schedules of the digest corpus plus
// one dense 64×64 instance at k = 32 and β = 1 (the shape of the served
// dense GGP benchmark) under both kernel arms and both shard modes into one
// SHA-256 and compares it to the recorded constant.
func TestGGPScheduleDigest(t *testing.T) {
	corpus := digestCorpus(t)
	rng := rand.New(rand.NewSource(64))
	corpus = append(corpus, digestInstance{"dense64", mustGraph(t, trafficgen.DenseUniform(rng, 64, 64, 1, 20)), 32})
	h := sha256.New()
	for _, in := range corpus {
		for _, eng := range []matching.Engine{matching.EngineScalar, matching.EngineBitset} {
			for _, shard := range []ShardMode{ShardOff, ShardAuto} {
				s, err := Solve(in.g, in.k, 1, Options{Algorithm: GGP, engine: eng, Shard: shard})
				if err != nil {
					t.Fatalf("%s %v %v: %v", in.name, eng, shard, err)
				}
				fmt.Fprintf(h, "%s %v %v\n%s", in.name, eng, shard, s.String())
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != ggpScheduleDigestWant {
		t.Fatalf("GGP schedule digest changed:\n got %s\nwant %s", got, ggpScheduleDigestWant)
	}
}
