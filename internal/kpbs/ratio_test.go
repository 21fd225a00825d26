package kpbs

import (
	"fmt"
	"math/rand"
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/obs"
	"redistgo/internal/trafficgen"
)

// The mean GGP cost/LowerBound of each TestGGPRatioCorpus group, over both
// shard modes. They were recorded before GGP's matching repair became one
// breadth-first search per exposed node (DESIGN.md §2): GGP may peel with
// any perfect matching, so that change moved schedules, and these
// constants bound how far their quality may drift.
const (
	ggpRatioDigestWant  = 1.0612819412
	ggpRatioDense64Want = 1.7886738767
	ggpRatioMixedWant   = 1.0364254490
)

// ggpRatioTolerance is the relative amount a group's mean may exceed its
// recorded constant.
const ggpRatioTolerance = 0.005

type ratioGroup struct {
	name  string
	beta  int64
	want  float64
	cases []digestInstance
}

// ggpRatioCorpus returns the three groups: the digest corpus at β = 1, 20
// dense 64×64 instances (the served dense GGP shape, k = 32, β = 1), and 64
// instances of the eight 16×16 mixed-small families at k = 3, β = 64.
func ggpRatioCorpus(t *testing.T) []ratioGroup {
	t.Helper()
	var dense []digestInstance
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dense = append(dense, digestInstance{fmt.Sprintf("dense64/%d", seed), mustGraph(t, trafficgen.DenseUniform(rng, 64, 64, 1, 20)), 32})
	}
	var mixed []digestInstance
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 64; i++ {
		mixed = append(mixed, digestInstance{fmt.Sprintf("mixed16/%d", i), mustGraph(t, mixedSmallFamily(t, rng, i)), 3})
	}
	return []ratioGroup{
		{"digest", 1, ggpRatioDigestWant, digestCorpus(t)},
		{"dense64", 1, ggpRatioDense64Want, dense},
		{"mixed16", 64, ggpRatioMixedWant, mixed},
	}
}

// mixedSmallFamily draws instance i of the 16×16 mixed-small traffic: family
// i mod 8 of dense, sparse, permutation, shift, all-to-all, chain, star
// forest and block-diagonal, with weights up to 2^16.
func mixedSmallFamily(t *testing.T, rng *rand.Rand, i int) [][]int64 {
	t.Helper()
	const n, minW, maxW = 16, 1, 1 << 16
	size := minW + rng.Int63n(maxW-minW)
	var m [][]int64
	var err error
	switch i % 8 {
	case 0:
		m = trafficgen.DenseUniform(rng, n, n, minW, maxW)
	case 1:
		m = trafficgen.SparseUniform(rng, n, n, 0.3, minW, maxW)
	case 2:
		m, err = trafficgen.Permutation(rng.Perm(n), size)
	case 3:
		m, err = trafficgen.Shift(n, 1+rng.Intn(n-1), size)
	case 4:
		m, err = trafficgen.AllToAll(n, size, false)
	case 5:
		m = trafficgen.Chain(rng, n, minW, maxW)
	case 6:
		m = trafficgen.StarForest(rng, 4, n/4, minW, maxW)
	default:
		m = trafficgen.BlockDiagonal(rng, 4, n/4, 0, minW, maxW)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func connected(g *bipartite.Graph) bool {
	sh := newSharder()
	sh.split(g)
	return sh.nComp <= 1
}

// ratioOptions returns the options of one corpus solve. The ShardOff solve
// carries an observer, so checkPeelBound can read its peel count.
func ratioOptions(alg Algorithm, shard ShardMode) Options {
	opts := Options{Algorithm: alg, Shard: shard}
	if shard == ShardOff {
		opts.Obs = obs.New()
	}
	return opts
}

// checkPeelBound requires an observed unsharded solve of g to have peeled
// at most m + 2n + 1 times (DESIGN.md §2), with n the non-isolated nodes,
// and returns the share of the bound it used; solves without an observer
// return 0.
func checkPeelBound(t *testing.T, name string, g *bipartite.Graph, opts Options) float64 {
	t.Helper()
	if opts.Obs == nil {
		return 0
	}
	bound := int64(g.EdgeCount() + 2*(g.ActiveLeft()+g.ActiveRight()) + 1)
	peels := opts.Obs.Metrics.Snapshot().Counters["solver.peels_total."+opts.Algorithm.String()]
	if peels > bound {
		t.Fatalf("%s %v: %d peels, over the m + 2n + 1 bound %d", name, opts.Algorithm, peels, bound)
	}
	return float64(peels) / float64(bound)
}

// TestGGPRatioCorpus is the quality guard on GGP's matching choice. Every
// schedule, sharded or not, must be valid and cost between LowerBound and
// 2·LowerBound (Theorem 1), and every unsharded solve must peel at most
// m + 2n + 1 times. Each group's mean
// cost/LowerBound may exceed its recorded constant by ggpRatioTolerance.
func TestGGPRatioCorpus(t *testing.T) {
	for _, grp := range ggpRatioCorpus(t) {
		var sum, worstPeels float64
		var n int
		for _, in := range grp.cases {
			lb := LowerBound(in.g, in.k, grp.beta)
			for _, shard := range []ShardMode{ShardOff, ShardAuto} {
				opts := ratioOptions(GGP, shard)
				s, err := Solve(in.g, in.k, grp.beta, opts)
				if err != nil {
					t.Fatalf("%s %v: %v", in.name, shard, err)
				}
				if err := s.Validate(in.g, in.k); err != nil {
					t.Fatalf("%s %v: %v", in.name, shard, err)
				}
				cost := s.Cost()
				if cost < lb {
					t.Fatalf("%s %v: cost %d < LB %d", in.name, shard, cost, lb)
				}
				if cost > 2*lb {
					t.Fatalf("%s %v: cost %d > 2·LB = %d", in.name, shard, cost, 2*lb)
				}
				worstPeels = max(worstPeels, checkPeelBound(t, in.name, in.g, opts))
				sum += float64(cost) / float64(lb)
				n++
			}
		}
		mean := sum / float64(n)
		t.Logf("%s: mean cost/LB %.10f over %d schedules (recorded %.10f); peels at most %.3f of m + 2n + 1", grp.name, mean, n, grp.want, worstPeels)
		if mean > grp.want*(1+ggpRatioTolerance) {
			t.Errorf("%s: mean cost/LB %.10f exceeds the recorded %.10f by more than %.1f%%",
				grp.name, mean, grp.want, 100*ggpRatioTolerance)
		}
	}
}

// The mean OGGP and MinSteps cost/LowerBound of each ratio-corpus group,
// over both shard modes. They were recorded with the bottleneck matcher
// that rebuilt its Figure-6 insertion from an empty matching at every
// peel. OGGP and MinSteps may peel with any bottleneck-optimal matching,
// so a change to that choice moves schedules; these constants bound how
// far their quality may drift.
var bottleneckRatioWant = map[Algorithm]map[string]float64{
	OGGP:     {"digest": 1.0134170194, "dense64": 1.0527334301, "mixed16": 1.0329878765},
	MinSteps: {"digest": 1.7365778414, "dense64": 1.8040329874, "mixed16": 1.3569059482},
}

// TestBottleneckRatioCorpus is the quality guard on the bottleneck
// matcher's choice, over the groups of TestGGPRatioCorpus. Every OGGP and
// MinSteps schedule must be valid and cost at least LowerBound; every OGGP
// schedule, sharded or not, must also cost at most 2·LowerBound (Theorem
// 1), and every unsharded solve must peel at most m + 2n + 1 times. Each group's
// mean cost/LowerBound may exceed its recorded constant by
// ggpRatioTolerance.
func TestBottleneckRatioCorpus(t *testing.T) {
	for _, grp := range ggpRatioCorpus(t) {
		for _, alg := range []Algorithm{OGGP, MinSteps} {
			var sum, worstPeels float64
			var n int
			for _, in := range grp.cases {
				lb := LowerBound(in.g, in.k, grp.beta)
				for _, shard := range []ShardMode{ShardOff, ShardAuto} {
					opts := ratioOptions(alg, shard)
					s, err := Solve(in.g, in.k, grp.beta, opts)
					if err != nil {
						t.Fatalf("%s %v %v: %v", in.name, alg, shard, err)
					}
					if err := s.Validate(in.g, in.k); err != nil {
						t.Fatalf("%s %v %v: %v", in.name, alg, shard, err)
					}
					cost := s.Cost()
					if cost < lb {
						t.Fatalf("%s %v %v: cost %d < LB %d", in.name, alg, shard, cost, lb)
					}
					if alg == OGGP && cost > 2*lb {
						t.Fatalf("%s %v %v: cost %d > 2·LB = %d", in.name, alg, shard, cost, 2*lb)
					}
					worstPeels = max(worstPeels, checkPeelBound(t, in.name, in.g, opts))
					sum += float64(cost) / float64(lb)
					n++
				}
			}
			mean := sum / float64(n)
			want := bottleneckRatioWant[alg][grp.name]
			t.Logf("%s %v: mean cost/LB %.10f over %d schedules (recorded %.10f); peels at most %.3f of m + 2n + 1", grp.name, alg, mean, n, want, worstPeels)
			if mean > want*(1+ggpRatioTolerance) {
				t.Errorf("%s %v: mean cost/LB %.10f exceeds the recorded %.10f by more than %.1f%%",
					grp.name, alg, mean, want, 100*ggpRatioTolerance)
			}
		}
	}
}
