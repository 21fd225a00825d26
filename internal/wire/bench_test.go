package wire

import (
	"math/rand"
	"testing"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
	"redistgo/internal/trafficgen"
)

// respShape is one served schedule shape, solved the way redist-serve
// solves it (ShardAuto).
type respShape struct {
	name string
	m    [][]int64
	k    int
	beta int64
	alg  kpbs.Algorithm
}

// respShapes are the response shapes of three redistbench workloads, from
// trafficgen seed 1: dense64-ggp, powerlaw256-oggp and the dense 16×16 GGP
// family of mixed-small.
func respShapes() []respShape {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(1)) }
	return []respShape{
		{"DenseGGP64", trafficgen.DenseUniform(rng(), 64, 64, 1, 20), 32, 1, kpbs.GGP},
		{"PowerLawOGGP256", trafficgen.PowerLawSparse(rng(), 256, 256, 2000, 1.3, 1, 1000), 32, 1, kpbs.OGGP},
		{"MixedSmallGGP16", trafficgen.DenseUniform(rng(), 16, 16, 1, 1<<16), 3, 64, kpbs.GGP},
	}
}

func (s respShape) schedule(tb testing.TB) *kpbs.Schedule {
	tb.Helper()
	g, err := bipartite.FromMatrix(s.m)
	if err != nil {
		tb.Fatal(err)
	}
	sched, err := kpbs.Solve(g, s.k, s.beta, kpbs.Options{Algorithm: s.alg, Shard: kpbs.ShardAuto})
	if err != nil {
		tb.Fatal(err)
	}
	return sched
}

var (
	benchPayload []byte
	benchResp    SolveResponse
)

// BenchmarkSolveResp times EncodeSolveResp and DecodeSolveResp on each
// response shape and reports the payload size.
func BenchmarkSolveResp(b *testing.B) {
	for _, s := range respShapes() {
		sched := s.schedule(b)
		p, err := EncodeSolveResp(1, sched, TraceContext{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchPayload, err = EncodeSolveResp(1, sched, TraceContext{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(p)), "payload-B")
		})
		b.Run(s.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchResp, err = DecodeSolveResp(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(p)), "payload-B")
		})
	}
}
