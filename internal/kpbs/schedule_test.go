package kpbs

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"redistgo/internal/bipartite"
)

func TestScheduleCostArithmetic(t *testing.T) {
	s := &Schedule{
		Beta: 2,
		Steps: []Step{
			{Comms: []Comm{{L: 0, R: 0, Amount: 5}}, Duration: 5},
			{Comms: []Comm{{L: 0, R: 1, Amount: 3}}, Duration: 3},
		},
	}
	if s.NumSteps() != 2 {
		t.Fatalf("NumSteps = %d", s.NumSteps())
	}
	if s.TotalDuration() != 8 {
		t.Fatalf("TotalDuration = %d, want 8", s.TotalDuration())
	}
	if s.Cost() != 12 {
		t.Fatalf("Cost = %d, want 12 = 8 + 2*2", s.Cost())
	}
	if s.MaxConcurrency() != 1 {
		t.Fatalf("MaxConcurrency = %d, want 1", s.MaxConcurrency())
	}
}

func TestValidateRejections(t *testing.T) {
	g := mustGraph(t, [][]int64{
		{4, 0},
		{0, 6},
	})
	valid := func() *Schedule {
		return &Schedule{Beta: 1, Steps: []Step{
			{Comms: []Comm{{0, 0, 4}, {1, 1, 6}}, Duration: 6},
		}}
	}
	if err := valid().Validate(g, 2); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Schedule)
	}{
		{"empty step", func(s *Schedule) {
			s.Steps = append(s.Steps, Step{})
		}},
		{"too many comms for k", func(s *Schedule) {
			// validated with k=1 below via special-case
		}},
		{"negative amount", func(s *Schedule) {
			s.Steps[0].Comms[0].Amount = -4
		}},
		{"left node out of range", func(s *Schedule) {
			s.Steps[0].Comms[0].L = 9
		}},
		{"right node out of range", func(s *Schedule) {
			s.Steps[0].Comms[0].R = 9
		}},
		{"duration mismatch", func(s *Schedule) {
			s.Steps[0].Duration = 99
		}},
		{"under-transfer", func(s *Schedule) {
			s.Steps[0].Comms[0].Amount = 3
			s.Steps[0].Duration = 6
		}},
		{"traffic on empty pair", func(s *Schedule) {
			s.Steps = append(s.Steps, Step{Comms: []Comm{{0, 1, 2}}, Duration: 2})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := valid()
			tc.mutate(s)
			k := 2
			if tc.name == "too many comms for k" {
				k = 1
			}
			if err := s.Validate(g, k); err == nil {
				t.Fatal("invalid schedule accepted")
			}
		})
	}
}

func TestValidateOnePortViolations(t *testing.T) {
	g := mustGraph(t, [][]int64{
		{4, 3},
		{2, 0},
	})
	// Left node 0 sends twice in one step.
	s := &Schedule{Beta: 1, Steps: []Step{
		{Comms: []Comm{{0, 0, 4}, {0, 1, 3}}, Duration: 4},
		{Comms: []Comm{{1, 0, 2}}, Duration: 2},
	}}
	if err := s.Validate(g, 3); err == nil {
		t.Fatal("1-port sender violation accepted")
	}
	// Right node 0 receives twice in one step.
	s = &Schedule{Beta: 1, Steps: []Step{
		{Comms: []Comm{{0, 0, 4}, {1, 0, 2}}, Duration: 4},
		{Comms: []Comm{{0, 1, 3}}, Duration: 3},
	}}
	if err := s.Validate(g, 3); err == nil {
		t.Fatal("1-port receiver violation accepted")
	}
}

func TestScheduleStringAndGantt(t *testing.T) {
	g := mustGraph(t, [][]int64{
		{4, 0},
		{0, 6},
	})
	s, err := Solve(g, 2, 1, Options{Algorithm: OGGP})
	if err != nil {
		t.Fatal(err)
	}
	str := s.String()
	if !strings.Contains(str, "steps") || !strings.Contains(str, "cost") {
		t.Fatalf("String output missing fields: %q", str)
	}
	gantt := s.Gantt(g.LeftCount())
	if !strings.Contains(gantt, "L0") || !strings.Contains(gantt, "L1") {
		t.Fatalf("Gantt output missing rows: %q", gantt)
	}
}

func TestWRGPOnRegularGraph(t *testing.T) {
	// 2x2 graph, every node weight 7.
	g := bipartite.New(2, 2)
	g.AddEdge(0, 0, 3)
	g.AddEdge(0, 1, 4)
	g.AddEdge(1, 0, 4)
	g.AddEdge(1, 1, 3)
	for _, bottleneck := range []bool{false, true} {
		s, err := SolveWRGP(g, bottleneck)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(g, 2); err != nil {
			t.Fatal(err)
		}
		// Every WRGP step is a perfect matching of real edges.
		for i, st := range s.Steps {
			if len(st.Comms) != 2 {
				t.Fatalf("bottleneck=%v step %d has %d comms, want 2", bottleneck, i, len(st.Comms))
			}
		}
		// Full bandwidth: Σ durations = R = 7.
		if s.TotalDuration() != 7 {
			t.Fatalf("bottleneck=%v total duration %d, want 7", bottleneck, s.TotalDuration())
		}
	}
}

func TestWRGPRejectsIrregular(t *testing.T) {
	g := bipartite.New(2, 2)
	g.AddEdge(0, 0, 3)
	if _, err := SolveWRGP(g, false); err == nil {
		t.Fatal("irregular graph accepted")
	}
}

func TestWRGPRejectsUnbalanced(t *testing.T) {
	g := bipartite.New(1, 2)
	g.AddEdge(0, 0, 2)
	g.AddEdge(0, 1, 2)
	if _, err := SolveWRGP(g, false); err == nil {
		t.Fatal("unbalanced graph accepted")
	}
	if _, err := SolveWRGP(bipartite.New(1, 2), false); err == nil {
		t.Fatal("unbalanced empty graph accepted")
	}
}

func TestWRGPEmptyGraph(t *testing.T) {
	s, err := SolveWRGP(bipartite.New(3, 3), true)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumSteps() != 0 {
		t.Fatalf("steps = %d, want 0", s.NumSteps())
	}
}

func TestQuickWRGPOnRandomRegularGraphs(t *testing.T) {
	// Sum d random permutation matchings with a shared weight per
	// permutation: the result is weight-regular by construction.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		d := 1 + rng.Intn(4)
		g := bipartite.New(n, n)
		var r int64
		for i := 0; i < d; i++ {
			w := 1 + rng.Int63n(9)
			r += w
			for l, rr := range rng.Perm(n) {
				g.AddEdge(l, rr, w)
			}
		}
		for _, bottleneck := range []bool{false, true} {
			s, err := SolveWRGP(g, bottleneck)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if err := s.Validate(g, n); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if s.TotalDuration() != r {
				t.Logf("seed %d: duration %d, want %d", seed, s.TotalDuration(), r)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundComponents(t *testing.T) {
	g := mustGraph(t, [][]int64{
		{5, 3},
		{0, 4},
	})
	// W(G): w(L0)=8, w(L1)=4, w(R0)=5, w(R1)=7 -> 8. P=12, m=3, Δ=2.
	if got := EtaD(g, 2); got != 8 {
		t.Fatalf("EtaD = %d, want max(8, ceil(12/2))=8", got)
	}
	if got := EtaD(g, 1); got != 12 {
		t.Fatalf("EtaD k=1 = %d, want 12", got)
	}
	if got := EtaS(g, 2); got != 2 {
		t.Fatalf("EtaS = %d, want max(2, ceil(3/2))=2", got)
	}
	if got := EtaS(g, 1); got != 3 {
		t.Fatalf("EtaS k=1 = %d, want 3", got)
	}
	if got := LowerBound(g, 2, 10); got != 8+20 {
		t.Fatalf("LB = %d, want 28", got)
	}
	empty := bipartite.New(2, 2)
	if LowerBound(empty, 2, 5) != 0 {
		t.Fatal("LB of empty graph should be 0")
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, c := range []struct {
		a    Algorithm
		want string
	}{{GGP, "GGP"}, {OGGP, "OGGP"}, {MinSteps, "MinSteps"}, {Greedy, "Greedy"}} {
		if c.a.String() != c.want {
			t.Fatalf("%d.String() = %q, want %q", int(c.a), c.a.String(), c.want)
		}
	}
	if !strings.Contains(Algorithm(42).String(), "42") {
		t.Fatal("unknown algorithm String should embed the value")
	}
}

// TestCommSize pins a communication at 16 bytes: two int32 endpoints and
// an int64 amount. Every schedule a solve builds, a Result retains and the
// wire decodes is an array of them, so their width is most of a dense
// schedule's memory.
func TestCommSize(t *testing.T) {
	if got := unsafe.Sizeof(Comm{}); got != 16 {
		t.Fatalf("kpbs.Comm takes %d bytes, want 16", got)
	}
}
