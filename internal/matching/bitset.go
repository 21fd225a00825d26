package matching

// Engine selects the candidate-iteration kernel inside the incremental
// matcher BottleneckInc, in either mode. Both kernels traverse the
// candidate edges of a left node in the same canonical order — right
// endpoint ascending, lowest edge index first among parallel edges — so
// they produce byte-identical matchings and, through the peeling loop,
// byte-identical schedules (DESIGN.md §11 carries the argument). The
// scalar arm serves sparse graphs and is the differential oracle of the
// fuzz targets.
type Engine int

const (
	// EngineAuto — the zero value and the default — picks the bitset
	// kernels when BitsetEligible says the graph is dense enough for
	// word-parallel sweeps to win, and the scalar kernels otherwise.
	EngineAuto Engine = iota
	// EngineScalar forces the scalar kernels (per-edge adjacency scans).
	EngineScalar
	// EngineBitset forces the bitset kernels wherever the nL×nR cell grid
	// is representable (bitsetRepresentable); the density heuristic is
	// bypassed. Intended for tests and benchmarks that need the bitset arm
	// on sparse or threshold-straddling graphs.
	EngineBitset
)

// String returns the engine's flag spelling.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineScalar:
		return "scalar"
	case EngineBitset:
		return "bitset"
	}
	return "engine(?)"
}

// maxBitsetCells caps the nL×nR cell grid the bitset kernels will
// materialize: the per-cell parallel-edge index costs one int per cell, so
// the cap bounds that side table to a few MB (2^18 cells ≈ 2 MB) while
// still covering every dense instance the schedulers see (a 512×512
// all-to-all augments to 1024×1024 > cap, but such instances are sparse
// per row at that size and lose eligibility on density first).
const maxBitsetCells = 1 << 18

// bitsetDensityFactor is the average active degree, measured in adjacency
// row words, above which the word-parallel sweep beats the scalar scan: a
// row word costs one mask-and-shift regardless of how many of its 64 bits
// are set, so the bitset arm wins once edges outnumber row words by a
// comfortable constant. 8 was measured on the dense-64×64 and power-law
// acceptance workloads (see BENCH_PR7.json): dense GGP sits far above the
// threshold, the power-law tails far below.
const bitsetDensityFactor = 8

// rowWords returns the stride, in uint64 words, of a bitset over nR right
// vertices.
func rowWords(nR int) int { return (nR + 63) >> 6 }

// setLowBits sets bits [0, n) of the bitset words and clears the rest.
func setLowBits(words []uint64, n int) {
	clear(words)
	for i := 0; i < n>>6; i++ {
		words[i] = ^uint64(0)
	}
	if n&63 != 0 {
		words[n>>6] = 1<<uint(n&63) - 1
	}
}

// bitsetRepresentable reports whether the bitset side tables for an
// nL×nR grid fit under maxBitsetCells.
func bitsetRepresentable(nL, nR int) bool {
	if nL <= 0 || nR <= 0 {
		return false
	}
	return nL <= maxBitsetCells/nR
}

// BitsetEligible is the density heuristic behind EngineAuto: true when the
// nL×nR grid is representable and the m edges fill the adjacency rows
// densely enough (m ≥ bitsetDensityFactor · nL · rowWords(nR)) for
// word-parallel frontier sweeps to beat per-edge scans.
func BitsetEligible(nL, nR, m int) bool {
	if !bitsetRepresentable(nL, nR) {
		return false
	}
	return m >= bitsetDensityFactor*nL*rowWords(nR)
}

// resolveEngine maps an Engine request onto the concrete kernel choice for
// one matcher instance.
func resolveEngine(e Engine, nL, nR, m int) bool {
	switch e {
	case EngineScalar:
		return false
	case EngineBitset:
		return bitsetRepresentable(nL, nR)
	default:
		return BitsetEligible(nL, nR, m)
	}
}
