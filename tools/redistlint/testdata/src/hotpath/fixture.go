// Package hotpath is a redistlint self-test fixture for the
// zero-allocation annotation rule.
package hotpath

import "redistgo/internal/obs"

type comm struct{ l, r int }

type arena struct {
	buf   []comm
	stash *comm
}

//redistlint:hotpath
func (a *arena) hotViolations(n int) {
	a.buf = append(a.buf, comm{l: n}) // want "append in hotpath-annotated function"
	s := make([]int, n)               // want "make in hotpath-annotated function"
	_ = s
	p := new(comm) // want "new in hotpath-annotated function"
	_ = p
	a.stash = &comm{l: n}        // want `&composite literal \(escapes to heap\)`
	f := func() int { return n } // want "closure in hotpath-annotated function"
	_ = f()
	xs := []int{1, 2, 3} // want "allocating composite literal"
	_ = xs
}

//redistlint:hotpath
func (a *arena) hotClean(n int) comm {
	// Value literals stay on the stack and are exempt.
	c := comm{l: n, r: n}
	for i := range a.buf {
		a.buf[i] = c
	}
	return c
}

//redistlint:hotpath
func (a *arena) hotJustified(c comm) {
	//redistlint:allow hotpath arena append; capacity retained across runs, asserted by an AllocsPerRun test
	a.buf = append(a.buf, c)
}

// meters exercises the observability rule: hot code may use pre-resolved
// nil-safe handles and views but never the registry/observer entry points.
type meters struct {
	reg *obs.Registry
	o   *obs.Observer
	ctr *obs.Counter
	so  *obs.SolverObs
	rec *obs.ReqRec
}

//redistlint:hotpath
func (m *meters) hotObsViolations(v int64) {
	m.reg.Counter("peels").Inc() // want `obs\.Registry method call`
	m.o.Solver("GGP")            // want `obs\.Observer method call`
}

//redistlint:hotpath
func (m *meters) hotObsClean(v int64) {
	// Handle and view methods are the sanctioned path: nil-safe no-ops
	// when instrumentation is off, plain atomics when it is on. A session's
	// *ReqRec may be marked in hot code.
	m.ctr.Add(v)
	m.so.Peel(0, 1, 1, v, 2)
	m.rec.Mark(obs.PhaseSolve)
}

// The delta-repair loops (kpbs delta solving) lean on three shapes that
// must stay exempt: re-slicing retained arenas to zero length, clearing a
// scratch map with a delete loop, and binary search over retained keys.
// None of them allocates; flagging them would force allow-comments onto
// every delta hot function.
//
//redistlint:hotpath
func (a *arena) hotDeltaClean(keys []uint64, idx map[uint64]int, want uint64) int {
	a.buf = a.buf[:0]
	for k := range idx {
		delete(idx, k)
	}
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Building the scratch map itself, though, is a cold-path job: a map
// literal (or make) inside a hot function is an allocation per call.
//
//redistlint:hotpath
func (a *arena) hotDeltaViolations(k uint64) map[uint64]int {
	idx := map[uint64]int{} // want "allocating composite literal"
	idx[k] = 1
	return idx
}

// coldPath is unannotated: it may allocate freely, and it may resolve the
// handles that hot code consumes.
func coldPath(n int, reg *obs.Registry) []comm {
	reg.Counter("cold").Inc()
	out := make([]comm, 0, n)
	return append(out, comm{})
}
