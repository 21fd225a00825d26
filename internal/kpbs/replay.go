package kpbs

import "fmt"

// Trajectory replay (GGP delta solving; see delta.go and DESIGN.md §13).
//
// runTracked is run() (residual.go) plus recording and replay. It always
// records the trajectory of the run into rec: the matched edge per left
// node at every iteration and the edge-death sequence. Given a previous
// recording (old != nil) it replays it instead of rematching:
//
//   - Sync mode: the next matching is taken from the recording and only
//     the arithmetic runs — subtract the minimum matched weight from the
//     row, emit the step, deactivate the zeroes. This is sound because the
//     matchAny matcher is memoryless in the weights: its matching is a
//     pure function of (active edge set, previous matching), so as long as
//     our edge-death sequence aligns with the recording's per iteration,
//     the recorded matchings are exactly what the matcher would produce.
//   - Divergence: when the deaths stop aligning, the last replayed
//     matching's survivors are handed to the matcher (Adopt) and real
//     iterations take over — from that state, rematch() computes exactly
//     what a cold run on the edited weights would.
//   - Resync: the death multisets are tracked incrementally (dcnt holds
//     the per-edge balance of ours minus the recording's prefix, mismatch
//     the number of unbalanced edges). When, at a real iteration boundary,
//     the multisets rebalance exactly at a recorded iteration boundary and
//     the surviving matchings coincide, the two runs are in identical
//     states and replay resumes.
//
// run() itself is untouched: cold solves never pay for any of this.
//
//redistlint:hotpath
func (p *peeler) runTracked(old, rec *trajectory, st *DeltaStats) ([]normStep, error) {
	remaining := p.in.regular
	nL := p.in.nL
	m := len(p.in.edges)
	maxIter := m + 1

	rec.nL = nL
	rec.iters = 0
	rec.matched = rec.matched[:0]
	rec.zeroed = rec.zeroed[:0]
	rec.zeroEnd = rec.zeroEnd[:0]

	if old != nil && (old.nL != nL || old.iters == 0) {
		old = nil
	}
	p.dcnt = ensureInt32s(p.dcnt, m)
	p.deadNow = ensureBools(p.deadNow, m)
	for i := 0; i < m; i++ {
		p.dcnt[i] = 0
		p.deadNow[i] = false
	}
	tracking := old != nil // our deaths are still comparable to the recording's
	syncing := old != nil  // next iteration replays old.matched[oldIter]
	oldIter := 0           // next recorded iteration to replay
	resyncU := 0           // resync scan cursor over recorded iterations
	deaths := 0            // total edge deactivations so far
	mismatch := 0          // edges whose death multisets disagree

	for iter := 0; remaining > 0; iter++ {
		if iter > maxIter {
			return nil, fmt.Errorf("kpbs: peeling did not terminate after %d iterations", maxIter)
		}
		if syncing && oldIter >= old.iters {
			// The recording is exhausted but weight remains (the edited
			// weights outlast it). Install the last replayed matching's
			// survivors and continue with real iterations.
			syncing = false
			tracking = false
			p.inc.Adopt(rec.matched[(rec.iters-1)*nL : rec.iters*nL])
		}
		if syncing {
			row := old.matched[oldIter*nL : (oldIter+1)*nL]
			var w int64
			for l := 0; l < nL; l++ {
				we := p.w[row[l]]
				if l == 0 || we < w {
					w = we
				}
			}
			if w <= 0 {
				return nil, fmt.Errorf("kpbs: matching with non-positive minimum weight %d", w)
			}
			//redistlint:allow hotpath trajectory arena append; capacity is retained across deltas and TestDeltaSteadyStateAllocs asserts zero steady-state allocations
			rec.matched = append(rec.matched, row...)
			start := len(p.comms)
			for l := 0; l < nL; l++ {
				e := int(row[l])
				p.w[e] -= w
				if orig := p.in.edges[e].orig; orig >= 0 {
					//redistlint:allow hotpath arena append; capacity is retained across runs and TestDeltaSteadyStateAllocs asserts zero steady-state allocations
					p.comms = append(p.comms, int32(orig))
				}
				if p.w[e] == 0 {
					p.deactivate(e)
					p.deadNow[e] = true
					//redistlint:allow hotpath trajectory arena append; capacity is retained across deltas and TestDeltaSteadyStateAllocs asserts zero steady-state allocations
					rec.zeroed = append(rec.zeroed, int32(e))
					deaths++
					if tracking {
						if deaths > len(old.zeroed) {
							tracking = false
						} else {
							mismatch = p.noteDeath(e, old.zeroed[deaths-1], mismatch)
						}
					}
				}
			}
			if p.so != nil {
				// The replayed matching is perfect and fully reused.
				p.so.Peel(iter, nL, nL, w, p.active)
			}
			if len(p.comms) > start {
				//redistlint:allow hotpath arena append; capacity is retained across runs and TestDeltaSteadyStateAllocs asserts zero steady-state allocations
				p.offs = append(p.offs, start)
				//redistlint:allow hotpath arena append; capacity is retained across runs and TestDeltaSteadyStateAllocs asserts zero steady-state allocations
				p.steps = append(p.steps, normStep{peel: w})
			}
			remaining -= w
			//redistlint:allow hotpath trajectory arena append; capacity is retained across deltas and TestDeltaSteadyStateAllocs asserts zero steady-state allocations
			rec.zeroEnd = append(rec.zeroEnd, int32(len(rec.zeroed)))
			rec.iters++
			st.Replayed++
			if tracking && mismatch == 0 && deaths == int(old.zeroEnd[oldIter]) {
				oldIter++
			} else {
				// Diverged: the matcher takes over from the survivors of the
				// matching we just applied.
				syncing = false
				st.Divergences++
				p.inc.Adopt(row)
				if oldIter > resyncU {
					resyncU = oldIter
				}
			}
			continue
		}

		// Real iteration: the run() loop body (residual.go) plus recording
		// and the resync probe.
		reused := 0
		if p.so != nil {
			reused = p.matchedPairs()
		}
		if !p.rematch() {
			return nil, fmt.Errorf("kpbs: no perfect matching in weight-regular graph (R=%d, remaining=%d); augmentation is broken", p.in.regular, remaining)
		}
		var w int64
		for l := 0; l < nL; l++ {
			we := p.w[p.matchedEdge(l)]
			if l == 0 || we < w {
				w = we
			}
		}
		if w <= 0 {
			return nil, fmt.Errorf("kpbs: matching with non-positive minimum weight %d", w)
		}
		start := len(p.comms)
		for l := 0; l < nL; l++ {
			e := p.matchedEdge(l)
			//redistlint:allow hotpath trajectory arena append; capacity is retained across deltas and TestDeltaSteadyStateAllocs asserts zero steady-state allocations
			rec.matched = append(rec.matched, int32(e))
			p.w[e] -= w
			if orig := p.in.edges[e].orig; orig >= 0 {
				//redistlint:allow hotpath arena append; capacity is retained across runs and TestDeltaSteadyStateAllocs asserts zero steady-state allocations
				p.comms = append(p.comms, int32(orig))
			}
			if p.w[e] == 0 {
				p.deactivate(e)
				p.deadNow[e] = true
				//redistlint:allow hotpath trajectory arena append; capacity is retained across deltas and TestDeltaSteadyStateAllocs asserts zero steady-state allocations
				rec.zeroed = append(rec.zeroed, int32(e))
				deaths++
				if tracking {
					if deaths > len(old.zeroed) {
						tracking = false
					} else {
						mismatch = p.noteDeath(e, old.zeroed[deaths-1], mismatch)
					}
				}
			}
		}
		if p.so != nil {
			p.so.Peel(iter, nL, reused, w, p.active)
		}
		if len(p.comms) > start {
			//redistlint:allow hotpath arena append; capacity is retained across runs and TestDeltaSteadyStateAllocs asserts zero steady-state allocations
			p.offs = append(p.offs, start)
			//redistlint:allow hotpath arena append; capacity is retained across runs and TestDeltaSteadyStateAllocs asserts zero steady-state allocations
			p.steps = append(p.steps, normStep{peel: w})
		}
		remaining -= w
		//redistlint:allow hotpath trajectory arena append; capacity is retained across deltas and TestDeltaSteadyStateAllocs asserts zero steady-state allocations
		rec.zeroEnd = append(rec.zeroEnd, int32(len(rec.zeroed)))
		rec.iters++
		st.Repaired++
		if tracking && mismatch == 0 {
			for resyncU < old.iters && int(old.zeroEnd[resyncU]) < deaths {
				resyncU++
			}
			if resyncU < old.iters && int(old.zeroEnd[resyncU]) == deaths &&
				p.sameSurvivors(old.matched[resyncU*nL:(resyncU+1)*nL]) {
				// Identical dead sets (mismatch == 0 at equal counts) and
				// identical surviving matchings: the states coincide, so the
				// recorded future is our future.
				syncing = true
				oldIter = resyncU + 1
				st.Resyncs++
			}
		}
	}
	for i, e := range p.in.edges {
		if p.w[i] != 0 {
			return nil, fmt.Errorf("kpbs: edge (%d,%d) has residual weight %d after peeling", e.l, e.r, p.w[i])
		}
	}
	for i := range p.steps {
		end := len(p.comms)
		if i+1 < len(p.steps) {
			end = p.offs[i+1]
		}
		p.steps[i].comms = p.comms[p.offs[i]:end:end]
	}
	st.Iterations = rec.iters
	return p.steps, nil
}

// noteDeath balances our latest death e against the recording's death at
// the same position f: dcnt[x] is (our deaths of x) − (recorded deaths of
// x) over the compared prefix, mismatch the number of edges with a
// non-zero balance. O(1) per death.
//
//redistlint:hotpath
func (p *peeler) noteDeath(e int, f int32, mismatch int) int {
	c := p.dcnt[e]
	if c == 0 {
		mismatch++
	} else if c == -1 {
		mismatch--
	}
	p.dcnt[e] = c + 1
	c = p.dcnt[f]
	if c == 0 {
		mismatch++
	} else if c == 1 {
		mismatch--
	}
	p.dcnt[f] = c - 1
	return mismatch
}

// sameSurvivors reports whether the matcher's current matching equals the
// given recorded matching with our dead edges removed. Called only when
// the dead sets are known to coincide, so equality means identical
// matcher states.
//
//redistlint:hotpath
func (p *peeler) sameSurvivors(row []int32) bool {
	for l, e32 := range row {
		e := int(e32)
		want := e
		if p.deadNow[e] {
			want = -1
		}
		if p.matchedEdge(l) != want {
			return false
		}
	}
	return true
}
