package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"redistgo/internal/bipartite"
	"redistgo/internal/kpbs"
	"redistgo/internal/wire"
)

// span is one timed interval of a traced run.
type span struct {
	name       string
	parent     int    // index of the enclosing span, -1 for a root
	req        uint64 // request id shared by the spans of one request
	pid, tid   int    // Chrome trace process and lane
	start, end time.Duration
}

// tracer keeps a traced run's spans in memory; writeChrome writes them out
// when the run ends. Times are durations since the tracer's epoch.
type tracer struct {
	epoch     time.Time
	mu        sync.Mutex
	spans     []span
	processes map[int]string
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), processes: map[int]string{}} }

// add records a span and returns its index, the parent of later spans.
func (t *tracer) add(name string, parent int, req uint64, pid, tid int, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, pid: pid, tid: tid, start: start, end: end})
	return len(t.spans) - 1
}

// finish sets the end of a span opened with an unknown end.
func (t *tracer) finish(i int, end time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = end
}

func (t *tracer) since() time.Duration { return time.Since(t.epoch) }

// selfTimes is each span's duration minus the part of it its children
// cover.
func (t *tracer) selfTimes() []time.Duration {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		var iv [][2]time.Duration
		for _, k := range kids[i] {
			c := t.spans[k]
			if a, b := max(c.start, s.start), min(c.end, s.end); a < b {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach time.Duration
		for _, v := range iv {
			if v[0] > reach {
				reach = v[0]
			}
			if v[1] > reach {
				covered += v[1] - reach
				reach = v[1]
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// selfByName totals the self time of the spans with each name, in ms.
func (t *tracer) selfByName(pid int) map[string]float64 {
	out := map[string]float64{}
	for i, d := range t.selfTimes() {
		if s := t.spans[i]; s.pid == pid || s.pid == pid+1 {
			out[s.name] += millis(d)
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace_event file (open it in
// chrome://tracing or ui.perfetto.dev). Each span's args carry its request
// id, its parent's index and its self time.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	var events []event
	for pid, name := range t.processes {
		events = append(events, event{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
	}
	sort.Slice(events, func(a, b int) bool { return events[a].PID < events[b].PID })
	self := t.selfTimes()
	for i, s := range t.spans {
		events = append(events, event{Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start), PID: s.pid, TID: s.tid,
			Args: map[string]any{"req": s.req, "parent": s.parent, "self_us": us(self[i])}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
}

// layerSamples are the replay's per-call measurements; times in µs.
type layerSamples struct {
	encReq, frameRW, decReq, graph, solve, newResult, delta, encDelta, decDelta, encResp, decResp []float64
	solveAllocs, solveBytes, encRespAllocs, decRespAllocs, steps, comms, respBytes                []float64
	paths                                                                                         [kpbs.DeltaCold + 1]int
}

// replayer calls each layer's public function in the server's order on a
// single goroutine, with the server stopped, so every call is timed and its
// allocations counted alone.
type replayer struct {
	w    *workload
	v1   layout
	tr   *tracer
	pid  int
	root int    // span of the request being replayed
	req  uint64 // its request id
	buf  bytes.Buffer
	ls   layerSamples
	err  error // first failure; later calls are skipped
}

// cost is one call's wall time and heap allocations.
type cost struct{ us, objects, bytes float64 }

// call runs f under the current request's span. ReadMemStats stops the
// world to count allocations exactly, so only the replay uses it, and
// outside the timed interval.
func (r *replayer) call(name string, f func() error) cost {
	if r.err != nil {
		return cost{}
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	start := r.tr.since()
	err := f()
	end := r.tr.since()
	runtime.ReadMemStats(&b)
	r.tr.add(name, r.root, r.req, r.pid, 0, start, end)
	if err != nil {
		r.err = fmt.Errorf("replay %s request %d: %s: %w", r.w.name, r.req, name, err)
	}
	return cost{float64((end - start).Nanoseconds()) / 1e3, float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)}
}

// begin opens the root span of one replayed request; the returned function
// closes it.
func (r *replayer) begin(name string, req uint64) func() {
	r.req = req
	r.root = r.tr.add(name, -1, req, r.pid, 0, r.tr.since(), 0)
	return func() { r.tr.finish(r.root, r.tr.since()) }
}

// roundTrip writes a frame and reads it back through memory.
func (r *replayer) roundTrip(t wire.MsgType, p []byte) (wire.Frame, error) {
	r.buf.Reset()
	if err := wire.Write(&r.buf, wire.Frame{Type: t, Payload: p}); err != nil {
		return wire.Frame{}, err
	}
	return wire.Read(&r.buf)
}

// solve replays one solve request: encode, frame, decode, graph, solve,
// encode and frame the response, decode it; the response must match.
func (r *replayer) solve(it *item, id uint64) {
	defer r.begin("replay.solve", id)()
	var (
		p, resp []byte
		f       wire.Frame
		req     wire.SolveRequest
		g       *bipartite.Graph
		s       *kpbs.Schedule
	)
	ls := &r.ls
	c := r.call("wire.encode_req", func() (err error) {
		in := it.req
		in.ID = id
		p, err = wire.EncodeSolveReq(in)
		return err
	})
	ls.encReq = append(ls.encReq, c.us)
	rw := r.call("wire.frame_rw", func() (err error) { f, err = r.roundTrip(wire.MsgSolveReq, p); return err })
	c = r.call("wire.decode_req", func() (err error) { req, err = wire.DecodeSolveReq(f.Payload); return err })
	ls.decReq = append(ls.decReq, c.us)
	c = r.call("bipartite.graph", func() error { g = req.Graph(); return nil })
	ls.graph = append(ls.graph, c.us)
	c = r.call("kpbs.solve", func() (err error) { s, err = kpbs.Solve(g, req.K, req.Beta, options(req)); return err })
	ls.solve, ls.solveAllocs, ls.solveBytes = append(ls.solve, c.us), append(ls.solveAllocs, c.objects), append(ls.solveBytes, c.bytes)
	c = r.call("wire.encode_resp", func() (err error) { resp, err = wire.EncodeSolveResp(req.ID, s, wire.TraceContext{}); return err })
	ls.encResp, ls.encRespAllocs = append(ls.encResp, c.us), append(ls.encRespAllocs, c.objects)
	c = r.call("wire.frame_rw", func() (err error) { f, err = r.roundTrip(wire.MsgSolveResp, resp); return err })
	ls.frameRW = append(ls.frameRW, rw.us+c.us)
	c = r.call("wire.decode_resp", func() (err error) { _, err = wire.DecodeSolveResp(f.Payload); return err })
	ls.decResp, ls.decRespAllocs = append(ls.decResp, c.us), append(ls.decRespAllocs, c.objects)
	if r.err != nil {
		return
	}
	if !r.v1.match(resp, it.want) {
		r.err = fmt.Errorf("replay %s request %d: schedule differs from the expected one", r.w.name, id)
	}
	comms := 0
	for _, st := range s.Steps {
		comms += len(st.Comms)
	}
	ls.steps, ls.comms = append(ls.steps, float64(len(s.Steps))), append(ls.comms, float64(comms))
	ls.respBytes = append(ls.respBytes, float64(len(resp)))
}

// newResult builds the retained solve a delta chain starts from.
func (r *replayer) newResult(it *item) *kpbs.Result {
	var res *kpbs.Result
	c := r.call("kpbs.new_result", func() (err error) {
		res, err = kpbs.NewResult(it.g, r.w.k, r.w.beta, options(it.req))
		return err
	})
	r.ls.newResult = append(r.ls.newResult, c.us)
	return res
}

// delta sends edits through the delta codec and applies them to res. When
// want is set the schedule must be its expected one.
func (r *replayer) delta(res *kpbs.Result, edits []kpbs.Edit, want *item) {
	var (
		p []byte
		d wire.DeltaRequest
		s *kpbs.Schedule
	)
	ls := &r.ls
	c := r.call("wire.encode_delta", func() (err error) {
		p, err = wire.EncodeDeltaReq(wire.DeltaRequest{ID: r.req + 1, Base: r.req, Edits: edits})
		return err
	})
	ls.encDelta = append(ls.encDelta, c.us)
	c = r.call("wire.decode_delta", func() (err error) { d, err = wire.DecodeDeltaReq(p); return err })
	ls.decDelta = append(ls.decDelta, c.us)
	c = r.call("kpbs.solve_delta", func() (err error) { s, err = res.SolveDelta(d.Edits); return err })
	ls.delta = append(ls.delta, c.us)
	if r.err != nil {
		return
	}
	ls.paths[res.Stats().Path]++
	if want == nil {
		return
	}
	if got, err := wire.EncodeSolveResp(0, s, wire.TraceContext{}); err != nil || !r.v1.match(got, want.want) {
		r.err = errors.Join(err, fmt.Errorf("replay %s delta %d: schedule differs from the expected one", r.w.name, r.req))
	}
}

// replay walks the workload's instances (and delta chains) through every
// layer and returns the per-layer metrics.
func replay(w *workload, t *traffic, tr *tracer, pid int) (measures, error) {
	v1, err := deriveLayout(false)
	if err != nil {
		return nil, err
	}
	r := &replayer{w: w, v1: v1, tr: tr, pid: pid}
	items := t.items
	if w.replay > 0 && w.replay < len(items) {
		items = items[:w.replay]
	}
	for i, it := range items {
		r.solve(it, uint64(i+1))
	}
	if len(t.chains) == 0 {
		// Pool workloads: one EditStream round on each instance.
		for i, it := range items {
			end := r.begin("replay.delta", uint64(i+1))
			if res := r.newResult(it); res != nil {
				r.delta(res, it.edits, nil)
			}
			end()
		}
	}
	for ci, c := range t.chains {
		id := uint64(ci+1) << 32
		end := r.begin("replay.chain", id)
		res := r.newResult(c.states[0])
		end()
		for pos, edits := range c.rounds {
			if res == nil {
				break
			}
			end := r.begin("replay.delta", id+uint64(pos)+1)
			r.delta(res, edits, c.stateAfter(pos))
			end()
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return r.ls.measures(), nil
}

func (ls *layerSamples) measures() measures {
	out := measures{}
	p50 := func(name string, xs []float64, scale float64) { out.set(name, percentile(xs, 50)*scale, len(xs)) }
	avg := func(name string, xs []float64, scale float64) { out.set(name, mean(xs)*scale, len(xs)) }
	p50("kpbs.solve_p50_ms", ls.solve, 1e-3)
	avg("kpbs.steps_mean", ls.steps, 1)
	avg("kpbs.comms_mean", ls.comms, 1)
	avg("kpbs.solve_allocs", ls.solveAllocs, 1)
	avg("kpbs.solve_kb", ls.solveBytes, 1.0/1024)
	p50("kpbs.new_result_p50_ms", ls.newResult, 1e-3)
	p50("kpbs.delta_p50_ms", ls.delta, 1e-3)
	total := 0
	for _, n := range ls.paths {
		total += n
	}
	share := func(ps ...kpbs.DeltaPath) float64 {
		n := 0
		for _, p := range ps {
			n += ls.paths[p]
		}
		return float64(n) / float64(total)
	}
	for p := kpbs.DeltaReuse; p <= kpbs.DeltaCold; p++ {
		out.set("kpbs.delta_share."+p.String(), share(p), total)
	}
	out.set("kpbs.delta_shortcut_share", share(kpbs.DeltaReuse, kpbs.DeltaReplay, kpbs.DeltaRerun), total)
	p50("wire.encode_req_p50_us", ls.encReq, 1)
	p50("wire.decode_req_p50_us", ls.decReq, 1)
	p50("wire.encode_resp_p50_us", ls.encResp, 1)
	p50("wire.decode_resp_p50_us", ls.decResp, 1)
	avg("wire.encode_resp_allocs", ls.encRespAllocs, 1)
	avg("wire.decode_resp_allocs", ls.decRespAllocs, 1)
	avg("wire.resp_kb_mean", ls.respBytes, 1.0/1024)
	p50("wire.frame_rw_p50_us", ls.frameRW, 1)
	p50("wire.encode_delta_p50_us", ls.encDelta, 1)
	p50("wire.decode_delta_p50_us", ls.decDelta, 1)
	p50("bipartite.graph_p50_us", ls.graph, 1)
	return out
}
