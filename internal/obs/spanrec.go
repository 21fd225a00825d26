package obs

import "time"

// Phase labels one stage of a request's life inside the serving path. A
// request passes through the phases in declaration order; Mark stamps the
// moment a phase begins and the previous phase implicitly ends there.
type Phase uint8

const (
	PhaseRead   Phase = iota // blocking frame read on the session
	PhaseAdmit               // decode + admission control
	PhaseQueue               // waiting in the solver pool's queue
	PhaseSolve               // the pool job: a solve or a delta repair
	PhaseEncode              // response encoding
	PhaseWrite               // response frame write
	numPhases
)

// phaseNames are the trace-event names, indexed by Phase.
var phaseNames = [numPhases]string{"read", "admit", "queue", "solve", "encode", "write"}

// Request outcomes, the "outcome" arg of a request span.
const (
	OutcomeOK     = 0 // answered with a schedule
	OutcomeReject = 1 // refused with a reject code
	OutcomeError  = 2 // failed (solve error, write error)
)

// ReqRec is a session's request record. A session answers one request at
// a time, so it keeps one ReqRec (from ServeObs.SessionOpen) and reuses
// it: Begin opens the next request before the blocking frame read, Admit,
// SetTrace and Mark stamp its phases, and exactly one of Respond and
// Reject closes it. That closing call records the request once — in the
// "serve.*" counters and request latency, in its tenant's SLO slot, and
// as one "request" span with its phases nested inside on the session's
// lane (pid PIDRequest, tid session). A frame that turns out not to be a
// request is never closed; the next Begin discards its marks.
//
// Every method on a nil *ReqRec (the unobserved service) is an
// allocation-free no-op, and on an enabled record only the closing calls
// allocate.
type ReqRec struct {
	s       *ServeObs
	session int32
	tenant  int32
	traceID [16]byte
	start   time.Time
	marks   [numPhases]time.Time
}

// Begin opens the session's next request: it clears the previous
// request's marks and stamps the start, which doubles as the PhaseRead
// mark.
func (q *ReqRec) Begin() {
	if q == nil {
		return
	}
	q.tenant = -1
	q.traceID = [16]byte{}
	q.marks = [numPhases]time.Time{}
	q.start = q.s.now()
	q.marks[PhaseRead] = q.start
}

// Admit counts the frame just read as a request from tenant (the frame
// Src) and stamps the beginning of its admit phase.
func (q *ReqRec) Admit(tenant int) {
	if q == nil {
		return
	}
	q.s.requests.Inc()
	q.tenant = int32(tenant)
	q.marks[PhaseAdmit] = q.s.now()
}

// Mark stamps the beginning of phase p at the recorder's clock.
func (q *ReqRec) Mark(p Phase) {
	if q == nil || p >= numPhases {
		return
	}
	q.marks[p] = q.s.now()
}

// MarkAfter stamps phase p at phase base's mark plus d. It covers the one
// boundary the session goroutine never witnesses directly: the pool
// worker claims the job (queue→solve) on its own goroutine and reports
// the wait as a duration, so the solve phase starts at queue-mark + wait.
func (q *ReqRec) MarkAfter(p, base Phase, d time.Duration) {
	if q == nil || p >= numPhases || base >= numPhases || q.marks[base].IsZero() {
		return
	}
	q.marks[p] = q.marks[base].Add(d)
}

// SetTrace records the client's 16-byte trace id; it is surfaced on the
// finished span's args so a trace id seen in a log line can be located on
// the timeline.
func (q *ReqRec) SetTrace(id [16]byte) {
	if q == nil {
		return
	}
	q.traceID = id
}

// Respond closes the request as answered. wait and run are the pool's
// measured queue wait and job run time, kept in the tenant's SLO slot.
func (q *ReqRec) Respond(wait, run time.Duration) {
	if q == nil {
		return
	}
	q.s.responses.Inc()
	slot := q.s.tenants.Slot(int(q.tenant))
	slot.Request()
	slot.Respond(wait, run)
	q.finish(OutcomeOK)
}

// Reject closes the request as refused (OutcomeReject) or failed
// (OutcomeError) under code, counted in "serve.rejects_total" and
// "serve.rejects_total.<code>". The registry lookup may allocate —
// rejection is never a hot path.
func (q *ReqRec) Reject(outcome int64, code string) {
	if q == nil {
		return
	}
	q.s.rejects.Inc()
	q.s.reg.Counter("serve.rejects_total." + code).Inc()
	slot := q.s.tenants.Slot(int(q.tenant))
	slot.Request()
	slot.Reject()
	q.finish(outcome)
}

// finish observes the request latency (admit to now) and emits the outer
// request span plus one nested span per marked phase (each phase ends
// where the next marked one begins; the last ends now).
func (q *ReqRec) finish(outcome int64) {
	s := q.s
	end := s.now()
	s.requestUS.Observe(end.Sub(q.marks[PhaseAdmit]).Microseconds())
	tid := int(q.session)
	// traceLo is the low 8 bytes of the trace id, enough to correlate a
	// span with a log line without string args.
	var traceLo int64
	for i := 8; i < 16; i++ {
		traceLo = traceLo<<8 | int64(q.traceID[i])
	}
	s.tr.Complete("request", "request", PIDRequest, tid, q.start, end.Sub(q.start), []Arg{
		{"tenant", int64(q.tenant)},
		{"outcome", outcome},
		{"trace_lo", traceLo},
	})
	for p := Phase(0); p < numPhases; p++ {
		at := q.marks[p]
		if at.IsZero() {
			continue
		}
		stop := end
		for n := p + 1; n < numPhases; n++ {
			if !q.marks[n].IsZero() {
				stop = q.marks[n]
				break
			}
		}
		s.tr.Complete("request", phaseNames[p], PIDRequest, tid, at, stop.Sub(at), nil)
	}
	s.spansFinished.Inc()
}
