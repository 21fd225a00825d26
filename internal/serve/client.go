package serve

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"redistgo/internal/kpbs"
	"redistgo/internal/wire"
)

// Client is one tenant's session with a redist-serve daemon. It is not
// safe for concurrent use: a session answers requests in order, so share
// a server between goroutines by giving each its own Client.
type Client struct {
	conn   net.Conn
	br     *bufio.Reader // buffered frame reads; writes go to conn
	tenant int32
	nextID uint64
}

// RejectError is a server refusal (MsgReject) surfaced as an error. The
// session stays usable after quota/busy/size refusals; the server hangs
// up after RejectBadRequest.
type RejectError struct {
	ID     uint64
	Code   wire.RejectCode
	Reason string
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("serve: rejected (%s): %s", e.Code, e.Reason)
}

// Dial opens a session with the daemon at addr, identifying as tenant
// (the admission-quota key carried in each request frame's Src field).
func Dial(addr string, tenant int32) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, br: bufio.NewReader(conn), tenant: tenant}, nil
}

// Solve sends one request and waits for its answer. On success it
// returns the decoded schedule together with the server's raw response
// payload — the codec is injective, so comparing raw bytes against a
// local wire.EncodeSolveResp of the same instance (re-encoded with the
// response's echoed trace context) proves the served schedule identical
// (the soak harness's check). A *RejectError reports a server refusal;
// any other error means the session is dead.
func (c *Client) Solve(req wire.SolveRequest) (*kpbs.Schedule, []byte, error) {
	resp, payload, err := c.SolveFull(req)
	if err != nil {
		return nil, nil, err
	}
	return resp.Schedule, payload, nil
}

// SolveFull is Solve returning the whole decoded response, trace context
// included. When the request carries a trace id, the client-send
// timestamp is stamped just before the frame is written (unless the
// caller set Trace.TS itself), and the response's Trace.TS carries the
// server's handling time in microseconds — the two sides of the
// server-vs-client latency split.
func (c *Client) SolveFull(req wire.SolveRequest) (wire.SolveResponse, []byte, error) {
	if req.ID == 0 {
		c.nextID++
		req.ID = c.nextID
	}
	if !req.Trace.Zero() && req.Trace.TS == 0 {
		req.Trace.TS = time.Now().UnixMicro()
	}
	payload, err := wire.EncodeSolveReq(req)
	if err != nil {
		return wire.SolveResponse{}, nil, err
	}
	if err := wire.Write(c.conn, wire.Frame{Type: wire.MsgSolveReq, Src: c.tenant, Payload: payload}); err != nil {
		return wire.SolveResponse{}, nil, fmt.Errorf("serve: send request: %w", err)
	}
	f, err := wire.Read(c.br)
	if err != nil {
		return wire.SolveResponse{}, nil, fmt.Errorf("serve: read response: %w", err)
	}
	switch f.Type {
	case wire.MsgSolveResp:
		resp, err := wire.DecodeSolveResp(f.Payload)
		if err != nil {
			return wire.SolveResponse{}, nil, err
		}
		if resp.ID != req.ID {
			return wire.SolveResponse{}, nil, fmt.Errorf("serve: response for request %d, want %d", resp.ID, req.ID)
		}
		return resp, f.Payload, nil
	case wire.MsgReject:
		rej, err := wire.DecodeReject(f.Payload)
		if err != nil {
			return wire.SolveResponse{}, nil, err
		}
		return wire.SolveResponse{}, nil, &RejectError{ID: rej.ID, Code: rej.Code, Reason: rej.Reason}
	default:
		return wire.SolveResponse{}, nil, fmt.Errorf("serve: unexpected frame %s", f.Type)
	}
}

// SolveDelta sends one delta request — edits against a base schedule id
// this session was previously answered with — and waits for its answer.
// The response is an ordinary solve response, byte-identical to a cold
// solve of the edited instance, so the raw payload verifies exactly like
// Solve's. A *RejectError with RejectUnknownBase means the base is no
// longer retained (superseded or evicted) and the caller must fall back
// to a full Solve; the session stays usable.
func (c *Client) SolveDelta(req wire.DeltaRequest) (*kpbs.Schedule, []byte, error) {
	resp, payload, err := c.SolveDeltaFull(req)
	if err != nil {
		return nil, nil, err
	}
	return resp.Schedule, payload, nil
}

// SolveDeltaFull is SolveDelta returning the whole decoded response,
// trace context included. ID defaulting and trace timestamp stamping
// behave exactly as in SolveFull; on success the response's id is the
// new base id for the next delta of the chain.
func (c *Client) SolveDeltaFull(req wire.DeltaRequest) (wire.SolveResponse, []byte, error) {
	if req.ID == 0 {
		c.nextID++
		req.ID = c.nextID
	}
	if !req.Trace.Zero() && req.Trace.TS == 0 {
		req.Trace.TS = time.Now().UnixMicro()
	}
	payload, err := wire.EncodeDeltaReq(req)
	if err != nil {
		return wire.SolveResponse{}, nil, err
	}
	if err := wire.Write(c.conn, wire.Frame{Type: wire.MsgDeltaReq, Src: c.tenant, Payload: payload}); err != nil {
		return wire.SolveResponse{}, nil, fmt.Errorf("serve: send delta request: %w", err)
	}
	f, err := wire.Read(c.br)
	if err != nil {
		return wire.SolveResponse{}, nil, fmt.Errorf("serve: read response: %w", err)
	}
	switch f.Type {
	case wire.MsgSolveResp:
		resp, err := wire.DecodeSolveResp(f.Payload)
		if err != nil {
			return wire.SolveResponse{}, nil, err
		}
		if resp.ID != req.ID {
			return wire.SolveResponse{}, nil, fmt.Errorf("serve: response for request %d, want %d", resp.ID, req.ID)
		}
		return resp, f.Payload, nil
	case wire.MsgReject:
		rej, err := wire.DecodeReject(f.Payload)
		if err != nil {
			return wire.SolveResponse{}, nil, err
		}
		return wire.SolveResponse{}, nil, &RejectError{ID: rej.ID, Code: rej.Code, Reason: rej.Reason}
	default:
		return wire.SolveResponse{}, nil, fmt.Errorf("serve: unexpected frame %s", f.Type)
	}
}

// Close ends the session politely (MsgDone) and closes the connection.
func (c *Client) Close() error {
	_ = wire.Write(c.conn, wire.Frame{Type: wire.MsgDone}) // best-effort goodbye
	return c.conn.Close()
}
