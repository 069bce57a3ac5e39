package scenariod

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/scenario"
)

// Client talks to a scenariod server over HTTP/JSON. It is used by
// worker processes (lease/heartbeat/result) and by submitting clients
// (submit/stream/report).
type Client struct {
	base string
	http *http.Client
}

// NewClient targets a server base URL (e.g. "http://127.0.0.1:8437").
func NewClient(base string) *Client {
	return &Client{base: base, http: &http.Client{Timeout: 2 * time.Minute}}
}

// post sends a JSON body and decodes a JSON answer into out (unless nil).
// Non-2xx answers become errors carrying the server's message and status.
func (c *Client) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(resp, out)
}

// get fetches a JSON answer into out.
func (c *Client) get(path string, out any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(resp, out)
}

// StatusError is a non-2xx server answer.
type StatusError struct {
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("scenariod: server said %d: %s", e.Status, e.Msg)
}

func decode(resp *http.Response, out any) error {
	if resp.StatusCode/100 != 2 {
		var er errorResponse
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if json.Unmarshal(data, &er) != nil || er.Error == "" {
			er.Error = string(bytes.TrimSpace(data))
		}
		return &StatusError{Status: resp.StatusCode, Msg: er.Error}
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a run spec; a 503 StatusError means the server shed it.
func (c *Client) Submit(spec RunSpec) (*SubmitResponse, error) {
	var out SubmitResponse
	if err := c.post("/v1/runs", spec, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Lease asks for work.
func (c *Client) Lease(worker string) (LeaseResponse, error) {
	var out LeaseResponse
	err := c.post("/v1/lease", LeaseRequest{Worker: worker}, &out)
	return out, err
}

// Heartbeat extends a lease; a 410 StatusError means the lease is lost.
func (c *Client) Heartbeat(runID, key, leaseID string) error {
	return c.post("/v1/heartbeat", HeartbeatRequest{RunID: runID, Key: key, LeaseID: leaseID}, nil)
}

// Result submits a completed cell (req.Cell plus the lease coordinates
// and, optionally, the span fields Worker/Attempt/ExecMs).
func (c *Client) Result(req ResultRequest) (bool, error) {
	var out ResultResponse
	err := c.post("/v1/result", req, &out)
	return out.Recorded, err
}

// Status fetches the server-wide progress snapshot.
func (c *Client) Status() (*StatusResponse, error) {
	var out StatusResponse
	if err := c.get("/v1/status", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Report fetches a completed run's canonical report; a 409 StatusError
// means the run is still in progress.
func (c *Client) Report(runID string) (*scenario.Report, error) {
	var out scenario.Report
	if err := c.get("/v1/runs/"+runID+"/report", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Drain asks the server to stop admitting runs and granting leases.
func (c *Client) Drain() error {
	return c.post("/v1/drain", struct{}{}, nil)
}

// Stream consumes a run's event stream, invoking fn per event until the
// done event, stream end, or a callback error. The stream lasts as long
// as the run, so it is read without the client's request timeout.
func (c *Client) Stream(runID string, fn func(StreamEvent) error) error {
	untimed := *c.http
	untimed.Timeout = 0
	resp, err := untimed.Get(c.base + "/v1/runs/" + runID + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decode(resp, nil)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("scenariod: bad stream line: %v", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
		if ev.Type == EventDone {
			return nil
		}
	}
	return sc.Err()
}
