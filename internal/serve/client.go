package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"dmexplore/internal/telemetry"
)

// Client is the coordinator's HTTP client, shared by workers, the
// dmexplore submit mode, and tests.
type Client struct {
	// Base is the coordinator's base URL, e.g. "http://localhost:8710".
	Base string
	// HTTP overrides the transport. The default client has no timeout —
	// migration barriers legitimately block until every island arrives.
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{}
}

func (c *Client) postJSON(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := c.httpClient().Post(c.Base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hr.Body, 4096))
		return &StatusError{Code: hr.StatusCode, Msg: string(bytes.TrimSpace(msg))}
	}
	if resp == nil {
		return nil
	}
	return json.NewDecoder(hr.Body).Decode(resp)
}

func (c *Client) getJSON(path string, resp any) error {
	hr, err := c.httpClient().Get(c.Base + path)
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hr.Body, 4096))
		return &StatusError{Code: hr.StatusCode, Msg: string(bytes.TrimSpace(msg))}
	}
	return json.NewDecoder(hr.Body).Decode(resp)
}

// StatusError is a non-200 coordinator response.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: coordinator returned %d: %s", e.Code, e.Msg)
}

// Submit posts a job and returns its ID.
func (c *Client) Submit(spec JobSpec) (string, error) {
	var resp SubmitResponse
	if err := c.postJSON("/api/v1/jobs", spec, &resp); err != nil {
		return "", err
	}
	return resp.ID, nil
}

// Status fetches one job's status (front included).
func (c *Client) Status(id string) (JobStatus, error) {
	var st JobStatus
	err := c.getJSON("/api/v1/jobs/"+id, &st)
	return st, err
}

// Lease asks for up to slots shards.
func (c *Client) Lease(worker string, slots int) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.postJSON("/api/v1/lease", LeaseRequest{Worker: worker, Slots: slots}, &resp)
	return resp, err
}

// Heartbeat renews leases and reports telemetry.
func (c *Client) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := c.postJSON("/api/v1/heartbeat", req, &resp)
	return resp, err
}

// Migrate posts an island's front export and blocks until the round
// resolves (see MigrateRequest).
func (c *Client) Migrate(req MigrateRequest) ([]int, error) {
	var resp MigrateResponse
	if err := c.postJSON("/api/v1/migrate", req, &resp); err != nil {
		return nil, err
	}
	return resp.Immigrants, nil
}

// ResultStream is one open chunked upload of ResultLines for a lease.
// Send each line as the evaluation completes; Close terminates the
// stream and reports the coordinator's verdict.
type ResultStream struct {
	pw   *io.PipeWriter
	enc  *json.Encoder
	done chan error
}

// StreamResults opens the result stream for a lease. Lines are
// transferred as they are sent (chunked encoding), so the coordinator
// checkpoints each one within a line of wire latency.
func (c *Client) StreamResults(lease string) *ResultStream {
	pr, pw := io.Pipe()
	s := &ResultStream{pw: pw, enc: json.NewEncoder(pw), done: make(chan error, 1)}
	go func() {
		resp, err := c.httpClient().Post(
			c.Base+"/api/v1/results?lease="+lease, "application/jsonl", pr)
		if err != nil {
			pr.CloseWithError(err)
			s.done <- err
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			err = &StatusError{Code: resp.StatusCode, Msg: "result stream rejected"}
			pr.CloseWithError(err)
		}
		s.done <- err
	}()
	return s
}

// Send writes one line. An error means the coordinator dropped the
// stream (lease expired, restart): the caller should abandon the shard.
func (s *ResultStream) Send(line ResultLine) error {
	return s.enc.Encode(line)
}

// Close ends the stream and waits for the coordinator's response.
func (s *ResultStream) Close() error {
	s.pw.Close()
	return <-s.done
}

// FollowJournal streams a job's journal records from position `from`,
// invoking fn for each, reconnecting (from the last delivered position)
// until the job reaches a terminal state. Returns the final status.
func (c *Client) FollowJournal(ctx context.Context, id string, from int, fn func(telemetry.Record)) (JobStatus, error) {
	for {
		st, err := c.followOnce(ctx, id, &from, fn)
		if err == nil && st.State != "running" {
			return st, nil
		}
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

func (c *Client) followOnce(ctx context.Context, id string, from *int, fn func(telemetry.Record)) (JobStatus, error) {
	url := c.Base + "/api/v1/jobs/" + id + "/journal?follow=1&from=" + strconv.Itoa(*from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return JobStatus{}, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, &StatusError{Code: resp.StatusCode, Msg: "journal stream rejected"}
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var rec telemetry.Record
		if err := dec.Decode(&rec); err != nil {
			break // stream closed: job terminal, or connection lost
		}
		fn(rec)
		*from++
	}
	return c.Status(id)
}
