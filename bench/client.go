package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"tunio"
	"tunio/internal/server"
)

// daemon is an in-process tuniod: an engine, the HTTP server over it, and
// a loopback listener — what `tuniod -addr 127.0.0.1:0 -workers 2` runs.
type daemon struct {
	engine *tunio.Engine
	http   *http.Server
	base   string
	done   chan struct{}
}

func startDaemon(sc scale) (*daemon, error) {
	eng := tunio.NewEngine(tunio.EngineOptions{Workers: engineWorkers})
	srv, err := server.New(server.Options{Engine: eng, Train: sc.train})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		engine: eng,
		http:   &http.Server{Handler: srv},
		base:   "http://" + ln.Addr().String(),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		d.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return d, nil
}

// stop closes the listener and every connection and waits for the accept
// loop to exit. All jobs have finished by the time the harness stops a
// daemon, so nothing is cut short.
func (d *daemon) stop() {
	d.http.Close()
	<-d.done
}

// client is one closed-loop caller on one connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobTimes are one job's client-side timestamps, as offsets from the
// moment the POST was sent.
type jobTimes struct {
	Submitted  time.Duration // 202 and the job id received
	FirstEvent time.Duration // first progress event on the stream
	Done       time.Duration // "done" event received
}

// runJob submits a job and follows its event stream to the terminal
// "done" event, as a tuniod client would. It returns the final status the
// stream carried. Any non-2xx answer or a stream that ends early is an
// error.
func (c *client) runJob(body []byte) (jobTimes, *server.JobStatus, error) {
	var t jobTimes
	start := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return t, nil, err
	}
	var accepted server.JobStatus
	err = decodeBody(resp, http.StatusAccepted, &accepted)
	t.Submitted = time.Since(start)
	if err != nil {
		return t, nil, fmt.Errorf("submit: %w", err)
	}
	st, first, err := c.follow(accepted.ID, start)
	t.FirstEvent = first
	t.Done = time.Since(start)
	return t, st, err
}

// follow reads a job's SSE stream to its "done" event. first is the
// offset from start of the first progress event (0 when there was none).
func (c *client) follow(id string, start time.Time) (st *server.JobStatus, first time.Duration, err error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	isDone := false
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			return nil, first, fmt.Errorf("events: stream ended without done: %w", err)
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			isDone = bytes.Equal(bytes.TrimSpace(line[len("event: "):]), []byte("done"))
			if !isDone && first == 0 {
				first = time.Since(start)
			}
		case isDone && bytes.HasPrefix(line, []byte("data: ")):
			st = &server.JobStatus{}
			if err := json.Unmarshal(line[len("data: "):], st); err != nil {
				return nil, first, fmt.Errorf("events: done payload: %w", err)
			}
			// Drain to EOF so the connection goes back to the pool.
			io.Copy(io.Discard, rd)
			return st, first, nil
		}
	}
}

// get fetches a JSON endpoint into out and returns how long the round
// trip took, body read and decoded included.
func (c *client) get(path string, out any) (time.Duration, error) {
	start := time.Now()
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	err = decodeBody(resp, http.StatusOK, out)
	return time.Since(start), err
}

func decodeBody(resp *http.Response, want int, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return err
	}
	_, err := io.Copy(io.Discard, resp.Body)
	return err
}
