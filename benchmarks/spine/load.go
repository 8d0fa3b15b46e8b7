package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"graphit/internal/graph"
	"graphit/internal/livegraph"
	"graphit/internal/server"
)

const (
	clients = 2 // every serving workload is a closed loop with exactly 2 clients
	workers = 2 // engine workers per run; the fixed environment has 2 cores
)

// serverConfig is graphd's flag defaults plus the settings the issue fixes
// for every serving workload; zero fields take the same defaults graphd's
// flags do.
func serverConfig(graphs map[string]*graph.Graph, sc scale) server.Config {
	return server.Config{
		Graphs:        graphs,
		Workers:       workers,
		MaxConcurrent: clients,
		CacheEntries:  sc.cacheEntries,
		Coalesce:      true,
		BatchWindow:   2 * time.Millisecond,
		BatchMaxLanes: 8,
	}
}

// stack is one graphd instance: a server.Server behind a real net/http
// server on a loopback listener.
type stack struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

// startStack builds the server and returns once /readyz answers 200.
func startStack(cfg server.Config) (*stack, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	st := &stack{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { st.served <- st.hs.Serve(ln) }()
	c := newClient()
	defer c.CloseIdleConnections()
	status, _, err := c.get(st.url + "/readyz")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("readyz answered %d", status)
	}
	if err != nil {
		return nil, errors.Join(err, st.stop())
	}
	return st, nil
}

// stop drains the HTTP server (which closes the listener) and then the
// query pipeline and live graphs.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, st.srv.Shutdown(ctx))
}

// client is one caller with one keep-alive connection.
type client struct{ http.Client }

func newClient() *client {
	return &client{http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}}
}

func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, body, err
}

func (c *client) get(url string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

func (c *client) post(url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

// postQuery sends q and decodes the reply. The returned latency covers the
// round trip up to the last body byte, not the client-side decode.
func (c *client) postQuery(base string, q *server.Query) (*server.Response, time.Duration, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	status, data, err := c.post(base+"/query", body)
	lat := time.Since(t)
	if err != nil {
		return nil, lat, err
	}
	var resp server.Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, lat, fmt.Errorf("undecodable /query reply (%d): %w", status, err)
	}
	if status != http.StatusOK || resp.Error != "" {
		return &resp, lat, fmt.Errorf("/query answered %d: %s", status, resp.Error)
	}
	return &resp, lat, nil
}

// postUpdate sends one batch to the social graph and returns the acked epoch.
func (c *client) postUpdate(base string, ops []livegraph.Op) (uint64, time.Duration, error) {
	body, err := json.Marshal(server.UpdateRequest{Graph: socialGraph, Ops: wireOps(ops)})
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	status, data, err := c.post(base+"/update", body)
	lat := time.Since(t)
	if err != nil {
		return 0, lat, err
	}
	var resp server.UpdateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return 0, lat, fmt.Errorf("undecodable /update reply (%d): %w", status, err)
	}
	if status != http.StatusOK || resp.Error != "" {
		return 0, lat, fmt.Errorf("/update answered %d: %s", status, resp.Error)
	}
	if resp.Applied != len(ops) {
		return 0, lat, fmt.Errorf("/update applied %d of %d ops", resp.Applied, len(ops))
	}
	return resp.Epoch, lat, nil
}

// checker tallies attempted and failed operations and keeps the first
// failure's text. Transport errors, non-200 replies and wrong answers all
// land here.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     string
}

// note records one attempted operation; err != nil marks it failed.
func (c *checker) note(err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		if c.first == "" {
			c.first = err.Error()
		}
	}
	return err == nil
}

// sample is one request of a closed loop.
type sample struct {
	kind   string
	update bool // a /update batch (ops counts its edge ops), else a /query
	ops    int
	start  time.Duration // since the loop began
	lat    time.Duration
	ok     bool
}

// runClosedLoop drives each client function back to back — the next request
// leaves only when the previous reply is in — for warmup+window, and returns
// the samples that began after the warm-up and ended inside the window, plus
// the queries answered per second during the loop's first, cold second (the
// number that justifies discarding a warm-up).
func runClosedLoop(fns []func() sample, warmup, window time.Duration) (measured []sample, firstSecond float64) {
	per := make([][]sample, len(fns))
	end := warmup + window
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := time.Since(t0)
				if start >= end {
					return
				}
				s := fn()
				s.start = start
				per[i] = append(per[i], s)
			}
		}()
	}
	wg.Wait()
	for _, ss := range per {
		for _, s := range ss {
			if s.start >= warmup && s.start+s.lat <= end {
				measured = append(measured, s)
			}
			if s.ok && !s.update && s.start+s.lat <= time.Second {
				firstSecond++
			}
		}
	}
	return measured, firstSecond
}

// latencySummary reduces one request class of a measured window.
type latencySummary struct {
	n             int     // samples behind the percentiles, failed ones included
	perSecond     float64 // ok requests (or their edge ops) per second of window
	p50, p90, p99 float64 // ms
	// cells is each request kind's typical latency in ms: the median for a
	// query kind, the mean for an update kind (see summarize).
	cells      map[string]float64
	kindCounts map[string]int
}

// summarize reduces the queries (or, with update, the update batches) of a
// measured window. A failed request misses every latency limit: it enters
// the percentiles with the longest latency the window can hold, the window
// itself, and adds nothing to the throughput.
//
// An update kind's cell is its mean, not its median: the writer is a closed
// loop, so the mean ack time is what its throughput follows, and a contended
// reweight batch takes either ~2 ms or ~10 ms, which puts the median between
// two humps where it moves by half between identical runs.
func summarize(samples []sample, update bool, window time.Duration) latencySummary {
	sum := latencySummary{cells: map[string]float64{}, kindCounts: map[string]int{}}
	var all []float64
	byKind := map[string][]float64{}
	done := 0
	for _, s := range samples {
		if s.update != update {
			continue
		}
		lat := ms(s.lat)
		if !s.ok {
			lat = ms(window)
		} else if update {
			done += s.ops
		} else {
			done++
		}
		all = append(all, lat)
		byKind[s.kind] = append(byKind[s.kind], lat)
	}
	sort.Float64s(all)
	sum.n = len(all)
	sum.perSecond = float64(done) / window.Seconds()
	sum.p50, sum.p90, sum.p99 = quantile(all, 0.5), quantile(all, 0.9), quantile(all, 0.99)
	for k, xs := range byKind {
		sum.kindCounts[k] = len(xs)
		if update {
			sum.cells[k] = mean(xs)
		} else {
			sum.cells[k] = median(xs)
		}
	}
	return sum
}

// cellTimes lists the summaries' cells for suite_geomean_ms: a slow-down of
// any one request kind moves the geometric mean by the same factor whatever
// that kind's share of the mix.
func cellTimes(sums ...latencySummary) []float64 {
	var out []float64
	for _, sum := range sums {
		for _, t := range sum.cells {
			out = append(out, t)
		}
	}
	return out
}
