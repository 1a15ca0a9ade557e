package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// serve-mix: the evaluation service in-process behind a loopback listener,
// driven as a closed loop by two clients over keep-alive connections: each
// client sends its next request only when the previous reply is in. Every
// pass starts a fresh server, so each pass sees the same cache hits, and
// sends the same list in its own order, so a run averages over many
// interleavings of heavy and light requests on the two workers.

const (
	clients  = 2   // closed-loop clients, and connections
	passReqs = 150 // requests per pass
	tinyReqs = 12
)

// phases are the evaluation phases the service reports in
// cholserved_phase_seconds that serve-mix requests reach.
var phases = []string{"prep", "simulate", "bounds", "sweep"}

// request is one HTTP request of the list; key is its golden key.
type request struct {
	endpoint string // simulate | bounds | sweep
	body     []byte
	key      string
}

func newRequest(endpoint string, v any) request {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return request{endpoint: endpoint, body: b, key: "/v1/" + endpoint + " " + string(b)}
}

// requestPools returns every request the generator can draw with all
// tiles at most maxTiles, one pool per kind: plain and jittered simulates,
// bounds, and batched sweeps.
func requestPools(maxTiles int) (sim, jit, bnd, swp []request) {
	for _, pn := range simPlatforms {
		for _, sn := range simSchedulers {
			for tiles := 4; tiles <= min(20, maxTiles); tiles += 4 {
				for seed := int64(1); seed <= 2; seed++ {
					req := service.SimulateRequest{Platform: pn, Scheduler: sn, Tiles: tiles, Seed: seed}
					sim = append(sim, newRequest("simulate", req))
					req.Overhead = true
					jit = append(jit, newRequest("simulate", req))
				}
			}
		}
		for tiles := 8; tiles <= min(64, maxTiles); tiles += 4 {
			bnd = append(bnd, newRequest("bounds", service.BoundsRequest{Platform: pn, Tiles: tiles}))
		}
		for _, ss := range [][]string{{"dmda", "dmdas"}, {"random", "dmda"}, {"dmdas", "random"}} {
			for _, ts := range [][]int{{4, 8}, {8, 12}, {12, 16}, {8, 16, 20}} {
				if ts[len(ts)-1] > maxTiles {
					continue
				}
				// Sweeps run seed 3, which no simulate uses: a sweep cell
				// never answers a later simulate from the cache, so every
				// order of the list gets the same hits.
				swp = append(swp, newRequest("sweep", service.SweepRequest{
					Platform: pn, Schedulers: ss, Tiles: ts, Seed: 3, Batch: true}))
			}
		}
	}
	return sim, jit, bnd, swp
}

// genRequests returns the list of about n requests, the same for every
// seed: two thirds distinct requests — 60% simulates (a quarter of them
// jittered), 25% bounds, 15% sweeps — and a third repeating half of them,
// so every order sees the same work and the same number of repeated keys.
func genRequests(n, maxTiles int) []request {
	sim, jit, bnd, swp := requestPools(maxTiles)
	fixed := rand.New(rand.NewSource(0))
	take := func(pool []request, k int) []request {
		return shuffled(fixed, pool)[:min(k, len(pool))]
	}
	distinct := n - n/3
	nsim, nbnd := distinct*60/100, distinct*25/100
	var list []request
	for _, g := range [][]request{
		take(sim, nsim-nsim/4), take(jit, nsim/4), take(bnd, nbnd), take(swp, distinct-nsim-nbnd),
	} {
		list = append(list, g...)
		list = append(list, take(g, len(g)/2)...)
	}
	return list
}

type serveMix struct {
	tiny   bool
	seed   int64
	list   []request
	passes int64 // passes run so far
}

// order is the request order of pass k.
func (s *serveMix) order(k int64) []request { return shuffled(passRNG(s.seed, k), s.list) }

func (s *serveMix) setup(seed int64) error {
	n, maxTiles := passReqs, 64
	if s.tiny {
		n, maxTiles = tinyReqs, 8
	}
	s.seed, s.list = seed, genRequests(n, maxTiles)

	// Warm up on requests outside the list, one of each kind.
	srv, err := startServer()
	if err != nil {
		return err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	for _, rq := range []request{
		newRequest("simulate", service.SimulateRequest{Platform: "mirage", Scheduler: "dmdas", Tiles: 6}),
		newRequest("simulate", service.SimulateRequest{Platform: "mirage", Scheduler: "random", Tiles: 6, Overhead: true}),
		newRequest("bounds", service.BoundsRequest{Platform: "related:20", Tiles: 6}),
		newRequest("sweep", service.SweepRequest{Platform: "mirage", Schedulers: simSchedulers, Tiles: []int{6}, Batch: true}),
	} {
		if sm := send(c, srv.url, rq); sm.err != nil {
			srv.stop()
			return fmt.Errorf("warm-up %s: %w", rq.key, sm.err)
		}
	}
	return srv.stop()
}

// keys returns the first pass's order.
func (s *serveMix) keys() []string {
	var ks []string
	for _, rq := range s.order(0) {
		ks = append(ks, rq.key)
	}
	return ks
}

// sample is one request as the client saw it.
type sample struct {
	start, end time.Time
	status     int
	hit        bool
	out        string // canonical response
	err        error
}

func (s *serveMix) pass(r *runner) {
	var srv *server
	var err error
	r.exclude(func() { srv, err = startServer() })
	if err != nil {
		r.fail("start server: %v", err)
		return
	}
	reqs := s.order(s.passes)
	s.passes++
	c := newClient()
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(reqs) {
					return
				}
				samples[j] = send(c, srv.url, reqs[j])
			}
		}()
	}
	wg.Wait()
	var phaseS map[string]float64
	r.exclude(func() {
		phaseS, err = srv.phaseSeconds(c)
		c.CloseIdleConnections()
		if serr := srv.stop(); err == nil {
			err = serr
		}
	})
	if err != nil {
		r.fail("server: %v", err)
	}

	parent := -1
	if r.tr != nil {
		parent = r.tr.stack[len(r.tr.stack)-1]
	}
	for j, sm := range samples {
		rq := reqs[j]
		r.record(rq.key, sm.end.Sub(sm.start), sm.out, sm.err)
		if r.tr == nil {
			continue
		}
		r.tr.add(span{Name: "service.request", Start: int64(sm.start.Sub(r.tr.epoch)),
			End: int64(sm.end.Sub(r.tr.epoch)), Parent: parent, Tag: rq.endpoint, Flag: sm.hit})
		if sm.status == http.StatusServiceUnavailable {
			r.tr.counters["shed"]++
		}
	}
	if r.tr != nil {
		for ph, v := range phaseS {
			r.tr.counters["phase_s."+ph] += v
		}
	}
}

// recordAll sends every request the full generator can draw, one at a
// time, for the goldens.
func (s *serveMix) recordAll(r *runner) {
	srv, err := startServer()
	if err != nil {
		r.fail("start server: %v", err)
		return
	}
	c := newClient()
	sim, jit, bnd, swp := requestPools(64)
	for _, pool := range [][]request{sim, jit, bnd, swp} {
		for _, rq := range pool {
			sm := send(c, srv.url, rq)
			r.record(rq.key, sm.end.Sub(sm.start), sm.out, sm.err)
		}
	}
	c.CloseIdleConnections()
	if err := srv.stop(); err != nil {
		r.fail("stop server: %v", err)
	}
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
		Timeout:   time.Minute,
	}
}

// send posts one request and canonicalizes the reply: run IDs depend on
// arrival order, so they are dropped; everything else must match the
// golden.
func send(c *http.Client, base string, rq request) sample {
	sm := sample{start: time.Now()}
	resp, err := c.Post(base+"/v1/"+rq.endpoint, "application/json", bytes.NewReader(rq.body))
	if err != nil {
		sm.end, sm.err = time.Now(), err
		return sm
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sm.end, sm.status, sm.hit = time.Now(), resp.StatusCode, resp.Header.Get("X-Cache") == "hit"
	switch {
	case err != nil:
		sm.err = err
	case resp.StatusCode != http.StatusOK:
		sm.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		sm.out, sm.err = canonical(body)
	}
	return sm
}

func canonical(body []byte) (string, error) {
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		return "", fmt.Errorf("bad response body: %w", err)
	}
	b, err := json.Marshal(dropRunIDs(v))
	return string(b), err
}

func dropRunIDs(v any) any {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "run_id")
		for k, e := range x {
			x[k] = dropRunIDs(e)
		}
	case []any:
		for i, e := range x {
			x[i] = dropRunIDs(e)
		}
	}
	return v
}

// server is one in-process evaluation service on a loopback port.
type server struct {
	hs   *http.Server
	url  string
	done chan error
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		hs:   &http.Server{Handler: service.New(service.Config{Workers: clients}).Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for it to exit.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// phaseSeconds scrapes the per-phase time totals from /metrics.
func (s *server) phaseSeconds(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	const prefix = `cholserved_phase_seconds_sum{phase="`
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		ph, val, ok := strings.Cut(line[len(prefix):], `"} `)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[ph] = v
	}
	return out, sc.Err()
}

// serviceMetrics derives the service layer's metrics from the request
// spans and scraped phase totals of serve-mix passes.
func serviceMetrics(t *tracer, m map[string]float64, passes float64) {
	byEndpoint := map[string][]float64{}
	var hit, miss []float64
	var reqS float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != "service.request" {
			continue
		}
		ms := float64(s.ns()) / 1e6
		reqS += ms / 1e3
		byEndpoint[s.Tag] = append(byEndpoint[s.Tag], ms)
		if s.Flag {
			hit = append(hit, ms)
		} else if s.Tag != "sweep" { // sweeps never report a hit
			miss = append(miss, ms)
		}
	}
	for _, ep := range []string{"simulate", "bounds", "sweep"} {
		m["service."+ep+"_p50_ms"] = median(byEndpoint[ep])
	}
	m["service.hit_p50_ms"] = median(hit)
	m["service.miss_p50_ms"] = median(miss)
	n := float64(len(hit) + len(miss) + len(byEndpoint["sweep"]))
	if n == 0 {
		return
	}
	m["service.cache_hit_ratio"] = float64(len(hit)) / n
	var phaseS float64
	for _, ph := range phases {
		v := t.counters["phase_s."+ph]
		m["service.phase_s."+ph] = v / passes
		phaseS += v
	}
	m["service.overhead_s"] = (reqS - phaseS) / passes
	m["service.shed_ratio"] = t.counters["shed"] / n
}
