package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spear-repro/magus/internal/serve"
)

// quickSessions is the session count of a smoke-size serve run.
const quickSessions = 4

// serveCells is the daemon's session mix: plain MAGUS, UPS, DUF and
// vendor-default sessions, a waste-ledger session, a faulted session,
// a round-robin colocation and one long run.
func serveCells(p plan) []cell {
	cells := []cell{
		{sys: "a100", app: "bfs", gov: "magus"},
		{sys: "a100", app: "srad", gov: "magus", waste: true},
		{sys: "a100", app: "gemm", gov: "ups"},
		{sys: "a100", app: "kmeans", gov: "duf"},
		{sys: "a100", app: "cfd", gov: "default"},
		{sys: "a100", app: "srad", gov: "magus", faults: "pcm-flaky"},
		{sys: "a100", colocate: []string{"bfs", "gemm"}, gov: "magus"},
		{sys: "a100", app: "unet", gov: "magus"},
	}
	for i := range cells {
		// Spec seeds of different run seeds never overlap, and none is
		// zero (serve would rewrite it to 1).
		cells[i].seed = p.seed*int64(len(cells)) + int64(i) + 1
	}
	return cells
}

// referenceResults drives each cell's session to completion on a
// manager directly, without HTTP; every HTTP session must end with the
// same result.
func referenceResults(cells []cell) ([][]byte, error) {
	mg := serve.NewManager(serve.Config{IdleExpiry: -1})
	defer mg.Close(context.Background())
	out := make([][]byte, len(cells))
	for i, c := range cells {
		st, err := mg.Create(c.serveSpec())
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", c, err)
		}
		for {
			res, err := mg.Step(st.ID, 30*time.Second)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", c, err)
			}
			if res.Done {
				out[i] = mustJSON(res.Result)
				break
			}
		}
		if err := mg.CloseSession(st.ID); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// server is a manager behind the daemon's HTTP handler on a loopback
// listener.
type server struct {
	mg  *serve.Manager
	srv *httptest.Server
}

// startServer starts the daemon surface; wrap, when set, wraps the
// handler (the traced run times it).
func startServer(wrap func(http.Handler) http.Handler) *server {
	mg := serve.NewManager(serve.Config{})
	h := serve.NewHTTPHandler(mg)
	if wrap != nil {
		h = wrap(h)
	}
	return &server{mg: mg, srv: httptest.NewServer(h)}
}

func (s *server) close() {
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.mg.Close(ctx)
}

// reqHeader carries the client's request id to the timing middleware.
const reqHeader = "X-Bench-Request"

// reqRec is one request as the client saw it (traced runs only).
type reqRec struct {
	id         int64
	route      string
	session    string
	start, end time.Duration // since epoch
}

// client is one closed-loop load generator holding one keep-alive
// connection.
type client struct {
	base   string
	hc     *http.Client
	log    *spanLog // request ids come from here; nil = untraced
	track  int      // trace viewer row of this client's spans
	recs   []reqRec
	sent   int
	failed int
	errs   []string

	steps     []stepRec
	done      int // sessions finished with the correct result
	decisions int
}

// stepRec is one answered step request: step k of a session of spec j
// is operation opKey{j, k}.
type stepRec struct {
	op        opKey
	lat       time.Duration
	nodeSteps int64 // simulated node-milliseconds it advanced
}

func newClient(base string, log *spanLog, track int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{base: base, hc: &http.Client{Transport: tr}, log: log, track: track}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) failf(format string, args ...any) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// do sends one request and decodes a JSON answer into out. The
// latency runs from sending the request to reading the whole answer.
func (c *client) do(method, path, route, session string, body any, want int, out any) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(mustJSON(body))
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	var id int64
	if c.log != nil {
		id = c.log.id()
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	c.sent++
	start := mono()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, route, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := mono()
	if c.log != nil {
		c.recs = append(c.recs, reqRec{id, route, session, start, end})
	}
	if err != nil {
		return 0, fmt.Errorf("%s %s: read: %w", method, route, err)
	}
	if resp.StatusCode != want {
		return 0, fmt.Errorf("%s %s: status %d: %s", method, route, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return 0, fmt.Errorf("%s %s: decode: %w", method, route, err)
		}
	}
	return end - start, nil
}

// request is do with the health probe mixed in: every 32nd request
// the client sends is a GET /healthz.
func (c *client) request(method, path, route, session string, body any, want int, out any) (time.Duration, error) {
	if c.sent%32 == 31 {
		var h serve.ServiceHealth
		if _, err := c.do("GET", "/healthz", "healthz", session, nil, http.StatusOK, &h); err != nil {
			return 0, err
		}
	}
	return c.do(method, path, route, session, body, want, out)
}

var stepBody = map[string]float64{"seconds": stepChunk.Seconds()}

// session drives one tenant session of spec j: create, 0.5 s steps
// until done with a status read after every 8th step, delete. It
// returns the final result, or nil when the deadline cut the session
// short.
func (c *client) session(j int, spec serve.Spec, deadline time.Time) (*serve.ResultJSON, error) {
	var st serve.Status
	if _, err := c.request("POST", "/api/v1/sessions", "create", "", spec, http.StatusCreated, &st); err != nil {
		return nil, err
	}
	path := "/api/v1/sessions/" + st.ID
	var (
		result *serve.ResultJSON
		now    float64
	)
	for k := 1; result == nil; k++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		var sr serve.StepResult
		lat, err := c.request("POST", path+"/step", "step", st.ID, stepBody, http.StatusOK, &sr)
		if err != nil {
			return nil, err
		}
		c.steps = append(c.steps, stepRec{opKey{j, k}, lat, int64((sr.NowS-now)*1000 + 0.5)})
		now = sr.NowS
		c.decisions += len(sr.Decisions)
		if sr.Done {
			if sr.Result == nil {
				return nil, fmt.Errorf("session %s done without a result", st.ID)
			}
			result = sr.Result
		}
		if k%8 == 0 {
			var s serve.Status
			if _, err := c.request("GET", path, "status", st.ID, nil, http.StatusOK, &s); err != nil {
				return nil, err
			}
		}
	}
	if _, err := c.request("DELETE", path, "delete", st.ID, nil, http.StatusNoContent, nil); err != nil {
		return nil, err
	}
	return result, nil
}

// serveLoad is the outcome of driving sessions from several clients.
type serveLoad struct {
	clients []*client
	elapsed time.Duration
}

// loadClients is the number of closed-loop clients: two, or fewer on a
// machine with fewer CPUs.
func loadClients() int { return min(2, runtime.NumCPU()) }

// driveSessions runs closed-loop clients against base. Session k uses
// cells[k % len(cells)]. It stops after limit sessions (limit > 0) or
// once the deadline passes (non-zero deadline). Every completed
// session's result is compared with ref.
func driveSessions(base string, cells []cell, ref [][]byte, limit int, deadline time.Time, log *spanLog) serveLoad {
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		load  serveLoad
		start = mono()
	)
	for i := 0; i < loadClients(); i++ {
		c := newClient(base, log, 2+i)
		load.clients = append(load.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for {
				k := int(next.Add(1) - 1)
				if (limit > 0 && k >= limit) || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				j := k % len(cells)
				res, err := c.session(j, cells[j].serveSpec(), deadline)
				switch {
				case err != nil:
					c.failf("%s: %v", cells[j], err)
				case res == nil: // cut short by the deadline
				case !bytes.Equal(mustJSON(res), ref[j]):
					c.failf("%s: HTTP result %s, direct %s", cells[j], mustJSON(res), ref[j])
				default:
					c.done++
				}
			}
		}()
	}
	wg.Wait()
	load.elapsed = mono() - start
	return load
}

// account adds the load's requests and failures to the report.
func (l serveLoad) account(r *report) {
	for _, c := range l.clients {
		r.attempted += c.sent
		for _, e := range c.errs {
			r.fail(1, "%s", e)
		}
		r.failed += c.failed - len(c.errs)
	}
}

func (l serveLoad) sum(f func(*client) int64) int64 {
	var n int64
	for _, c := range l.clients {
		n += f(c)
	}
	return n
}

// measureServe drives the session mix over HTTP from closed-loop
// clients for the measurement window.
func measureServe(p plan, cells []cell, r *report) error {
	type state struct {
		ref [][]byte
		srv *server
	}
	st, setupS, err := timedSetup(func() (state, error) {
		ref, err := referenceResults(cells)
		if err != nil {
			return state{}, err
		}
		srv := startServer(nil)
		var errs []string
		for _, c := range driveSessions(srv.srv.URL, cells, ref, 1, time.Time{}, nil).clients {
			errs = append(errs, c.errs...)
		}
		if len(errs) > 0 {
			srv.close()
			return state{}, fmt.Errorf("warm-up session failed: %v", errs)
		}
		return state{ref, srv}, nil
	}, func(s state) { s.srv.close() })
	if err != nil {
		return err
	}
	defer st.srv.close()
	r.metric("setup_s", setupS)
	checkPinned("serve", p, st.ref, r)

	runtime.GC()
	limit, deadline := 0, time.Now().Add(p.seconds)
	if p.quick {
		limit, deadline = quickSessions, time.Time{}
	}
	load := driveSessions(st.srv.srv.URL, cells, st.ref, limit, deadline, nil)
	load.account(r)
	best := bestOf{}
	var steps int
	for _, c := range load.clients {
		steps += len(c.steps)
		for _, s := range c.steps {
			best.add(s.op, s.lat, s.nodeSteps)
		}
	}
	fmt.Printf("# serve traffic: %d requests, %d of them steps, %d sessions finished, in %.1f s\n",
		load.sum(func(c *client) int64 { return int64(c.sent) }), steps,
		load.sum(func(c *client) int64 { return int64(c.done) }), load.elapsed.Seconds())
	best.report(r)
	return nil
}
