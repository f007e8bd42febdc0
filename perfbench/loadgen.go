package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the number of client connections: the CPU count of the 2-CPU
// machine the workloads were sized on, so the load generator never holds
// more requests in flight than the server has CPUs to run them.
const conns = 2

// loopback serves h on 127.0.0.1 for the duration of one phase.
type loopback struct {
	srv  *http.Server
	ln   net.Listener
	done chan error
	base string
	hc   *http.Client
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{
		srv:  &http.Server{Handler: h},
		ln:   ln,
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close stops the server and waits for its goroutine.
func (l *loopback) close() error {
	l.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.srv.Shutdown(ctx)
	if serr := <-l.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// result is what the load generator observed for one request.
type result struct {
	kind      opKind
	ok        bool
	intended  time.Duration // scheduled send offset (open loop)
	send      time.Duration // actual send, since the phase start
	done      time.Duration // response fully read, since the phase start
	lag       time.Duration // how late the generator sent, once a connection was free
	reqBytes  int
	respBytes int
	err       error
}

// phase drives one list of requests against a loopback server.
type phase struct {
	l      *loopback
	start  time.Time
	req    func(i int) (*request, string) // request i and its URL path
	before func(i int)                    // waits for ordering dependencies (may be nil)
	// check judges the answer (status 0: the request failed in transport)
	// and is called exactly once per request sent.
	check func(i int, r *request, status int, body []byte) error
	trace *tracer  // client spans (nil: untraced)
	keep  [][]byte // retained bodies (tests)
}

// do sends request i and fills res.
func (p *phase) do(i int, res *result, buf *bytes.Buffer) {
	if p.before != nil {
		p.before(i)
	}
	r, path := p.req(i)
	res.kind = r.kind
	res.send = time.Since(p.start)
	res.reqBytes = len(r.body)
	status, err := p.roundTrip(i, r, path, buf)
	res.done = time.Since(p.start)
	res.respBytes = buf.Len()
	if p.keep != nil {
		p.keep[i] = append([]byte(nil), buf.Bytes()...)
	}
	if cerr := p.check(i, r, status, buf.Bytes()); err == nil {
		err = cerr
	}
	res.err = err
	res.ok = err == nil
}

// roundTrip sends r and reads the whole answer into buf; the client span
// covers exactly this.
func (p *phase) roundTrip(i int, r *request, path string, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	hreq, err := http.NewRequest(r.method, p.l.base+path, body)
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("X-Request-ID", "r"+strconv.Itoa(i))
	if r.body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	c0 := p.trace.now()
	resp, err := p.l.hc.Do(hreq)
	if err != nil {
		return 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	p.trace.client(i, c0)
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// runOpen sends request i at start+at[i] on at most conns connections.
// A request whose connection is still busy waits for it; its latency
// still counts from the scheduled instant, so a stall is charged to every
// request it delays. lag records only the generator's own lateness: the
// time from max(scheduled instant, connection free) to the actual send.
func (p *phase) runOpen(at []time.Duration) []result {
	out := make([]result, len(at))
	var next atomic.Int64
	var wg sync.WaitGroup
	p.start = time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(at) {
					return
				}
				free := time.Since(p.start)
				if d := at[i] - free; d > 0 {
					time.Sleep(d)
				}
				res := &out[i]
				res.intended = at[i]
				p.do(i, res, &buf)
				ready := at[i]
				if free > ready {
					ready = free
				}
				res.lag = res.send - ready
			}
		}()
	}
	wg.Wait()
	return out
}

// runClosed keeps conns connections busy back to back for d (or until n
// requests are used up) and returns the results of the requests sent
// plus the elapsed measuring time.
func (p *phase) runClosed(n int, d time.Duration) ([]result, time.Duration) {
	out := make([]result, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	p.start = time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Since(p.start) < d {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				res := &out[i]
				res.intended = time.Since(p.start)
				p.do(i, res, &buf)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(p.start)
	if elapsed > d {
		elapsed = d
	}
	sent := int(next.Load())
	if sent > n {
		sent = n
	}
	return out[:sent], elapsed
}

// statusErr rejects an unexpected HTTP status.
func statusErr(status, want int, body []byte) error {
	if status == want {
		return nil
	}
	if len(body) > 200 {
		body = body[:200]
	}
	return fmt.Errorf("status %d, want %d: %s", status, want, bytes.TrimSpace(body))
}
