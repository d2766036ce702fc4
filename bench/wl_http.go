package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"

	"kaskade"
	"kaskade/internal/server"
)

const (
	// servicePopulation is more texts than Config.SessionMaxPrepared
	// (128), so each session's prepared cache both hits and evicts.
	servicePopulation = 256
	// fullCheckEvery: row_count is checked on every response, the whole
	// checksum on one response in this many.
	fullCheckEvery = 32

	sessionHeader  = "X-Kaskade-Session"
	preparedHeader = "X-Kaskade-Prepared"
	opHeader       = "X-Bench-Op"
	parentHeader   = "X-Bench-Parent"
)

// httpClient is one keep-alive session: its own connection, session
// token, op schedule and hasher.
type httpClient struct {
	http     *http.Client
	session  string
	schedule []int
	h        *hasher
}

// httpDriver serves the summarized System through server.Handler on a
// loopback listener in this process and drives it closed-loop from one
// session per CPU.
type httpDriver struct {
	sys    *kaskade.System
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string

	texts  []string
	bodies [][]byte
	want   []answer
	cl     []*httpClient

	tr       atomic.Pointer[tracer] // set by the first traced op; read by the middleware
	hits     atomic.Int64           // X-Kaskade-Prepared: hit
	misses   atomic.Int64
	rejected atomic.Int64 // 429 responses
}

func setupHTTP(ctx context.Context, cfg config) (*env, error) {
	// Parallelism -1 is the daemon's default, so the chunked parallel
	// matcher is the one measured.
	s, err := newSummarizedSystem(cfg, -1)
	if err != nil {
		return nil, err
	}
	d := &httpDriver{sys: s.sys, texts: append(selectiveTexts(servicePopulation), serviceMix...)}
	h := newHasher()
	for _, text := range d.texts {
		body, err := json.Marshal(map[string]string{"query": text})
		if err != nil {
			return nil, err
		}
		res, err := s.sys.QueryRaw(text)
		if err != nil {
			return nil, err
		}
		want := h.result(res)
		if cfg.corrupt {
			want.rows++
		}
		d.bodies = append(d.bodies, body)
		d.want = append(d.want, want)
	}

	d.srv = server.New(s.sys, server.Config{}) // response cache off, the zero default
	handler := d.srv.Handler()
	if cfg.trace {
		handler = d.timed(handler)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	d.url = "http://" + l.Addr().String() + "/v1/query"
	d.hs = &http.Server{Handler: handler}
	d.served = make(chan error, 1)
	go func() { d.served <- d.hs.Serve(l) }()

	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	for c := 0; c < n; c++ {
		d.cl = append(d.cl, &httpClient{
			http:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
			schedule: serviceSchedule(clientRNG(cfg.seed, c)),
			h:        newHasher(),
		})
	}
	return s.env(d), nil
}

// serviceSchedule builds cycles of ten ops — six Zipf draws from the
// population and each of the four mix statements once — shuffled within
// the cycle, so the share of 13.6k-row responses is exactly one in ten
// whatever the seed.
func serviceSchedule(rng *rand.Rand) []int {
	zipf := rand.NewZipf(rng, 1.1, 1, servicePopulation-1)
	var out []int
	for len(out)+10 <= scheduleLen {
		cycle := make([]int, 0, 10)
		for i := 0; i < 6; i++ {
			cycle = append(cycle, int(zipf.Uint64()))
		}
		for m := range serviceMix {
			cycle = append(cycle, servicePopulation+m)
		}
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		out = append(out, cycle...)
	}
	return out
}

// timed is the benchmark-side middleware of a traced run: it records a
// server.handler span for requests that carry the op headers.
func (d *httpDriver) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := d.tr.Load()
		op, err1 := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		parent, err2 := strconv.ParseInt(r.Header.Get(parentHeader), 10, 32)
		if tr == nil || err1 != nil || err2 != nil {
			next.ServeHTTP(w, r)
			return
		}
		s := tr.begin(op, int32(parent), "server.handler")
		next.ServeHTTP(w, r)
		tr.end(s)
	})
}

func (d *httpDriver) clients() int { return len(d.cl) }

func (d *httpDriver) close() {
	for _, c := range d.cl {
		c.http.CloseIdleConnections()
	}
	_ = d.hs.Close() // connections are idle: every client waited for its reply
	<-d.served
	d.srv.Close()
}

func (d *httpDriver) text(c, i int) int {
	s := d.cl[c].schedule
	return s[i%len(s)]
}

func (d *httpDriver) describe(c, i int) string { return d.texts[d.text(c, i)] }

// roundTrip posts the op's query and returns the complete body.
func (d *httpDriver) roundTrip(ctx context.Context, c, t int, hdr map[string]string) ([]byte, error) {
	cl := d.cl[c]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url, bytes.NewReader(d.bodies[t]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if cl.session != "" {
		req.Header.Set(sessionHeader, cl.session)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if tok := resp.Header.Get(sessionHeader); tok != "" {
		cl.session = tok
	}
	switch resp.Header.Get(preparedHeader) {
	case "hit":
		d.hits.Add(1)
	case "miss":
		d.misses.Add(1)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		d.rejected.Add(1)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// rowCount reads the row_count member that ends a complete /v1/query
// body, without decoding the rows before it.
func rowCount(body []byte) (int, error) {
	body = bytes.TrimSpace(body)
	const key = `"row_count":`
	at := bytes.LastIndex(body, []byte(key))
	if at < 0 || len(body) == 0 || body[len(body)-1] != '}' {
		return 0, errors.New("response has no row_count: the result is incomplete")
	}
	return strconv.Atoi(string(body[at+len(key) : len(body)-1]))
}

func (d *httpDriver) verify(c, i, t int, body []byte) error {
	n, err := rowCount(body)
	if err != nil {
		return err
	}
	if n != d.want[t].rows {
		return fmt.Errorf("row_count is %d, want %d", n, d.want[t].rows)
	}
	if i%fullCheckEvery != 0 {
		return nil
	}
	var decoded struct {
		Rows [][]any `json:"rows"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&decoded); err != nil {
		return err
	}
	got, err := d.cl[c].h.jsonAnswer(decoded.Rows)
	if err != nil {
		return err
	}
	return check(got, d.want[t])
}

func (d *httpDriver) op(ctx context.Context, c, i int) error {
	t := d.text(c, i)
	body, err := d.roundTrip(ctx, c, t, nil)
	if err != nil {
		return err
	}
	return d.verify(c, i, t, body)
}

func (d *httpDriver) tracedOp(ctx context.Context, tr *tracer, c, i int) error {
	d.tr.CompareAndSwap(nil, tr)
	t, op := d.text(c, i), int64(c)<<32|int64(i)
	root := tr.begin(op, -1, rootSpan)
	defer tr.end(root)
	s := tr.begin(op, root, "http.roundtrip")
	body, err := d.roundTrip(ctx, c, t, map[string]string{
		opHeader:     strconv.FormatInt(op, 10),
		parentHeader: strconv.Itoa(int(s)),
	})
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(op, root, "bench.verify")
	defer tr.end(s)
	return d.verify(c, i, t, body)
}

// inProcessMeanNS is what the schedule's ops cost when the same
// statements run prepared in this process, with no handler, session,
// admission, JSON or socket: the part of an op that is not service.
func (d *httpDriver) inProcessMeanNS(ctx context.Context) (float64, error) {
	freq := make([]int, len(d.texts))
	total := 0
	for _, cl := range d.cl {
		for _, t := range cl.schedule {
			freq[t]++
			total++
		}
	}
	var sum float64
	for t, n := range freq {
		if n == 0 {
			continue
		}
		stmt, err := d.sys.Prepare(d.texts[t])
		if err != nil {
			return 0, err
		}
		var execErr error
		dur := medianDuration(3, func() {
			if err := drain(stmt.QueryContext(ctx)); err != nil {
				execErr = err
			}
		})
		if execErr != nil {
			return 0, execErr
		}
		sum += float64(n) * float64(dur)
	}
	return sum / float64(total), nil
}

func (d *httpDriver) layerMetrics(ctx context.Context, run tracedRun, out map[string]float64) error {
	stats := run.stats
	out["server.p99_ms"] = run.p99MS
	out["server.handler_us"] = meanUS(stats, "server.handler")
	if n := d.hits.Load() + d.misses.Load(); n > 0 {
		out["server.prepared_hit_ratio"] = float64(d.hits.Load()) / float64(n)
	}
	out["server.rejected_429"] = float64(d.rejected.Load())
	out["workload.rewrite_hit_ratio"] = d.sys.MetricsSnapshot().HitRatio()

	rt, root := stats["http.roundtrip"], stats[rootSpan]
	if rt == nil || root == nil || rt.count == 0 || root.total == 0 {
		return nil
	}
	out["server.wire_us"] = us(rt.selfNS) / float64(rt.count)
	// The handler span covers the execution it wraps, so the service's
	// own share is found by subtraction against the in-process twin.
	inproc, err := d.inProcessMeanNS(ctx)
	if err != nil {
		return err
	}
	exec := inproc * float64(rt.count)
	out["trace.exec_share_pct"] = 100 * exec / float64(root.total)
	out["trace.server_wire_share_pct"] = 100 * (float64(rt.total) - exec) / float64(root.total)
	return nil
}
