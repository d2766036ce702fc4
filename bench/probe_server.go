package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"kaskade/internal/server"
)

// probeServer prices the service boundary without a socket: what the
// handler adds over running the same prepared statement in-process
// (session + admission + JSON) at 1 row and at 13.6k rows, and what a
// response-cache hit costs when the cache is on.
func probeServer(ctx context.Context, pe *probeEnv, out map[string]float64) error {
	post := func(h http.Handler, session, text string) (*httptest.ResponseRecorder, error) {
		body, err := json.Marshal(map[string]string{"query": text})
		if err != nil {
			return nil, err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)).WithContext(ctx)
		if session != "" {
			req.Header.Set(sessionHeader, session)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.String())
		}
		return rec, nil
	}

	srv := server.New(pe.sys, server.Config{})
	defer srv.Close()
	var err error
	for _, size := range []struct{ name, text string }{{"small", serviceMix[0]}, {"large", stmtProjNames}} {
		name, text := size.name, size.text
		first, perr := post(srv.Handler(), "", text) // mints the session and prepares the statement
		if perr != nil {
			return perr
		}
		session := first.Header().Get(sessionHeader)
		stmt, perr := pe.sys.Prepare(text)
		if perr != nil {
			return perr
		}
		// The two arms alternate, so drift hits both alike; the small
		// statement's overhead is tens of microseconds on a few hundred.
		var handler, inproc []float64
		for i := 0; i < pairedReps; i++ {
			handler = append(handler, float64(elapsed(func() {
				if _, e := post(srv.Handler(), session, text); e != nil {
					err = e
				}
			})))
			inproc = append(inproc, float64(elapsed(func() {
				if e := drain(stmt.QueryContext(ctx)); e != nil {
					err = e
				}
			})))
		}
		out["server.overhead_us."+name] = (median(handler) - median(inproc)) / 1e3
	}
	if err != nil {
		return err
	}

	cached := server.New(pe.sys, server.Config{CacheTTL: time.Minute})
	defer cached.Close()
	if _, err := post(cached.Handler(), "", serviceMix[0]); err != nil { // fills the cache
		return err
	}
	out["server.cache_hit_us"] = us(int64(medianDuration(21, func() {
		rec, e := post(cached.Handler(), "", serviceMix[0])
		if e == nil && rec.Header().Get("X-Kaskade-Cache") != "hit" {
			e = fmt.Errorf("second identical query missed the response cache")
		}
		if e != nil {
			err = e
		}
	})))
	return err
}
