package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"centuryscale/internal/cloud"
	"centuryscale/internal/lpwan"
	"centuryscale/internal/sim"
)

// mixSize is the number of queries in one pass over a query mix, enough
// that a pass's p99 has ten samples beyond it.
const mixSize = 1000

// served is a store behind cloud.Server on a loopback listener.
type served struct {
	url string
	srv *http.Server
	err chan error
}

func serveStore(s *cloud.Store) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv := &served{url: "http://" + ln.Addr().String(), err: make(chan error, 1)}
	sv.srv = &http.Server{Handler: cloud.NewServer(s, time.Now())}
	go func() { sv.err <- sv.srv.Serve(ln) }()
	return sv, nil
}

func (sv *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sv.srv.Shutdown(ctx); err != nil {
		_ = sv.srv.Close()
	}
	<-sv.err
}

// queryMix draws n queries over devs and [0, horizon): weekly windows
// over a random year (80%), one device's weekly uptime (15%), and the
// fleet's top ten gaps (5%). Horizons are explicit so an answer does not
// depend on the store's data clock.
func queryMix(seed int64, devs []lpwan.EUI64, horizon time.Duration, n int) []string {
	r := rand.New(rand.NewSource(seed))
	weeks := int64(horizon / sim.Week)
	span := min(int64(52), weeks)
	out := make([]string, n)
	for i := range out {
		dev := devs[r.Intn(len(devs))]
		switch x := r.Float64(); {
		case x < 0.80:
			from := r.Int63n(weeks-span+1) * int64(sim.Week)
			to := from + span*int64(sim.Week)
			out[i] = fmt.Sprintf("/query?device=%s&from=%d&to=%d&step=%d",
				dev, from/int64(time.Second), to/int64(time.Second), int64(sim.Week/time.Second))
		case x < 0.95:
			out[i] = fmt.Sprintf("/query/uptime?device=%s&horizon=%d", dev, int64(horizon/time.Second))
		default:
			out[i] = fmt.Sprintf("/query/gaps?k=10&horizon=%d", int64(horizon/time.Second))
		}
	}
	return out
}

func centuryMix(seed int64, s *cloud.Store, horizon time.Duration) []string {
	return queryMix(seed+11, s.Devices(), horizon, mixSize)
}

// runMix sends every query of the mix to base, in order, and returns the
// latencies and answer bodies. A failed query counts with
// requestTimeout latency.
func runMix(tr *Tracer, base string, mix []string, p *pass) ([]time.Duration, [][]byte) {
	c := &http.Client{Timeout: requestTimeout}
	defer c.CloseIdleConnections()
	lat := make([]time.Duration, len(mix))
	bodies := make([][]byte, len(mix))
	reported := 0
	for i, q := range mix {
		start := tr.Now()
		t0 := time.Now()
		body, status, err := fetch(c, base+q)
		lat[i] = time.Since(t0)
		tr.Add(Span{Name: "client.query", Start: start, End: start + int64(lat[i])})
		p.attempted++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		if err != nil {
			p.failed++
			lat[i] = requestTimeout
			if reported < 5 {
				p.fail("query %s: %v", q, err)
				reported++
			}
			continue
		}
		bodies[i] = body
	}
	return lat, bodies
}

// compareAnswers requires the restarted store to answer every query
// byte for byte as the store before the restart did.
func compareAnswers(mix []string, before, after [][]byte, p *pass) {
	reported := 0
	for i := range mix {
		if !bytes.Equal(before[i], after[i]) && reported < 5 {
			p.fail("query %s answers differently after the restart", mix[i])
			reported++
		}
	}
}
