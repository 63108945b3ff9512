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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pioeval/internal/campaign"
	"pioeval/internal/serve"
)

// siodClients is the closed loop's client count: each client sends its
// next request only after the previous response body has been read.
const siodClients = 2

// siodReq is one request of the seeded stream with its expected answer.
type siodReq struct {
	spec   string
	status int
	body   []byte // expected 200 body: campaign.Run of the same spec
	ranks  int    // simulated ranks of one cached report (0 for poison)
}

// poisonSpecs fail parsing or validation; the daemon must answer 400.
var poisonSpecs = []string{
	"campaign \"poison\" {\n    workload definitely-not-a-workload\n}\n",
	"campaign \"poison\" {\n    workload ior\n    device floppy\n}\n",
	"campaign \"poison\" {\n    workload ior\n    pattern spiral\n}\n",
}

// smallSpec renders a one-point ior campaign.
func smallSpec(name string, seed int64, reps, ranks int, device string, stripes int) string {
	return fmt.Sprintf(`campaign %q {
    workload ior
    seed %d
    reps %d
    ranks %d
    device %s
    stripe-count %d
    block-size 1MB
    transfer-size 256KB
}
`, name, seed, reps, ranks, device, stripes)
}

// siodStream builds the seeded request stream: 80% repeats spread evenly
// over an eight-spec pool, 15% fresh specs seen once, and 5% poison, in a
// seeded order. The shares are exact, so every seed asks for the same
// amount of work. Expected bodies come from campaign.Run of each distinct
// spec.
func siodStream(seed int64, n int) ([]siodReq, error) {
	rng := rand.New(rand.NewSource(seed))
	devices := []string{"hdd", "ssd", "nvme"}
	pool := make([]string, 8)
	for i := range pool {
		pool[i] = smallSpec(fmt.Sprintf("pool-%d", i), seed+int64(i), 2, 2+2*(i%2), devices[i%3], 1+3*(i/4))
	}
	specs := make([]string, n)
	fresh, poison := n*15/100, n*5/100
	for i := range specs {
		switch {
		case i < poison:
			specs[i] = poisonSpecs[i%len(poisonSpecs)]
		case i < poison+fresh:
			specs[i] = smallSpec(fmt.Sprintf("fresh-%d", i), seed*1_000_003+int64(i), 1, 2, devices[i%3], 1)
		default:
			specs[i] = pool[i%len(pool)]
		}
	}
	rng.Shuffle(n, func(a, b int) { specs[a], specs[b] = specs[b], specs[a] })
	expected := map[string]siodReq{}
	stream := make([]siodReq, n)
	for i, spec := range specs {
		r, ok := expected[spec]
		if !ok {
			var err error
			if r, err = expect(spec); err != nil {
				return nil, err
			}
			expected[spec] = r
		}
		stream[i] = r
	}
	return stream, nil
}

// expect computes the daemon's correct answer to one spec.
func expect(spec string) (siodReq, error) {
	s, err := campaign.ParseSpec(spec)
	if err == nil {
		err = s.Validate()
	}
	if err != nil {
		return siodReq{spec: spec, status: http.StatusBadRequest}, nil
	}
	rep, err := campaign.Run(s, campaign.Options{Workers: 1})
	if err != nil {
		return siodReq{}, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return siodReq{}, err
	}
	r := siodReq{spec: spec, status: http.StatusOK, body: buf.Bytes()}
	for _, run := range rep.Runs {
		r.ranks += rep.Points[run.Point].Point.Ranks
	}
	return r, nil
}

func newSiodMix(seed int64, sz sizing) (*bench, error) {
	stream, err := siodStream(seed, sz.siodRequests)
	if err != nil {
		return nil, err
	}
	var ref bytes.Buffer
	for _, r := range stream {
		fmt.Fprintf(&ref, "%d\n%s\n", r.status, r.body)
	}
	refDigest := sha(ref.Bytes())
	return &bench{
		run: func() (*unit, error) {
			u, _, err := siodUnit(stream, false)
			if err == nil {
				u.simDigest = refDigest
			}
			return u, err
		},
		traced: func() (*unit, *layerStats, error) {
			u, snap, err := siodUnit(stream, true)
			if err != nil {
				return nil, nil, err
			}
			u.simDigest = refDigest
			ls := newLayerStats()
			ls.vals["serve.cache_hit_frac"] = snap.CacheHitRate
			ls.vals["serve.singleflight_shared"] = float64(snap.SingleflightShared)
			ls.vals["serve.rejected_invalid"] = float64(snap.RejectedInvalid)
			ls.vals["serve.job_p95_ms"] = snap.P95JobLatencyMs
			return u, ls, nil
		},
	}, nil
}

// siodUnit stands up a fresh daemon on a loopback listener, drives the
// whole stream through it from a closed loop of siodClients clients, and
// drains it. The unit's set-up is listen until the first /healthz OK. With
// snapshot set, the daemon's /metrics are fetched before the drain.
func siodUnit(stream []siodReq, snapshot bool) (*unit, *serve.Snapshot, error) {
	t0 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	srv := serve.New(serve.Config{
		QueueCap: 1024, Workers: siodClients, CampaignWorkers: 1,
		Rate: -1, JobTimeout: time.Minute,
	})
	httpSrv := &http.Server{Handler: srv.Mux(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	tr := &http.Transport{MaxConnsPerHost: siodClients, MaxIdleConnsPerHost: siodClients, DisableCompression: true}
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	base := "http://" + ln.Addr().String()

	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := httpSrv.Shutdown(ctx)
		if serr := srv.Shutdown(ctx); err == nil {
			err = serr
		}
		if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		tr.CloseIdleConnections()
		return err
	}

	if err := waitHealthy(client, base); err != nil {
		_ = stop()
		return nil, nil, err
	}
	u := &unit{setup: time.Since(t0)}

	type answer struct {
		status int
		body   []byte
		err    error
		took   time.Duration
	}
	answers := make([]answer, len(stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < siodClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				start := time.Now()
				a := &answers[i]
				resp, err := client.Post(base+"/v1/campaigns", "text/plain", strings.NewReader(stream[i].spec))
				if err == nil {
					a.status = resp.StatusCode
					a.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				a.err, a.took = err, time.Since(start)
			}
		}()
	}
	wg.Wait()

	var snap *serve.Snapshot
	if snapshot {
		snap = &serve.Snapshot{}
		if err := getJSON(client, base+"/metrics", snap); err != nil {
			_ = stop()
			return nil, nil, err
		}
	}
	if err := stop(); err != nil {
		return nil, nil, fmt.Errorf("siod drain: %w", err)
	}
	if err := srv.Metrics().Snapshot().AccountingError(); err != nil {
		u.fail("siod accounting: %v", err)
	}

	var got bytes.Buffer
	cached := map[string]bool{}
	for i, a := range answers {
		u.attempted++
		u.latencies = append(u.latencies, a.took)
		want := stream[i]
		switch {
		case a.err != nil:
			u.fail("request %d: %v", i, a.err)
		case a.status != want.status:
			u.fail("request %d: status %d, want %d", i, a.status, want.status)
		case a.status == http.StatusOK && !bytes.Equal(a.body, want.body):
			u.fail("request %d: 200 body differs from campaign.Run of the same spec", i)
		}
		body := a.body
		if a.status != http.StatusOK {
			body = nil
		}
		fmt.Fprintf(&got, "%d\n%s\n", a.status, body)
		if want.status == http.StatusOK && !cached[want.spec] {
			cached[want.spec] = true
			u.ranks += want.ranks
		}
	}
	u.digest = sha(got.Bytes())
	// The drained daemon still holds its result cache: that is the state
	// retained heap is measured with.
	u.pinned = srv
	return u, snap, nil
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(client *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("siod: /healthz not OK within 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
