// Package serve implements the simulation-as-a-service daemon behind
// cmd/siod: an HTTP/JSON front end that accepts campaign specs
// (campaign.ParseSpec syntax), runs them on the internal/campaign pool,
// and survives being hammered by thousands of concurrent clients.
//
// Robustness machinery, in the order a submission meets it:
//
//  1. Per-client token-bucket rate limiting (429 + Retry-After).
//  2. Body and grid-size admission limits (413) and spec validation (400).
//  3. Result cache keyed by a canonical spec digest — reports are
//     deterministic per canonical spec, so hits are exact and free.
//  4. Single-flight deduplication: identical specs submitted while one is
//     already running attach to the in-flight job instead of re-simulating.
//  5. A max-in-flight admission gate (503 when the daemon is saturated).
//  6. A bounded job queue with an explicit enqueue deadline: when the
//     queue stays full past the deadline the job is shed with 429 +
//     Retry-After and counted in the dropped-work metric — backpressure
//     by load shedding, never by unbounded buffering.
//  7. Per-job deadlines via context cancellation threaded down through
//     campaign.RunContext; cancelled jobs return partial reports with the
//     Cancelled marker.
//  8. Graceful drain: Shutdown stops admission (503), lets in-flight work
//     finish inside a drain budget, then cancels the rest; every job still
//     lands in exactly one of the completed/dropped/cancelled counters.
//
// GET /metrics exposes the accounting (queue depth, drops, cache hit
// rate, p95 job latency) and /healthz flips to 503 while draining.
// internal/serve/loadtest is the matching in-repo load generator.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pioeval/internal/campaign"
)

// Runner executes one validated spec; cmd/siod uses campaign.RunContext,
// tests inject fakes to shape latency and failure without a cluster.
type Runner func(ctx context.Context, spec campaign.Spec, opt campaign.Options) (*campaign.Report, error)

// Config tunes the daemon. The zero value of any field selects the
// default noted on it.
type Config struct {
	// QueueCap bounds the job queue (default 64). The queue is the only
	// buffering in the daemon; everything past it is load shedding.
	QueueCap int
	// Workers is the number of queue consumers (default GOMAXPROCS).
	Workers int
	// CampaignWorkers is the pool width inside one campaign run
	// (default 1: cross-job parallelism comes from Workers).
	CampaignWorkers int
	// EnqueueTimeout is how long a submission may wait for a queue slot
	// before being dropped with 429 (default 100ms).
	EnqueueTimeout time.Duration
	// JobTimeout is the per-job deadline (default 30s). Cancellation
	// granularity is one simulation run inside the campaign grid.
	JobTimeout time.Duration
	// Rate and Burst shape the per-client token bucket (default 50/s,
	// burst 100; Rate < 0 disables limiting).
	Rate  float64
	Burst int
	// MaxInflight caps admitted-but-unfinished jobs, queued + running
	// (default 4*QueueCap). Above it, submissions get 503.
	MaxInflight int
	// MaxRuns caps the expanded grid size of one spec (default 512).
	MaxRuns int
	// MaxRanks caps the largest rank count in one spec (default 64).
	MaxRanks int
	// MaxBody caps the request body in bytes (default 1 MiB).
	MaxBody int64
	// CacheEntries bounds the result cache (default 1024; 0 keeps the
	// default, negative disables caching).
	CacheEntries int
	// Runner overrides the campaign executor (default campaign.RunContext).
	Runner Runner
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CampaignWorkers <= 0 {
		c.CampaignWorkers = 1
	}
	if c.EnqueueTimeout <= 0 {
		c.EnqueueTimeout = 100 * time.Millisecond
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 30 * time.Second
	}
	if c.Rate == 0 {
		c.Rate = 50
	}
	if c.Burst <= 0 {
		c.Burst = 100
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4 * c.QueueCap
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 512
	}
	if c.MaxRanks <= 0 {
		c.MaxRanks = 64
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.Runner == nil {
		c.Runner = campaign.RunContext
	}
	return c
}

// job is one admitted campaign execution. Identical concurrent
// submissions share a job: waiters counts the attached clients, and when
// the last one disconnects the job's context is cancelled so nobody
// simulates for an audience of zero.
type job struct {
	key    string
	spec   campaign.Spec
	ctx    context.Context
	cancel context.CancelFunc

	done    chan struct{} // closed by finish; payload/status valid after
	status  int
	payload []byte

	// waiters and finished are guarded by Server.flightMu.
	waiters  int
	finished bool
}

// Server is the daemon. Create with New, serve via Handler, stop with
// Shutdown.
type Server struct {
	cfg     Config
	metrics *Metrics
	cache   *resultCache
	limiter *rateLimiter

	queue chan *job
	// gate fences queue sends against queue close: submitters hold it R
	// around the enqueue select, Shutdown takes it W (after flipping
	// draining) before closing the queue.
	gate     sync.RWMutex
	draining bool // guarded by gate

	flightMu sync.Mutex
	flights  map[string]*job
	admitted int // queued + running jobs, the admission-gate gauge

	baseCtx    context.Context // parent of every job context
	baseCancel context.CancelFunc
	workerWG   sync.WaitGroup
}

// New starts a Server's worker pool and returns it ready to serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: &Metrics{},
		cache:   newResultCache(cfg.CacheEntries),
		limiter: newRateLimiter(cfg.Rate, cfg.Burst),
		queue:   make(chan *job, cfg.QueueCap),
		flights: make(map[string]*job),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Metrics exposes the live counters (the /metrics handler serves a
// Snapshot of this).
func (s *Server) Metrics() *Metrics { return s.metrics }

// worker consumes admitted jobs until the queue is closed and drained.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.metrics.gauge(&s.metrics.queueDepth, -1)
		s.metrics.gauge(&s.metrics.inflight, +1)
		s.runJob(j)
		s.metrics.gauge(&s.metrics.inflight, -1)
		s.flightMu.Lock()
		s.admitted--
		s.flightMu.Unlock()
	}
}

// runJob executes one job and resolves every waiter. A runner panic is
// recovered here too (campaign.RunContext already isolates per-run
// panics; this guards custom Runners), so a poison job can never kill a
// worker goroutine and silently shrink the pool.
func (s *Server) runJob(j *job) {
	defer j.cancel()
	defer func() {
		if r := recover(); r != nil {
			s.metrics.add(&s.metrics.jobPanics)
			s.metrics.add(&s.metrics.completed)
			s.finish(j, http.StatusInternalServerError, errBody(fmt.Sprintf("job panicked: %v", r)))
		}
	}()
	if j.ctx.Err() != nil { // cancelled while queued (drain or clients gone)
		s.metrics.add(&s.metrics.cancelled)
		s.finish(j, http.StatusServiceUnavailable, errBody("job cancelled before execution: "+j.ctx.Err().Error()))
		return
	}
	start := time.Now()
	rep, err := s.cfg.Runner(j.ctx, j.spec, campaign.Options{Workers: s.cfg.CampaignWorkers})
	s.metrics.recordLatency(time.Since(start))
	switch {
	case err != nil:
		// The spec was validated at admission; a runner error is an
		// executed outcome, not shed work.
		s.metrics.add(&s.metrics.completed)
		s.finish(j, http.StatusInternalServerError, errBody(err.Error()))
	case rep.Cancelled:
		s.metrics.add(&s.metrics.cancelled)
		// Flush the partial report: completed runs are still valid data.
		s.finish(j, http.StatusGatewayTimeout, reportBody(rep))
	default:
		s.metrics.add(&s.metrics.completed)
		body := reportBody(rep)
		s.cache.put(j.key, body)
		s.finish(j, http.StatusOK, body)
	}
}

// finish publishes the job outcome and detaches it from the flight table.
func (s *Server) finish(j *job, status int, payload []byte) {
	s.flightMu.Lock()
	j.finished = true
	if s.flights[j.key] == j {
		delete(s.flights, j.key)
	}
	s.flightMu.Unlock()
	j.status = status
	j.payload = payload
	close(j.done)
}

// flightFor attaches to an identical in-flight job or registers a new
// one. The returned bool is true when the caller is the leader and must
// enqueue the job.
func (s *Server) flightFor(key string, spec campaign.Spec) (*job, bool) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if j, ok := s.flights[key]; ok && j.waiters > 0 && j.ctx.Err() == nil {
		j.waiters++
		return j, false
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	j := &job{
		key: key, spec: spec,
		ctx: ctx, cancel: cancel,
		done:    make(chan struct{}),
		waiters: 1,
	}
	s.flights[key] = j
	return j, true
}

// detach drops one waiter; when the last one leaves an unfinished job,
// the job is cancelled — nobody is listening for the result. (The result
// of a completed job still lands in the cache either way.)
func (s *Server) detach(j *job) {
	s.flightMu.Lock()
	j.waiters--
	if j.waiters == 0 && !j.finished {
		j.cancel()
	}
	s.flightMu.Unlock()
}

// admit reserves an admission slot, failing when the daemon is saturated.
func (s *Server) admit() bool {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if s.admitted >= s.cfg.MaxInflight {
		return false
	}
	s.admitted++
	return true
}

func (s *Server) unadmit() {
	s.flightMu.Lock()
	s.admitted--
	s.flightMu.Unlock()
}

// enqueueResult says whether enqueue handed the job to the queue, and if
// not, why.
type enqueueResult int

const (
	queued        enqueueResult = iota
	queueDraining               // Shutdown closed the queue first
	queueShed                   // deadline expired or the job's context died
)

// enqueue offers the job to the bounded queue, giving up after the
// enqueue deadline (backpressure → load shedding) or when the job's
// context dies first. The R-lock fences the send against queue close
// during shutdown; draining is re-checked under it so no send can slip
// past the drain fence — a submission that passed the handler's draining
// check just before Shutdown is turned away here, before it counts as
// enqueued.
func (s *Server) enqueue(j *job) enqueueResult {
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.draining {
		return queueDraining
	}
	s.metrics.add(&s.metrics.enqueued)
	t := time.NewTimer(s.cfg.EnqueueTimeout)
	defer t.Stop()
	select {
	case s.queue <- j:
		s.metrics.gauge(&s.metrics.queueDepth, +1)
		return queued
	case <-t.C:
		return queueShed
	case <-j.ctx.Done():
		return queueShed
	}
}

func (s *Server) isDraining() bool {
	s.gate.RLock()
	defer s.gate.RUnlock()
	return s.draining
}

// Shutdown drains the daemon: admission stops immediately (healthz and
// submissions flip to 503), in-flight and queued jobs get until ctx is
// done to finish, then every remaining job context is cancelled and the
// workers are awaited. On return no worker goroutines remain and the
// accounting identity holds.
func (s *Server) Shutdown(ctx context.Context) error {
	s.gate.Lock()
	if s.draining {
		s.gate.Unlock()
		return errors.New("serve: Shutdown called twice")
	}
	s.draining = true
	// With the W-lock held no submitter is inside enqueue, and every
	// future one re-checks draining under the R-lock — safe to close.
	close(s.queue)
	s.gate.Unlock()

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel() // cancel in-flight and still-queued jobs
		<-done         // each remaining job resolves promptly as cancelled
	}
	s.baseCancel()
	return err
}

// ---- HTTP surface ----

const submitPath = "/v1/campaigns"

// Mux builds the daemon's HTTP handler.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc(submitPath, s.handleSubmit)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

// handleSubmit walks one submission through the admission pipeline; see
// the package comment for the stage order.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST a campaign spec")
		return
	}
	if s.isDraining() {
		s.rejectDraining(w)
		return
	}
	if ok, wait := s.limiter.allow(clientID(r)); !ok {
		s.metrics.add(&s.metrics.rejectedRateLimit)
		w.Header().Set("Retry-After", retryAfter(wait))
		writeError(w, http.StatusTooManyRequests, "client rate limit exceeded")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.metrics.add(&s.metrics.rejectedTooLarge)
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("spec body over %d bytes", s.cfg.MaxBody))
			return
		}
		s.metrics.add(&s.metrics.rejectedInvalid)
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	spec, err := campaign.ParseSpec(string(body))
	if err != nil {
		s.metrics.add(&s.metrics.rejectedInvalid)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := spec.Validate(); err != nil {
		s.metrics.add(&s.metrics.rejectedInvalid)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	canonical := spec.Canonical()
	if runs := len(canonical.Expand()) * canonical.Reps; runs > s.cfg.MaxRuns {
		s.metrics.add(&s.metrics.rejectedTooLarge)
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("spec expands to %d runs, admission limit is %d", runs, s.cfg.MaxRuns))
		return
	}
	for _, ranks := range canonical.Ranks {
		if ranks > s.cfg.MaxRanks {
			s.metrics.add(&s.metrics.rejectedTooLarge)
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("ranks=%d over the admission limit %d", ranks, s.cfg.MaxRanks))
			return
		}
	}

	key := specKey(canonical)
	if payload, ok := s.cache.get(key); ok {
		s.metrics.add(&s.metrics.cacheHits)
		w.Header().Set("X-Cache", "hit")
		writeRaw(w, http.StatusOK, payload)
		return
	}
	s.metrics.add(&s.metrics.cacheMisses)

	j, leader := s.flightFor(key, spec)
	if !leader {
		s.metrics.add(&s.metrics.sharedFlights)
		w.Header().Set("X-Singleflight", "shared")
		s.await(w, r, j)
		return
	}
	s.lead(w, r, j)
}

// lead admits and enqueues a job on behalf of the submission that
// registered it, then awaits the result. When the job does not get in,
// the leader and any followers already attached get the same rejection.
func (s *Server) lead(w http.ResponseWriter, r *http.Request, j *job) {
	if !s.admit() {
		s.metrics.add(&s.metrics.rejectedBusy)
		s.abandonLeader(j, http.StatusServiceUnavailable, msgBusy)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, msgBusy)
		return
	}
	switch s.enqueue(j) {
	case queueDraining:
		s.unadmit()
		s.abandonLeader(j, http.StatusServiceUnavailable, msgDraining)
		s.rejectDraining(w)
		return
	case queueShed:
		s.metrics.add(&s.metrics.dropped)
		s.unadmit()
		s.abandonLeader(j, http.StatusTooManyRequests, msgShed)
		w.Header().Set("Retry-After", retryAfter(s.cfg.EnqueueTimeout))
		writeError(w, http.StatusTooManyRequests, msgShed)
		return
	}
	s.await(w, r, j)
}

// Rejection messages shared by a leader's response and its followers'.
const (
	msgBusy     = "admission gate: too many campaigns in flight"
	msgDraining = "draining: not accepting new campaigns"
	msgShed     = "queue full past the enqueue deadline; work dropped"
)

// rejectDraining answers a submission that arrived while draining.
func (s *Server) rejectDraining(w http.ResponseWriter) {
	s.metrics.add(&s.metrics.rejectedDraining)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, msgDraining)
}

// abandonLeader removes a never-enqueued job so followers stop attaching
// to it, and resolves any that already did with the leader's rejection.
func (s *Server) abandonLeader(j *job, status int, msg string) {
	j.cancel()
	s.finish(j, status, errBody(msg))
}

// await blocks until the job resolves or this client disconnects.
func (s *Server) await(w http.ResponseWriter, r *http.Request, j *job) {
	select {
	case <-j.done:
		s.flightMu.Lock()
		j.waiters--
		s.flightMu.Unlock()
		writeRaw(w, j.status, j.payload)
	case <-r.Context().Done():
		s.detach(j) // last client out cancels the job
	}
}

// clientID identifies the caller for rate limiting: the X-Client-ID
// header when present (trusted deployments), otherwise the remote host.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func retryAfter(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func reportBody(rep *campaign.Report) []byte {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return errBody("encoding report: " + err.Error())
	}
	return buf.Bytes()
}

func errBody(msg string) []byte {
	b, _ := json.Marshal(map[string]string{"error": msg})
	return append(b, '\n')
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeRaw(w, status, append(b, '\n'))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeRaw(w, status, errBody(msg))
}

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}
