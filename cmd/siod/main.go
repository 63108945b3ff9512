// Command siod is the simulation-as-a-service daemon: it serves the
// campaign runner over HTTP/JSON with production robustness — a bounded
// job queue with explicit backpressure (429 + Retry-After + a
// dropped-work counter instead of unbounded buffering), per-client
// token-bucket rate limits, a max-in-flight admission gate, per-job
// deadlines with context cancellation, a canonical-spec result cache
// with single-flight deduplication, and graceful drain on SIGTERM.
//
//	siod -addr :9090                      # serve
//	curl -X POST --data-binary @sweep.campaign localhost:9090/v1/campaigns
//	curl localhost:9090/metrics           # accounting, cache hit rate, p95
//	siod -loadtest -target http://localhost:9090 -n 2000 -c 128 -check
//
// The -loadtest mode is the in-repo load generator
// (internal/serve/loadtest): it mixes valid submissions with poison
// specs, oversized grids, slow-loris bodies, and mid-flight disconnects,
// then (-check) waits for quiescence and fails unless the daemon's
// /metrics satisfy enqueued == completed + dropped + cancelled exactly.
//
// On SIGTERM/SIGINT the daemon stops admitting (503 on new submissions),
// lets in-flight jobs finish within -drain, cancels the stragglers, and
// exits 0. -cpuprofile and -memprofile profile the daemon (or the load
// test) from flag parsing to exit, as in every other entry point:
//
//	siod -cpuprofile siod.cpu -memprofile siod.mem
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pioeval/internal/cli"
	"pioeval/internal/serve"
	"pioeval/internal/serve/loadtest"
)

func main() { cli.Main("siod", run) }

// run is the whole command behind a testable seam: flags come from args,
// output goes to the writers, and — in serve mode — the bound address is
// reported on ready (for tests and scripts that picked port 0) and the
// daemon drains once ctx is cancelled (by SIGTERM or SIGINT under Main).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("siod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// Serve mode.
	addr := fs.String("addr", "127.0.0.1:9090", "listen address")
	queueCap := fs.Int("queue", 64, "bounded job-queue capacity")
	workers := fs.Int("workers", 0, "queue consumers (0 = GOMAXPROCS)")
	campWorkers := fs.Int("campaign-workers", 1, "worker-pool width inside one campaign run")
	enqTimeout := fs.Duration("enqueue-timeout", 100*time.Millisecond, "max wait for a queue slot before dropping with 429")
	jobTimeout := fs.Duration("job-timeout", 30*time.Second, "per-job deadline")
	drain := fs.Duration("drain", 10*time.Second, "graceful-drain budget on shutdown")
	rate := fs.Float64("rate", 50, "per-client token-bucket refill rate, tokens/s (negative = unlimited)")
	burst := fs.Int("burst", 100, "per-client token-bucket burst")
	maxInflight := fs.Int("max-inflight", 0, "admission gate: max queued+running jobs (0 = 4x queue)")
	maxRuns := fs.Int("max-runs", 512, "admission limit on one spec's expanded run count")
	maxRanks := fs.Int("max-ranks", 64, "admission limit on a spec's largest rank count")
	cacheEntries := fs.Int("cache", 1024, "result-cache entries (negative = disabled)")
	// Load-test mode.
	lt := fs.Bool("loadtest", false, "run as the load-test client instead of serving")
	target := fs.String("target", "http://127.0.0.1:9090", "loadtest: daemon base URL")
	n := fs.Int("n", 200, "loadtest: total submissions")
	conc := fs.Int("c", 32, "loadtest: concurrent clients")
	unique := fs.Int("unique", 16, "loadtest: distinct specs rotated through")
	poisonEvery := fs.Int("poison-every", 0, "loadtest: invalid spec every Nth request")
	oversizeEvery := fs.Int("oversize-every", 0, "loadtest: over-limit spec every Nth request")
	disconnectEvery := fs.Int("disconnect-every", 0, "loadtest: mid-flight disconnect every Nth request")
	slowLorisEvery := fs.Int("slowloris-every", 0, "loadtest: slow-loris connection every Nth request")
	check := fs.Bool("check", false, "loadtest: wait for quiescence and fail on accounting mismatch")
	var prof cli.Profiles
	prof.Register(fs)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if err := cli.MaxArgs(fs, 0); err != nil {
		return err
	}
	return prof.Run(func() error {
		if *lt {
			return runLoadtest(stdout, loadtest.Config{
				Target:          *target,
				Requests:        *n,
				Concurrency:     *conc,
				UniqueSpecs:     *unique,
				PoisonEvery:     *poisonEvery,
				OversizeEvery:   *oversizeEvery,
				DisconnectEvery: *disconnectEvery,
				SlowLorisEvery:  *slowLorisEvery,
			}, *check)
		}
		return serveUntilDone(ctx, stdout, serve.Config{
			QueueCap:        *queueCap,
			Workers:         *workers,
			CampaignWorkers: *campWorkers,
			EnqueueTimeout:  *enqTimeout,
			JobTimeout:      *jobTimeout,
			Rate:            *rate,
			Burst:           *burst,
			MaxInflight:     *maxInflight,
			MaxRuns:         *maxRuns,
			MaxRanks:        *maxRanks,
			CacheEntries:    *cacheEntries,
		}, *addr, *drain)
	})
}

// serveUntilDone serves the campaign runner on addr until ctx is
// cancelled, then drains within the drain budget.
func serveUntilDone(ctx context.Context, stdout io.Writer, cfg serve.Config, addr string, drain time.Duration) error {
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler: srv.Mux(),
		// Slow-loris defense: a client gets this long to deliver headers
		// and body; stalling connections are shed, not accumulated.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		// Responses are synchronous with job execution, so the write
		// window must cover a full job plus queueing slack.
		WriteTimeout: cfg.JobTimeout + cfg.EnqueueTimeout + 10*time.Second,
		IdleTimeout:  60 * time.Second,
	}
	fmt.Fprintf(stdout, "siod listening on %s (queue %d, job timeout %v, drain %v)\n",
		ln.Addr(), cfg.QueueCap, cfg.JobTimeout, drain)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err // listener failed before any shutdown request
	case <-ctx.Done():
		fmt.Fprintf(stdout, "siod: stop requested: draining (budget %v)\n", drain)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		// Budget exhausted: stragglers were cancelled, which is a clean
		// (accounted) outcome, not a failure.
		fmt.Fprintf(stdout, "siod: drain budget exhausted, cancelled stragglers\n")
	}
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		httpSrv.Close()
	}
	<-errCh // Serve has returned
	fmt.Fprintf(stdout, "siod: drained, exiting\n")
	return nil
}

func runLoadtest(stdout io.Writer, cfg loadtest.Config, check bool) error {
	res, err := loadtest.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, res.Summary())
	if !check {
		return nil
	}
	snap, err := loadtest.WaitIdle(cfg.Target, 30*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "metrics after quiescence: enqueued=%d completed=%d dropped=%d cancelled=%d cache_hit_rate=%.2f singleflight_shared=%d p95_job_ms=%.1f\n",
		snap.Enqueued, snap.Completed, snap.Dropped, snap.Cancelled,
		snap.CacheHitRate, snap.SingleflightShared, snap.P95JobLatencyMs)
	if err := loadtest.CheckAccounting(snap); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "accounting check passed: enqueued == completed + dropped + cancelled")
	return nil
}
