package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"pioeval/internal/campaign"
)

// TestRateLimiterBucket drives the token bucket on an injected clock:
// burst spends down, refill restores, and the Retry-After hint is the
// actual wait until one token exists.
func TestRateLimiterBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newRateLimiter(2, 3) // 2 tokens/s, burst 3
	l.now = func() time.Time { return now }
	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("a"); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, wait := l.allow("a")
	if ok {
		t.Fatal("4th immediate request allowed past burst")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("Retry-After hint %v, want (0, 500ms]-ish for rate 2/s", wait)
	}
	// An unrelated client has its own bucket.
	if ok, _ := l.allow("b"); !ok {
		t.Fatal("fresh client rejected")
	}
	// Refill: 1s at 2/s restores 2 tokens.
	now = now.Add(time.Second)
	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("a"); !ok {
			t.Fatalf("post-refill request %d rejected", i)
		}
	}
	if ok, _ := l.allow("a"); ok {
		t.Fatal("3rd post-refill request allowed, only 2 tokens refilled")
	}
}

// TestRateLimiterPrune: the bucket table stays bounded under a
// client-ID-spraying load.
func TestRateLimiterPrune(t *testing.T) {
	now := time.Unix(1000, 0)
	l := newRateLimiter(100, 10)
	l.now = func() time.Time { return now }
	for i := 0; i < 3*maxBuckets; i++ {
		l.allow(fmt.Sprintf("spray-%d", i))
		now = now.Add(time.Millisecond) // everyone refills to burst quickly
	}
	l.mu.Lock()
	n := len(l.buckets)
	l.mu.Unlock()
	if n > maxBuckets+1 {
		t.Fatalf("bucket table grew to %d entries, bound is %d", n, maxBuckets)
	}
}

// TestResultCacheLRU: bounded size, recency-ordered eviction.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.put("a", []byte("1"))
	c.put("b", []byte("2"))
	if _, ok := c.get("a"); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	c.put("c", []byte("3"))
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently-used entry a evicted")
	}
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2", c.len())
	}
	// Disabled cache never stores.
	d := newResultCache(-1)
	d.put("x", []byte("1"))
	if _, ok := d.get("x"); ok {
		t.Fatal("disabled cache returned a hit")
	}
}

// TestSpecKeyCanonicalization: two spellings of the same campaign — one
// relying on defaults, one writing them out — share a key; a different
// campaign does not.
func TestSpecKeyCanonicalization(t *testing.T) {
	implicit := campaign.Spec{Name: "x", Seed: 42}
	explicit := campaign.Spec{
		Name: "x", Workload: "ior", Seed: 42, Reps: 1, Steps: 4,
		Ranks: []int{4}, Devices: []string{"hdd"},
		StripeCounts: []int{4}, StripeSizes: []int64{1 << 20},
		BlockSizes: []int64{16 << 20}, TransferSizes: []int64{1 << 20},
		Patterns: []string{"sequential"}, Collective: []bool{false},
		Tiers: []string{""}, Faults: []string{""},
		Compress: []string{""},
	}
	if specKey(implicit.Canonical()) != specKey(explicit.Canonical()) {
		t.Fatal("defaulted and spelled-out forms of the same spec hash differently")
	}
	// The axis spellings "direct" and "none" canonicalize to "", so they
	// must not mint a second cache entry for the same campaign.
	spelled := implicit
	spelled.Tiers = []string{"direct"}
	spelled.Compress = []string{"none"}
	if specKey(implicit.Canonical()) != specKey(spelled.Canonical()) {
		t.Fatal("tier=direct/compress=none spellings hash differently from defaults")
	}
	other := implicit
	other.Seed = 43
	if specKey(implicit.Canonical()) == specKey(other.Canonical()) {
		t.Fatal("different seeds hash identically")
	}
	compressed := implicit
	compressed.Compress = []string{"lz"}
	if specKey(implicit.Canonical()) == specKey(compressed.Canonical()) {
		t.Fatal("compressed and uncompressed campaigns hash identically")
	}
}

// TestSpecKeyPinned: the cache key of a spec text is the one recorded
// when the legacy burstbuffer axis left Spec (the sha256 of the earlier
// canonical JSON with its "BurstBuffer":[false] field deleted), byte for
// byte, for several spellings of the default campaign and for every spec of the
// campaign package's FuzzSpecParse seed corpus that validates (its
// in-source seeds are listed here, its corpus files are read from disk).
// Changing a key would orphan every cached result.
func TestSpecKeyPinned(t *testing.T) {
	const defaultKey = "994d4da0bc8ed5893c8e0fe816abb1c5bda3c67f5f5599a14bf922f39cf103ea"
	pinned := map[string]string{
		// Spellings of the default campaign.
		"campaign \"t\" {\n}\n": defaultKey,
		"campaign \"t\" {\n\tworkload ior\n\treps 1\n\tsteps 4\n\tranks 4\n\tdevice hdd\n\tstripe-count 4\n\tstripe-size 1MB\n" +
			"\tblock-size 16MB\n\ttransfer-size 1MB\n\tpattern sequential\n\tcollective false\n" +
			"\ttier direct\n\tcompress none\n\tfaults \"\"\n}\n": defaultKey,
		"campaign \"t\" {\n    compress none # the default\n    tier direct\n}\n":     defaultKey,
		"campaign \"t\" {\n\tblock-size 16384KB\n\tstripe-size 1024KB\n\tseed 0\n}\n": defaultKey,
		// FuzzSpecParse's in-source seeds.
		"campaign \"t\" {\n\tseed 7\n\treps 2\n\tranks 2, 4\n\tdevice hdd, ssd\n}\n":                     "97a8d14864bc36d74f6f158fe233c8cb0f0ed0e74578f392f4bf6df9023f95e4",
		"campaign \"t\" {\n\tworkload checkpoint\n\ttier direct, bb\n\tblock-size 1MB\n}\n":              "04b26187dffbf265c74ee7de14c16f4ccd251d1a160285b280b96bdb42a97947",
		"campaign \"t\" {\n\ttransfer-size 256KB, 1MB # comment\n\tfaults \"\", \"ostcrash:1@5ms\"\n}\n": "9ae9157c4dcec69ba18680a396825c5e4d64b444449734f8b1a7c11eae17a03e",
		"campaign \"t\" {\n\tworkload checkpoint\n\ttier direct, bb, nodelocal\n\tblock-size 1MB\n}\n":   "b405e0829cb8fcb9b64fd4d4adcf49af58bde5c8a10ffe9847925f553e4aa394",
		"campaign \"t\" {\n\tcompress none, lz, deflate\n\tdevice hdd, nvme\n}\n":                        "52866ab152f4e55e0de1433607629c6a9fc17290b71de50567ce8fc099edea1f",
		"campaign \"t\" {\n\tworkload checkpoint\n\tcompress sz\n\ttier bb\n\tblock-size 4MB\n}\n":       "ede0fb22f5de6efb0be566d0d240595c424598e10bf814f3b8c59ce71e7b4d9a",
		"campaign \"x\" {\n\tcompress none, lz, zfp\n\tdevice hdd, nvme\n\ttier bb\n}\n":                 "26d111f24a4b563261974b3b0273e8d006d1dbf9cac44fca812ee0b0d8428def",
		"campaign \"x\" {\n\tranks 2,2,2\n\tdevice hdd,hdd\n\treps 3\n}\n":                               "4a7912075161b22ea859c9edeeeac909746c0fb9d5825109e0add1a3119c60a2",
		"campaign \"x\" {\n\tfaults \"ostcrash:0@1ms; ostrecover:0@2ms\", \"mdsdown@1s\"\n}\n":           "2b85d430831dc561754fe193b59b180bb19934cc4b20a400a6c5f1908de4d27e",
	}
	key := func(src string) (string, bool) {
		spec, err := campaign.ParseSpec(src)
		if err == nil {
			err = spec.Validate()
		}
		if err != nil {
			return "", false
		}
		return specKey(spec.Canonical()), true
	}
	files, err := filepath.Glob("../campaign/testdata/fuzz/FuzzSpecParse/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("FuzzSpecParse corpus: %d files, %v", len(files), err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		body := strings.TrimPrefix(strings.TrimSpace(string(b)), "go test fuzz v1\nstring(")
		src, err := strconv.Unquote(strings.TrimSuffix(body, ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if got, ok := key(src); ok && got != pinned[src] {
			t.Errorf("%s: key %s, pinned %q", f, got, pinned[src])
		}
	}
	for src, want := range pinned {
		if got, ok := key(src); got != want {
			t.Errorf("%q: key %s (valid %v), want %s", src, got, ok, want)
		}
	}
}

// TestMetricsAccounting: the identity check accepts balanced books and
// rejects an unaccounted job or a stuck gauge.
func TestMetricsAccounting(t *testing.T) {
	var m Metrics
	for i := 0; i < 5; i++ {
		m.add(&m.enqueued)
	}
	m.add(&m.completed)
	m.add(&m.completed)
	m.add(&m.dropped)
	m.add(&m.cancelled)
	if err := m.Snapshot().AccountingError(); err == nil {
		t.Fatal("unbalanced books (5 != 2+1+1) passed the accounting check")
	}
	m.add(&m.completed)
	if err := m.Snapshot().AccountingError(); err != nil {
		t.Fatalf("balanced books failed: %v", err)
	}
	m.gauge(&m.queueDepth, 1)
	if err := m.Snapshot().AccountingError(); err == nil {
		t.Fatal("non-zero queue gauge passed the quiescence check")
	}
	m.gauge(&m.queueDepth, -1)
}

// TestMetricsP95: the latency window reports a sane p95.
func TestMetricsP95(t *testing.T) {
	var m Metrics
	for i := 1; i <= 100; i++ {
		m.recordLatency(time.Duration(i) * time.Millisecond)
	}
	p95 := m.Snapshot().P95JobLatencyMs
	if p95 < 90 || p95 > 100 {
		t.Fatalf("p95 over 1..100ms = %vms", p95)
	}
	// Overflow the window; old samples fall out.
	for i := 0; i < latencyWindow; i++ {
		m.recordLatency(time.Millisecond)
	}
	if p95 := m.Snapshot().P95JobLatencyMs; p95 != 1 {
		t.Fatalf("p95 after window turnover = %vms, want 1", p95)
	}
}

// TestLeaderRejectionReachesFollowers covers a leader that does not get
// into the queue, and a follower already attached to it. Both must get
// the leader's own answer, and the books must balance. In the draining
// case the submission passed the handler's draining check just before
// Shutdown and reached the queue after it. That is a 503 counted as
// rejected_draining, not a 429 counted as dropped work.
func TestLeaderRejectionReachesFollowers(t *testing.T) {
	cases := []struct {
		name   string
		reject func(s *Server)
		check  func(Snapshot) bool
	}{
		{
			name: "draining",
			reject: func(s *Server) {
				if err := s.Shutdown(context.Background()); err != nil {
					t.Fatal(err)
				}
			},
			check: func(m Snapshot) bool { return m.RejectedDraining == 1 && m.Enqueued == 0 && m.Dropped == 0 },
		},
		{
			name:   "busy",
			reject: func(s *Server) { s.admitted = s.cfg.MaxInflight },
			check:  func(m Snapshot) bool { return m.RejectedBusy == 1 && m.Enqueued == 0 },
		},
	}
	for _, tc := range cases {
		s := New(Config{Rate: -1})
		j, leader := s.flightFor("k", campaign.Spec{})
		f, follower := s.flightFor("k", campaign.Spec{})
		if !leader || follower || f != j {
			t.Fatalf("%s: flightFor did not attach a follower to the leader", tc.name)
		}
		tc.reject(s)
		slots := s.admitted
		rec := httptest.NewRecorder()
		s.lead(rec, httptest.NewRequest(http.MethodPost, "/campaigns", nil), j)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s: leader got %d, want 503", tc.name, rec.Code)
		}
		<-f.done
		if f.status != http.StatusServiceUnavailable {
			t.Errorf("%s: follower got %d, want 503", tc.name, f.status)
		}
		snap := s.Metrics().Snapshot()
		if !tc.check(snap) {
			t.Errorf("%s: wrong counters %+v", tc.name, snap)
		}
		if err := snap.AccountingError(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if s.admitted != slots {
			t.Errorf("%s: %d admission slots held after rejection, want %d", tc.name, s.admitted, slots)
		}
		_ = s.Shutdown(context.Background()) // stops the workers; the draining case already did
	}
}
