package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return c
}

// lastLine runs the benchmark with args and decodes its final output line.
func lastLine(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run %v: %v\n%s%s", args, err, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("run %v: correct=%t attempted=%d failed=%d\n%s", args, r.Correct, r.Attempted, r.Failed, out.String())
	}
	return r
}

// TestEveryWorkloadPrintsEveryMetric runs each workload at the tiny size in
// both modes and checks that every metric BENCHMARK.json names is printed
// with its unit, that the tiny outputs match their recorded digests, and
// that the traced run places every span.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloadNames))
	}
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			base := []string{"--workload", w.Name, "--seconds", "0.2", "--size", "tiny"}
			r := lastLine(t, append(base, "--trace", "0")...)
			for _, m := range c.EndToEnd {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
				} else if got.Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, got.Value)
				}
			}
			if len(r.Metrics) != len(c.EndToEnd) {
				t.Errorf("trace 0 printed %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(c.EndToEnd))
			}
			r = lastLine(t, append(base, "--trace", "1")...)
			for _, m := range c.PerLayer {
				if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(r.Metrics) != len(c.PerLayer) {
				t.Errorf("trace 1 printed %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(c.PerLayer))
			}
			if n := r.Metrics["trace.errors"].Value; n != 0 {
				t.Errorf("traced run reported %g trace errors", n)
			}
		})
	}
}

// TestWrongReferenceDigestFails checks that an output differing from the
// recorded reference counts as failed and makes the run exit non-zero.
func TestWrongReferenceDigestFails(t *testing.T) {
	wrong := map[string]map[string]string{"tiny": {"io500-bb-lz": "0123456789abcdef0123456789abcdef"}}
	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		res, err := execute(options{
			workload: "io500-bb-lz", seed: defaultSeed, seconds: 0.1, size: "tiny",
			trace: trace, reference: wrong,
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("trace=%t: wrong reference digest not caught: correct=%t attempted=%d failed=%d",
				trace, res.Correct, res.Attempted, res.Failed)
		}
		if !strings.Contains(out.String(), "check failed: output digest") {
			t.Errorf("trace=%t: mismatch not reported:\n%s", trace, out.String())
		}
	}
}
