package campaign

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSON serializes the report as indented JSON — the repository's
// BENCH_*.json perf-trajectory format. Struct fields emit in declaration
// order and metric maps in sorted key order, so equal reports produce
// byte-identical output.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV emits one row per grid point: the point's axes followed by
// mean/p95/ci_lo/ci_hi for every metric (sorted metric order).
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	metrics := r.MetricNames()
	header := []string{"point", "ranks", "device", "stripe_count", "stripe_size",
		"block_size", "transfer_size", "pattern", "collective", "tier", "compress", "faults"}
	for _, m := range metrics {
		header = append(header, m+"_mean", m+"_p95", m+"_ci_lo", m+"_ci_hi")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, ps := range r.Points {
		p := ps.Point
		row := []string{
			fmt.Sprint(p.ID), fmt.Sprint(p.Ranks), p.Device,
			fmt.Sprint(p.StripeCount), fmt.Sprint(p.StripeSize),
			fmt.Sprint(p.BlockSize), fmt.Sprint(p.TransferSize),
			p.Pattern, fmt.Sprint(p.Collective), p.Tier, p.Compress, p.Faults,
		}
		for _, m := range metrics {
			d, ok := ps.Metrics[m]
			if !ok {
				row = append(row, "", "", "", "")
				continue
			}
			row = append(row,
				fmt.Sprintf("%g", d.Mean), fmt.Sprintf("%g", d.P95),
				fmt.Sprintf("%g", d.CILo), fmt.Sprintf("%g", d.CIHi))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
