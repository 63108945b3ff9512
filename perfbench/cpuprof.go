package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuModules are the packages host CPU is attributed to. A sample goes to
// the innermost pioeval/internal/<pkg> frame on its stack: to its own
// bucket when listed here, to "other" for the remaining internal packages,
// and to "runtime" when no internal frame is on the stack at all (runtime,
// standard library and the benchmark's own code).
var cpuModules = []string{
	"des", "mpi", "posixio", "mpiio", "storage", "burstbuffer", "reduce", "pfs",
	"netsim", "blockdev", "workload", "campaign", "stats", "serve", "other", "runtime",
}

const internalPrefix = "pioeval/internal/"

// cpuShares decodes a runtime/pprof CPU profile and returns, for every
// module, its share of samples (cpu.<module>) and the sample count
// (cpu.<module>.samples).
func cpuShares(prof *bytes.Buffer) (map[string]metric, error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	known := map[string]bool{}
	for _, m := range cpuModules {
		known[m] = true
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		bucket := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.strings[p.funcNames[fn]]
				if rest, ok := strings.CutPrefix(name, internalPrefix); ok {
					pkg := rest[:strings.IndexAny(rest+".", "./")]
					bucket = "other"
					if known[pkg] {
						bucket = pkg
					}
					break stack
				}
			}
		}
		counts[bucket] += s.count
		total += s.count
	}
	out := map[string]metric{}
	for _, m := range cpuModules {
		share := 0.0
		if total > 0 {
			share = float64(counts[m]) / float64(total)
		}
		out["cpu."+m] = metric{share, "frac"}
		out["cpu."+m+".samples"] = metric{float64(counts[m]), "count"}
	}
	return out, nil
}

// profile is the part of a pprof protobuf the attribution needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

// parseProfile decodes the gzipped profile.proto runtime/pprof writes:
// Profile{sample=2, location=4, function=5, string_table=6},
// Sample{location_id=1, value=2}, Location{id=1, line=4},
// Line{function_id=1}, Function{id=1, name=2}.
func parseProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0]) // sample_type[0] is samples/count
			}
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's number
// and its varint value (wire type 0) or its bytes (wire type 2).
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b set) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
