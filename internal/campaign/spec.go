package campaign

import (
	"fmt"
	"strconv"
	"strings"

	"pioeval/internal/cli"
)

// ParseSpec parses the campaign spec text format, a block syntax in the
// style of the iolang workload DSL: a `campaign "name" { ... }` block
// whose lines each set one scalar (`seed`, `reps`, `steps`, `workload`)
// or one axis as a comma-separated value list. Sizes accept the usual
// B/KB/MB/GB suffixes (via internal/cli), and fault specs are quoted
// strings in the internal/faults scripted-campaign syntax:
//
//	campaign "stripe-sweep" {
//	    workload ior
//	    seed 42
//	    reps 3
//	    ranks 2, 4
//	    device hdd, ssd
//	    stripe-count 1, 4
//	    transfer-size 256KB, 1MB
//	    pattern sequential, random
//	    collective false, true
//	    faults "", "ostcrash:1@5ms; ostrecover:1@40ms"
//	}
//
// Lines may carry trailing `#` comments. Unset keys take the Spec
// defaults.
func ParseSpec(src string) (Spec, error) {
	var s Spec
	lines := strings.Split(src, "\n")
	inBlock := false
	closed := false
	for ln, raw := range lines {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		errf := func(format string, args ...interface{}) (Spec, error) {
			return Spec{}, fmt.Errorf("campaign spec:%d: %s", ln+1, fmt.Sprintf(format, args...))
		}
		if !inBlock {
			rest, ok := strings.CutPrefix(line, "campaign")
			if !ok {
				return errf("expected `campaign \"name\" {`, got %q", line)
			}
			rest = strings.TrimSpace(rest)
			rest, ok = strings.CutSuffix(rest, "{")
			if !ok {
				return errf("campaign header must end with `{`")
			}
			name, err := unquote(strings.TrimSpace(rest))
			if err != nil {
				return errf("bad campaign name: %v", err)
			}
			s.Name = name
			inBlock = true
			continue
		}
		if line == "}" {
			closed = true
			inBlock = false
			continue
		}
		if closed {
			return errf("trailing input after campaign block")
		}
		key, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		if rest == "" {
			return errf("key %q needs a value", key)
		}
		if err := s.set(key, splitList(rest)); err != nil {
			return errf("%v", err)
		}
	}
	if !closed {
		return Spec{}, fmt.Errorf("campaign spec: missing `campaign \"name\" { ... }` block")
	}
	return s, nil
}

// set assigns one parsed key's values onto the spec.
func (s *Spec) set(key string, vals []string) error {
	scalar := func() (string, error) {
		if len(vals) != 1 {
			return "", fmt.Errorf("key %q takes exactly one value", key)
		}
		return vals[0], nil
	}
	var err error
	switch key {
	case "workload":
		s.Workload, err = scalar()
	case "seed":
		v, serr := scalar()
		if serr != nil {
			return serr
		}
		s.Seed, err = strconv.ParseInt(v, 10, 64)
	case "reps":
		v, serr := scalar()
		if serr != nil {
			return serr
		}
		s.Reps, err = strconv.Atoi(v)
	case "steps":
		v, serr := scalar()
		if serr != nil {
			return serr
		}
		s.Steps, err = strconv.Atoi(v)
	case "ranks":
		s.Ranks, err = parseInts(vals)
	case "device":
		s.Devices = vals
	case "stripe-count":
		s.StripeCounts, err = parseInts(vals)
	case "stripe-size":
		s.StripeSizes, err = parseSizes(vals)
	case "block-size":
		s.BlockSizes, err = parseSizes(vals)
	case "transfer-size":
		s.TransferSizes, err = parseSizes(vals)
	case "pattern":
		s.Patterns = vals
	case "collective":
		s.Collective, err = parseBools(vals)
	case "tier":
		s.Tiers = vals
	case "compress":
		s.Compress = vals
	case "faults":
		for _, v := range vals {
			f, qerr := unquote(v)
			if qerr != nil {
				return fmt.Errorf("faults values must be quoted strings: %v", qerr)
			}
			s.Faults = append(s.Faults, f)
		}
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return err
}

func parseInts(vals []string) ([]int, error) {
	out := make([]int, len(vals))
	for i, v := range vals {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", v)
		}
		out[i] = n
	}
	return out, nil
}

func parseSizes(vals []string) ([]int64, error) {
	out := make([]int64, len(vals))
	for i, v := range vals {
		n, err := cli.ParseSize(v)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

func parseBools(vals []string) ([]bool, error) {
	out := make([]bool, len(vals))
	for i, v := range vals {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return nil, fmt.Errorf("bad boolean %q", v)
		}
		out[i] = b
	}
	return out, nil
}

// splitList splits a comma-separated value list, honoring double quotes
// (fault specs contain commas-free but space-laden terms; quoting keeps
// the grammar uniform).
func splitList(s string) []string {
	var out []string
	var cur strings.Builder
	inQ := false
	for _, r := range s {
		switch {
		case r == '"':
			inQ = !inQ
			cur.WriteRune(r)
		case r == ',' && !inQ:
			out = append(out, strings.TrimSpace(cur.String()))
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	out = append(out, strings.TrimSpace(cur.String()))
	return out
}

func stripComment(line string) string {
	inQ := false
	for i, r := range line {
		switch {
		case r == '"':
			inQ = !inQ
		case r == '#' && !inQ:
			return line[:i]
		}
	}
	return line
}

func unquote(s string) (string, error) {
	if len(s) < 2 || !strings.HasPrefix(s, `"`) || !strings.HasSuffix(s, `"`) {
		return "", fmt.Errorf("expected a double-quoted string, got %q", s)
	}
	return s[1 : len(s)-1], nil
}
