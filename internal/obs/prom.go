package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// L is one metric label pair for PromWriter.
type L struct {
	K, V string
}

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4) with no external dependencies: HELP/TYPE comment pairs
// followed by sample lines, histogram snapshots expanded into cumulative
// _bucket/_sum/_count series. Errors are sticky — callers write the whole
// page and check Err once.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a writer emitting to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err reports the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Header emits the HELP/TYPE comment pair for a metric family. typ is one
// of "counter", "gauge", "histogram".
func (p *PromWriter) Header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Value emits one sample line for a counter or gauge family.
func (p *PromWriter) Value(name string, v float64, labels ...L) {
	p.printf("%s%s %s\n", name, renderLabels(labels), formatFloat(v))
}

// Hist emits a histogram snapshot as the conventional cumulative series:
// one _bucket line per bound (le ascending, +Inf last), then _sum and
// _count. The snapshot's buckets are per-bucket counts over the shared
// bucketBounds; a zero snapshot renders as an empty histogram.
func (p *PromWriter) Hist(name string, s HistSnapshot, labels ...L) {
	base := labels[:len(labels):len(labels)] // force append below to copy
	var cum int64
	for i, b := range bucketBounds {
		if i < len(s.Buckets) {
			cum += s.Buckets[i]
		}
		p.printf("%s_bucket%s %d\n", name, renderLabels(append(base, L{"le", formatFloat(b)})), cum)
	}
	p.printf("%s_bucket%s %d\n", name, renderLabels(append(base, L{"le", "+Inf"})), s.Count)
	p.printf("%s_sum%s %s\n", name, renderLabels(labels), formatFloat(s.SumSeconds))
	p.printf("%s_count%s %d\n", name, renderLabels(labels), s.Count)
}

func renderLabels(labels []L) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.K)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.V))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// ValidateExposition parses a text exposition page and checks it is
// well-formed: every sample line is `name[{labels}] value`, every family has
// a TYPE comment before its samples, histogram bucket series are cumulative
// (nondecreasing in ascending le order) and end in +Inf, and histogram
// _count matches the +Inf bucket. It returns the number of metric families
// seen. The /metrics golden test and cmd/metricslint share this checker, so
// CI fails on exactly what the test would fail on.
func ValidateExposition(r io.Reader) (families int, err error) {
	typeOf := map[string]string{}
	type bucketKey struct{ name, labels string }
	type bucketSeries struct {
		les  []float64
		cums []float64
	}
	buckets := map[bucketKey]*bucketSeries{}
	counts := map[bucketKey]float64{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	sawSample := false
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return 0, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return 0, fmt.Errorf("line %d: malformed TYPE comment %q", lineNo, line)
				}
				name, typ := fields[2], fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return 0, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := typeOf[name]; dup {
					return 0, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				typeOf[name] = typ
			}
			continue
		}
		name, labels, value, perr := parseSampleLine(line)
		if perr != nil {
			return 0, fmt.Errorf("line %d: %v", lineNo, perr)
		}
		sawSample = true
		family := name
		var isBucket, isCount bool
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name {
				if t, ok := typeOf[trimmed]; ok && (t == "histogram" || t == "summary") {
					family = trimmed
					isBucket = suffix == "_bucket"
					isCount = suffix == "_count"
					break
				}
			}
		}
		typ, ok := typeOf[family]
		if !ok {
			return 0, fmt.Errorf("line %d: sample %q has no preceding TYPE comment", lineNo, name)
		}
		if typ == "histogram" {
			key := bucketKey{name: family}
			var rest []string
			var le string
			for _, l := range splitLabels(labels) {
				if k, v, ok := strings.Cut(l, "="); ok && k == "le" {
					le = strings.Trim(v, `"`)
					continue
				}
				rest = append(rest, l)
			}
			key.labels = strings.Join(rest, ",")
			switch {
			case isBucket:
				if le == "" {
					return 0, fmt.Errorf("line %d: histogram bucket %q missing le label", lineNo, line)
				}
				bound := math.Inf(1)
				if le != "+Inf" {
					bound, perr = strconv.ParseFloat(le, 64)
					if perr != nil {
						return 0, fmt.Errorf("line %d: bad le value %q", lineNo, le)
					}
				}
				s := buckets[key]
				if s == nil {
					s = &bucketSeries{}
					buckets[key] = s
				}
				s.les = append(s.les, bound)
				s.cums = append(s.cums, value)
			case isCount:
				counts[key] = value
			}
		}
		if typ == "counter" && value < 0 {
			return 0, fmt.Errorf("line %d: counter %q has negative value %g", lineNo, name, value)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !sawSample {
		return 0, fmt.Errorf("exposition contains no samples")
	}
	for key, s := range buckets {
		if !sort.Float64sAreSorted(s.les) {
			return 0, fmt.Errorf("histogram %s{%s}: le bounds out of order", key.name, key.labels)
		}
		if len(s.les) == 0 || !math.IsInf(s.les[len(s.les)-1], 1) {
			return 0, fmt.Errorf("histogram %s{%s}: missing +Inf bucket", key.name, key.labels)
		}
		for i := 1; i < len(s.cums); i++ {
			if s.cums[i] < s.cums[i-1] {
				return 0, fmt.Errorf("histogram %s{%s}: bucket counts not cumulative at le=%g (%g < %g)",
					key.name, key.labels, s.les[i], s.cums[i], s.cums[i-1])
			}
		}
		if c, ok := counts[key]; ok && c != s.cums[len(s.cums)-1] {
			return 0, fmt.Errorf("histogram %s{%s}: _count %g != +Inf bucket %g",
				key.name, key.labels, c, s.cums[len(s.cums)-1])
		}
	}
	return len(typeOf), nil
}

// parseSampleLine splits `name[{labels}] value [timestamp]`.
func parseSampleLine(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced braces in %q", line)
		}
		labels = rest[i+1 : j]
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.SplitN(rest, " ", 2)
		if len(fields) != 2 {
			return "", "", 0, fmt.Errorf("malformed sample %q", line)
		}
		name, rest = fields[0], strings.TrimSpace(fields[1])
	}
	if name == "" || !validMetricName(name) {
		return "", "", 0, fmt.Errorf("invalid metric name in %q", line)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", 0, fmt.Errorf("malformed sample %q", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad value in %q: %v", line, err)
	}
	return name, labels, value, nil
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	var b strings.Builder
	inQuote := false
	escaped := false
	for _, r := range s {
		switch {
		case escaped:
			b.WriteRune(r)
			escaped = false
		case r == '\\' && inQuote:
			b.WriteRune(r)
			escaped = true
		case r == '"':
			b.WriteRune(r)
			inQuote = !inQuote
		case r == ',' && !inQuote:
			out = append(out, b.String())
			b.Reset()
		default:
			b.WriteRune(r)
		}
	}
	if b.Len() > 0 {
		out = append(out, b.String())
	}
	return out
}

func validMetricName(name string) bool {
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return name != ""
}
