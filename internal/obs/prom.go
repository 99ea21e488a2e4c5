package obs

// Prometheus text-format exposition (version 0.0.4). A Registry (see
// registry.go) renders its declared families as []MetricFamily at scrape
// time, and WriteExposition writes them with stable ordering and the
// format's escaping. LintExposition is the promlint-style check the golden
// tests and the hermetic smoke binaries run against the output.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// MetricType is the TYPE annotation of a family.
type MetricType string

// Exposition metric types.
const (
	Counter   MetricType = "counter"
	Gauge     MetricType = "gauge"
	Histogram MetricType = "histogram"
	Untyped   MetricType = "untyped"
)

// Label is one name="value" pair; order within a sample is preserved.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposition line. Suffix is appended to the family name —
// histogram families use "_bucket", "_sum" and "_count"; scalar families
// leave it empty. A histogram _bucket sample may carry an Exemplar,
// rendered OpenMetrics-style after the value
// (`… 17 # {trace_id="<hex>"} 0.42`) so a scrape links the bucket to a
// concrete trace in /debug/traces.
type Sample struct {
	Suffix   string
	Labels   []Label
	Value    float64
	Exemplar *Exemplar
}

// MetricFamily is one named metric with its samples.
type MetricFamily struct {
	Name    string
	Help    string
	Type    MetricType
	Samples []Sample
}

// HistogramSamples renders one histogram series: per-bucket counts
// (counts[i] observations at most bounds[i], counts[len(bounds)] beyond
// the last bound) become cumulative _bucket samples with le labels
// ending at +Inf, plus _sum and _count. labels are attached to every
// sample (e.g. the route).
func HistogramSamples(labels []Label, bounds []float64, counts []uint64, sum float64) []Sample {
	out := make([]Sample, 0, len(bounds)+3)
	var cum uint64
	for i, le := range bounds {
		if i < len(counts) {
			cum += counts[i]
		}
		out = append(out, Sample{
			Suffix: "_bucket",
			Labels: append(append([]Label(nil), labels...), Label{"le", formatValue(le)}),
			Value:  float64(cum),
		})
	}
	if len(counts) > len(bounds) {
		cum += counts[len(bounds)]
	}
	out = append(out,
		Sample{Suffix: "_bucket", Labels: append(append([]Label(nil), labels...), Label{"le", "+Inf"}), Value: float64(cum)},
		Sample{Suffix: "_sum", Labels: append([]Label(nil), labels...), Value: sum},
		Sample{Suffix: "_count", Labels: append([]Label(nil), labels...), Value: float64(cum)},
	)
	return out
}

// HistogramSamplesExemplars is HistogramSamples plus per-bucket
// exemplars: exemplars is index-parallel to counts (overflow last, nil
// entries allowed) and each non-nil entry is attached to its bucket's
// sample, the overflow exemplar to the +Inf bucket.
func HistogramSamplesExemplars(labels []Label, bounds []float64, counts []uint64, sum float64, exemplars []*Exemplar) []Sample {
	out := HistogramSamples(labels, bounds, counts, sum)
	for i := 0; i <= len(bounds) && i < len(exemplars); i++ {
		if exemplars[i] != nil && i < len(out) {
			out[i].Exemplar = exemplars[i]
		}
	}
	return out
}

// WriteExposition renders the families as Prometheus text format with
// deterministic ordering: families sorted by name, samples by suffix and
// label signature. Ordering stability is what makes the golden test and
// conditional scraping diffs meaningful.
func WriteExposition(w io.Writer, families []MetricFamily) error {
	fams := append([]MetricFamily(nil), families...)
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, helpEscaper.Replace(f.Help))
		}
		typ := f.Type
		if typ == "" {
			typ = Untyped
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, typ)
		samples := append([]Sample(nil), f.Samples...)
		sort.SliceStable(samples, func(i, j int) bool {
			if samples[i].Suffix != samples[j].Suffix {
				return samples[i].Suffix < samples[j].Suffix
			}
			return labelSig(samples[i].Labels) < labelSig(samples[j].Labels)
		})
		for _, s := range samples {
			bw.WriteString(f.Name)
			bw.WriteString(s.Suffix)
			if len(s.Labels) > 0 {
				bw.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						bw.WriteByte(',')
					}
					bw.WriteString(l.Name)
					bw.WriteString(`="`)
					labelEscaper.WriteString(bw, l.Value)
					bw.WriteByte('"')
				}
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(formatValue(s.Value))
			if s.Exemplar != nil && s.Exemplar.TraceID != "" {
				// OpenMetrics-style exemplar suffix — an extension
				// over text format 0.0.4 (the content type stays
				// 0.0.4; LintExposition accepts and validates it).
				bw.WriteString(` # {trace_id="`)
				labelEscaper.WriteString(bw, s.Exemplar.TraceID)
				bw.WriteString(`"} `)
				bw.WriteString(formatValue(s.Exemplar.Seconds))
			}
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// labelSig orders samples within a family. The le label sorts numerically
// so histogram buckets come out in bound order, not lexical order.
func labelSig(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		if l.Name == "le" {
			// '~' sorts after every digit, so +Inf lands last.
			key := "~inf"
			if l.Value != "+Inf" {
				if f, err := strconv.ParseFloat(l.Value, 64); err == nil {
					key = fmt.Sprintf("%030.9f", f)
				}
			}
			fmt.Fprintf(&b, "le\x00%s\x00", key)
			continue
		}
		b.WriteString(l.Name)
		b.WriteByte(0)
		b.WriteString(l.Value)
		b.WriteByte(0)
	}
	return b.String()
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Text format 0.0.4 defines exactly three escapes in label values — \\,
// \" and \n — and two in HELP text (no quote). Every other byte, tabs and
// non-ASCII runes included, is written as is.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// LintExposition parses rendered text format and checks it: every sample
// must belong to a declared TYPE, names, values and label escapes must
// parse, no series may repeat, and histogram buckets must be cumulative
// and end in a +Inf bucket. It is the wire-level guard the CI smoke steps
// run against a live /metrics/prometheus response; naming rules (help
// text, counter suffixes, label names) are enforced when a Registry family
// is declared.
func LintExposition(r io.Reader) []string {
	var problems []string
	types := map[string]MetricType{}
	seriesSeen := map[string]bool{}
	lastBucket := map[string]float64{} // histogram series (le dropped) → previous bucket
	infSeen := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				problems = append(problems, fmt.Sprintf("line %d: malformed TYPE line", lineNo))
				continue
			}
			name, typ := fields[2], MetricType(fields[3])
			if _, dup := types[name]; dup {
				problems = append(problems, fmt.Sprintf("line %d: duplicate TYPE for %s", lineNo, name))
			}
			switch typ {
			case Counter, Gauge, Histogram, Untyped, "summary":
			default:
				problems = append(problems, fmt.Sprintf("line %d: unknown type %q", lineNo, typ))
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			problems = append(problems, fmt.Sprintf("line %d: %v", lineNo, err))
			continue
		}
		v, err := parsePromValue(value)
		if err != nil {
			problems = append(problems, fmt.Sprintf("line %d: bad value %q", lineNo, value))
		}
		if series := name + "{" + labels + "}"; seriesSeen[series] {
			problems = append(problems, fmt.Sprintf("line %d: duplicate series %s", lineNo, series))
		} else {
			seriesSeen[series] = true
		}
		base, ok := familyOf(name, types)
		if !ok {
			problems = append(problems, fmt.Sprintf("line %d: sample %s has no TYPE declaration", lineNo, name))
			continue
		}
		if types[base] == Histogram && strings.HasSuffix(name, "_bucket") {
			// WriteExposition emits buckets in bound order, so each must
			// count at least as many observations as the one before.
			var rest []string
			inf := false
			for _, pair := range splitLabelPairs(labels) {
				if le, ok := strings.CutPrefix(pair, "le="); ok {
					inf = le == `"+Inf"`
				} else {
					rest = append(rest, pair)
				}
			}
			key := name + "{" + strings.Join(rest, ",") + "}"
			if prev, ok := lastBucket[key]; ok && v < prev {
				problems = append(problems, fmt.Sprintf("line %d: histogram buckets of %s not cumulative", lineNo, key))
			}
			lastBucket[key] = v
			infSeen[key] = infSeen[key] || inf
		}
	}
	if err := sc.Err(); err != nil {
		problems = append(problems, fmt.Sprintf("read: %v", err))
	}
	for key := range lastBucket {
		if !infSeen[key] {
			problems = append(problems, fmt.Sprintf("%s: histogram without +Inf bucket", key))
		}
	}
	return problems
}

// familyOf resolves a sample name to its declared family, trying the
// bare name first and then stripping histogram/summary suffixes.
func familyOf(name string, types map[string]MetricType) (string, bool) {
	if _, ok := types[name]; ok {
		return name, true
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if t, declared := types[base]; declared && (t == Histogram || t == "summary") {
				return base, true
			}
		}
	}
	return "", false
}

func parseSampleLine(line string) (name, labels, value string, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		// Scan for the label set's own closing brace (quote-aware) —
		// an exemplar suffix carries a second {...} later in the line,
		// so a LastIndexByte would grab the wrong one.
		j, berr := closingBrace(rest, i)
		if berr != nil {
			return "", "", "", berr
		}
		labels = rest[i+1 : j]
		if err := checkEscapes(labels); err != nil {
			return "", "", "", err
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", "", "", fmt.Errorf("malformed sample line")
		}
		name = fields[0]
		rest = strings.TrimSpace(strings.TrimPrefix(rest, name))
	}
	if !metricNameRe.MatchString(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q", name)
	}
	// Split off an OpenMetrics-style exemplar (` # {…} value [ts]`)
	// before counting fields; the labels are already stripped, so the
	// first '#' here can only start an exemplar.
	var exemplar string
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		exemplar = strings.TrimSpace(rest[i+1:])
		rest = strings.TrimSpace(rest[:i])
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // value [timestamp]
		return "", "", "", fmt.Errorf("malformed sample line")
	}
	if exemplar != "" {
		if eerr := lintExemplar(exemplar); eerr != nil {
			return "", "", "", eerr
		}
	}
	return name, labels, fields[0], nil
}

// closingBrace finds the index of the '}' matching the '{' at open,
// skipping braces inside quoted label values.
func closingBrace(s string, open int) (int, error) {
	inStr := false
	for i := open + 1; i < len(s); i++ {
		switch {
		case inStr:
			if s[i] == '\\' {
				i++
			} else if s[i] == '"' {
				inStr = false
			}
		case s[i] == '"':
			inStr = true
		case s[i] == '}':
			return i, nil
		}
	}
	return 0, fmt.Errorf("unbalanced braces")
}

// checkEscapes rejects label-value escapes text format 0.0.4 does not
// define: inside quotes a backslash may only precede \\, " or n.
func checkEscapes(labels string) error {
	inStr := false
	for i := 0; i < len(labels); i++ {
		switch {
		case inStr && labels[i] == '\\':
			if i+1 == len(labels) || !strings.ContainsRune(`\"n`, rune(labels[i+1])) {
				return fmt.Errorf("undefined escape in label set {%s}", labels)
			}
			i++
		case labels[i] == '"':
			inStr = !inStr
		}
	}
	return nil
}

// lintExemplar validates the part after a sample's '#': a {label="v"}
// set followed by a value and an optional timestamp.
func lintExemplar(s string) error {
	if !strings.HasPrefix(s, "{") {
		return fmt.Errorf("malformed exemplar %q", s)
	}
	j, err := closingBrace(s, 0)
	if err != nil {
		return fmt.Errorf("malformed exemplar %q", s)
	}
	if err := checkEscapes(s[1:j]); err != nil {
		return err
	}
	for _, part := range splitLabelPairs(s[1:j]) {
		name, _, ok := strings.Cut(part, "=")
		if !ok || !labelNameRe.MatchString(strings.TrimSpace(name)) {
			return fmt.Errorf("bad exemplar label %q", part)
		}
	}
	fields := strings.Fields(strings.TrimSpace(s[j+1:]))
	if len(fields) < 1 || len(fields) > 2 { // value [timestamp]
		return fmt.Errorf("exemplar missing value in %q", s)
	}
	if _, err := parsePromValue(fields[0]); err != nil {
		return fmt.Errorf("bad exemplar value %q", fields[0])
	}
	return nil
}

// splitLabelPairs splits a label body on commas outside quoted values.
func splitLabelPairs(s string) []string {
	var parts []string
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch {
		case inStr:
			if s[i] == '\\' {
				i++
			} else if s[i] == '"' {
				inStr = false
			}
		case s[i] == '"':
			inStr = true
		case s[i] == ',':
			parts = append(parts, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if tail := strings.TrimSpace(s[start:]); tail != "" {
		parts = append(parts, tail)
	}
	return parts
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}
