package statsd

import (
	"bytes"
	"errors"
	"math"
)

// MetricType classifies one line-protocol metric.
type MetricType uint8

const (
	// Gauge is an instantaneous reading (`|g`): for power-plane buckets,
	// the IT draw in watts at the moment of sampling. Gauges are the only
	// type that drives telemetry.Sample emission.
	Gauge MetricType = iota
	// Counter is a monotonic event count (`|c`), corrected for its sample
	// rate at accumulation and reported in flush summaries.
	Counter
	// Timer is a sampled distribution (`|ms`), summarized (mean/p99) per
	// flush for observability.
	Timer
)

// String names the wire token for the type.
func (t MetricType) String() string {
	switch t {
	case Gauge:
		return "g"
	case Counter:
		return "c"
	case Timer:
		return "ms"
	}
	return "?"
}

// Metric is one parsed line. Bucket aliases the input buffer — callers
// that retain it past the datagram's lifetime must copy; the aggregator
// only ever uses it for an in-place map lookup, which is what keeps the
// parse-and-accumulate hot path allocation-free.
type Metric struct {
	Bucket []byte
	Value  float64
	Rate   float64 // sample rate in (0, 1]; 1 when the line carries none
	Type   MetricType
}

// Parse errors are package-level sentinels so the hot path never
// allocates to report a malformed line.
var (
	errEmptyLine   = errors.New("statsd: empty line")
	errNoBucket    = errors.New("statsd: line has no bucket (missing ':')")
	errBadBucket   = errors.New("statsd: bucket holds spaces or control bytes")
	errNoType      = errors.New("statsd: line has no type (missing '|')")
	errBadType     = errors.New("statsd: unknown metric type (want g, c, or ms)")
	errBadValue    = errors.New("statsd: unparseable metric value")
	errNonFinite   = errors.New("statsd: non-finite metric value")
	errBadRate     = errors.New("statsd: bad sample rate (want |@rate with 0 < rate <= 1)")
	errExtraFields = errors.New("statsd: trailing fields after sample rate")
)

// ParseLine parses one `bucket:value|type[|@rate]` line into m. It never
// allocates: the bucket aliases line, errors are sentinels, and the
// value parser works directly on the bytes. NaN and infinity are
// unrepresentable — the grammar has no token for them and overflowing
// literals are rejected — so a parsed Metric always carries a finite
// Value and a Rate in (0, 1].
func ParseLine(line []byte, m *Metric) error {
	if len(line) == 0 {
		return errEmptyLine
	}
	colon := bytes.IndexByte(line, ':')
	if colon <= 0 {
		return errNoBucket
	}
	bucket := line[:colon]
	for _, b := range bucket {
		if b <= ' ' || b == 0x7f {
			return errBadBucket
		}
	}
	rest := line[colon+1:]
	pipe := bytes.IndexByte(rest, '|')
	if pipe < 0 {
		return errNoType
	}
	val, err := parseValue(rest[:pipe])
	if err != nil {
		return err
	}
	rest = rest[pipe+1:]

	typ := rest
	rate := 1.0
	if p := bytes.IndexByte(rest, '|'); p >= 0 {
		typ = rest[:p]
		tail := rest[p+1:]
		if len(tail) < 2 || tail[0] != '@' {
			return errBadRate
		}
		if bytes.IndexByte(tail[1:], '|') >= 0 {
			return errExtraFields
		}
		rate, err = parseValue(tail[1:])
		if err != nil || rate <= 0 || rate > 1 {
			return errBadRate
		}
	}
	switch {
	case len(typ) == 1 && typ[0] == 'g':
		m.Type = Gauge
	case len(typ) == 1 && typ[0] == 'c':
		m.Type = Counter
	case len(typ) == 2 && typ[0] == 'm' && typ[1] == 's':
		m.Type = Timer
	default:
		return errBadType
	}
	m.Bucket = bucket
	m.Value = val
	m.Rate = rate
	return nil
}

// ParsePacket walks a datagram's newline-separated lines, invoking emit
// for every well-formed metric. Blank lines (including the trailing
// newline most emitters send) are skipped free of charge; carriage
// returns before a newline are tolerated. It returns the number of
// malformed lines — a truncated datagram shows up as exactly one.
func ParsePacket(buf []byte, emit func(Metric)) (malformed int) {
	var m Metric
	for len(buf) > 0 {
		line := buf
		if i := bytes.IndexByte(buf, '\n'); i >= 0 {
			line, buf = buf[:i], buf[i+1:]
		} else {
			buf = nil
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) == 0 {
			continue
		}
		if err := ParseLine(line, &m); err != nil {
			malformed++
			continue
		}
		emit(m)
	}
	return malformed
}

// parseValue is a zero-allocation float parser for the subset the wire
// grammar needs: [+-]digits[.digits][(e|E)[+-]digits]. It exists because
// strconv.ParseFloat requires a string (an allocation per line) and
// accepts "NaN"/"Inf" tokens the telemetry plane must never admit.
// Decimal accumulation is exact for the integer watt readings real
// feeds send and within an ulp elsewhere — telemetry, not finance.
func parseValue(b []byte) (float64, error) {
	if len(b) == 0 {
		return 0, errBadValue
	}
	neg := false
	i := 0
	switch b[0] {
	case '+':
		i = 1
	case '-':
		neg = true
		i = 1
	}
	var mant float64
	digits := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		mant = mant*10 + float64(b[i]-'0')
		digits++
	}
	exp := 0
	if i < len(b) && b[i] == '.' {
		i++
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			mant = mant*10 + float64(b[i]-'0')
			digits++
			exp--
		}
	}
	if digits == 0 {
		return 0, errBadValue
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) {
			switch b[i] {
			case '+':
				i++
			case '-':
				eneg = true
				i++
			}
		}
		e, edigits := 0, 0
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			// Saturate: anything this large is non-finite anyway.
			if e < 1<<20 {
				e = e*10 + int(b[i]-'0')
			}
			edigits++
		}
		if edigits == 0 {
			return 0, errBadValue
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if i != len(b) {
		return 0, errBadValue
	}
	v := mant
	switch {
	case exp > 308:
		return 0, errNonFinite
	case exp < -323:
		v = 0
	case exp != 0:
		v *= math.Pow10(exp)
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0, errNonFinite
	}
	if neg {
		v = -v
	}
	return v, nil
}

// Power-plane bucket grammar: fleet.<system>.power. The system segment
// is everything between the fixed prefix and suffix, so system names
// containing dots still round-trip.
const (
	bucketPrefix = "fleet."
	bucketSuffix = ".power"
)

// systemOf extracts the system segment from a power-plane bucket
// without allocating (the result aliases the bucket). The second return
// is false for buckets outside the fleet.<system>.power grammar.
func systemOf(bucket []byte) ([]byte, bool) {
	if len(bucket) <= len(bucketPrefix)+len(bucketSuffix) {
		return nil, false
	}
	if string(bucket[:len(bucketPrefix)]) != bucketPrefix {
		return nil, false
	}
	if string(bucket[len(bucket)-len(bucketSuffix):]) != bucketSuffix {
		return nil, false
	}
	return bucket[len(bucketPrefix) : len(bucket)-len(bucketSuffix)], true
}
