package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks, or 0 for an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// promHist is one histogram series read from the Prometheus text exposition:
// upper bounds and cumulative counts, +Inf last.
type promHist struct {
	bounds []float64
	cum    []float64
}

// parseProm extracts every histogram series from a Prometheus text
// exposition, keyed by metric name plus its non-le labels, e.g.
// `http_request_seconds{route="POST /api/jobs"}`.
func parseProm(text []byte) map[string]*promHist {
	out := make(map[string]*promHist)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		name, rest, ok := strings.Cut(line, "_bucket{")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		labels, value, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		i := strings.LastIndex(labels, `le="`)
		if i < 0 {
			continue
		}
		le := strings.TrimSuffix(labels[i+len(`le="`):], `"`)
		key := name
		if series := strings.TrimSuffix(labels[:i], ","); series != "" {
			key = name + "{" + series + "}"
		}
		bound, err := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			bound, err = math.Inf(1), nil
		}
		n, err2 := strconv.ParseFloat(value, 64)
		if err != nil || err2 != nil {
			continue
		}
		h := out[key]
		if h == nil {
			h = &promHist{}
			out[key] = h
		}
		h.bounds = append(h.bounds, bound)
		h.cum = append(h.cum, n)
	}
	return out
}

// histDelta is the quantile of the observations a series gained between two
// expositions, with the count of those observations. It interpolates within
// the bucket holding the target rank, as the registry's own Quantile does.
func histDelta(before, after map[string]*promHist, key string, q float64) (float64, int) {
	a := after[key]
	if a == nil {
		return 0, 0
	}
	delta := make([]float64, len(a.cum))
	copy(delta, a.cum)
	if b := before[key]; b != nil && len(b.cum) == len(a.cum) {
		for i := range delta {
			delta[i] -= b.cum[i]
		}
	}
	total := delta[len(delta)-1]
	if total <= 0 {
		return 0, 0
	}
	rank := q * total
	prevCum, lower := 0.0, 0.0
	for i, c := range delta {
		if c >= rank && c > prevCum {
			if math.IsInf(a.bounds[i], 1) {
				return lower, int(total)
			}
			within := (rank - prevCum) / (c - prevCum)
			return lower + (a.bounds[i]-lower)*within, int(total)
		}
		prevCum, lower = c, a.bounds[i]
	}
	return lower, int(total)
}
