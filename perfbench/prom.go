package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// exposition is one scrape of a Prometheus text exposition: every sample
// keyed by its series (metric name plus label set, as written).
type exposition map[string]float64

// parseExposition reads the text format simd's /metrics serves. Comment
// lines are skipped; every other line must be "series value".
func parseExposition(text string) (exposition, error) {
	e := exposition{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		l := strings.TrimSpace(sc.Text())
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		// Label values may contain spaces, so split at the last space.
		i := strings.LastIndexByte(l, ' ')
		if i < 0 {
			return nil, fmt.Errorf("exposition line %d: no value: %q", line, l)
		}
		v, err := strconv.ParseFloat(l[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", line, err)
		}
		e[strings.TrimSpace(l[:i])] = v
	}
	return e, sc.Err()
}

// sum adds every series of one metric name across its label sets.
func (e exposition) sum(name string) float64 {
	var total float64
	for series, v := range e {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// delta returns after minus before for one metric name summed over its
// label sets and over every member scraped (before[i] and after[i] are the
// same member).
func delta(before, after []exposition, name string) float64 {
	var d float64
	for i := range after {
		d += after[i].sum(name) - before[i].sum(name)
	}
	return d
}

// histMean is the mean observation of a histogram between two scrapes.
func histMean(before, after []exposition, name string) float64 {
	return ratio(delta(before, after, name+"_sum"), delta(before, after, name+"_count"))
}
