package main

import (
	"reflect"
	"testing"
)

func takeN(seed int64, n int) []request {
	s := newSchedule(seed, poolSpecs(seed))
	out := make([]request, n)
	for i := range out {
		out[i] = s.take()
	}
	return out
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b := takeN(7, 2000), takeN(7, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two request sequences")
	}
	if reflect.DeepEqual(a, takeN(8, 2000)) {
		t.Fatal("two seeds gave the same request sequence")
	}

	seen := map[uint64]bool{}
	misses := 0
	for i, r := range a {
		if r.member != i%simdMembers {
			t.Fatalf("request %d goes to member %d, want round-robin %d", i, r.member, i%simdMembers)
		}
		if !r.miss {
			if r.spec.MeasureCycles != poolMeasureCycles {
				t.Fatalf("hit %d is not a pool spec: %+v", i, r.spec)
			}
			continue
		}
		misses++
		if seen[r.spec.MeasureCycles] || r.spec.MeasureCycles == poolMeasureCycles {
			t.Fatalf("miss %d repeats MeasureCycles %d", i, r.spec.MeasureCycles)
		}
		seen[r.spec.MeasureCycles] = true
	}
	if misses != len(a)/missEvery {
		t.Errorf("%d misses in %d requests, want one in %d", misses, len(a), missEvery)
	}
}
