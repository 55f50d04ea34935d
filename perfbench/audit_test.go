package main

import (
	"strings"
	"testing"

	"repro/internal/service"
)

func acsSpec() auditSpec {
	return auditSpec{protocol: "acs", n: 4, f: 1, eps: 0.1, inputs: []float64{0, 3, 1, 2}, honest: []int{0, 1, 2, 3}}
}

// acsDecisions is a correct acs decision set: every honest vertex holds
// the same n−f subset with each origin's own input.
func acsDecisions() map[uint64]map[int]service.Decision {
	set := make(map[uint64]map[int]service.Decision)
	for _, inst := range []uint64{1<<10 | 0, 2<<10 | 1} {
		byVertex := make(map[int]service.Decision)
		for v := 0; v < 4; v++ {
			byVertex[v] = service.Decision{Inst: inst, Protocol: "acs", Vector: map[int]float64{0: 0, 1: 3, 2: 1}}
		}
		set[inst] = byVertex
	}
	return set
}

func aadSpec() auditSpec {
	return auditSpec{protocol: "aad", n: 4, f: 1, eps: 0.1, inputs: []float64{0.5, 3, 1, 2}, honest: []int{0, 1, 2, 3}}
}

func aadDecisions() map[uint64]map[int]service.Decision {
	set := make(map[uint64]map[int]service.Decision)
	byVertex := make(map[int]service.Decision)
	for v, x := range []float64{1.50, 1.52, 1.55, 1.58} {
		byVertex[v] = service.Decision{Inst: 1 << 10, Protocol: "aad", Value: x}
	}
	set[1<<10] = byVertex
	return set
}

func TestAuditAcceptsCorrectDecisions(t *testing.T) {
	if bad := audit(acsSpec(), acsDecisions()); len(bad) != 0 {
		t.Fatalf("acs: correct set flagged: %v", bad)
	}
	if bad := audit(aadSpec(), aadDecisions()); len(bad) != 0 {
		t.Fatalf("aad: correct set flagged: %v", bad)
	}
}

func TestAuditRejectsCorruptedDecisions(t *testing.T) {
	cases := []struct {
		name    string
		spec    auditSpec
		corrupt func(map[uint64]map[int]service.Decision)
		want    string
	}{
		{"acs vectors differ", acsSpec(), func(s map[uint64]map[int]service.Decision) {
			d := s[1<<10][2]
			d.Vector = map[int]float64{0: 0, 1: 3, 3: 2}
			s[1<<10][2] = d
		}, "different vectors"},
		{"acs subset below n-f", acsSpec(), func(s map[uint64]map[int]service.Decision) {
			for v, d := range s[2<<10|1] {
				d.Vector = map[int]float64{0: 0, 1: 3}
				s[2<<10|1][v] = d
			}
		}, "< n-f"},
		{"acs forged honest value", acsSpec(), func(s map[uint64]map[int]service.Decision) {
			for v, d := range s[1<<10] {
				d.Vector = map[int]float64{0: 0, 1: 3, 2: 7}
				s[1<<10][v] = d
			}
		}, "whose input is"},
		{"acs honest vertex undecided", acsSpec(), func(s map[uint64]map[int]service.Decision) {
			delete(s[1<<10], 3)
		}, "has no decision"},
		{"aad spread at eps", aadSpec(), func(s map[uint64]map[int]service.Decision) {
			d := s[1<<10][3]
			d.Value = 1.60
			s[1<<10][3] = d
		}, "spread"},
		{"aad output outside honest range", aadSpec(), func(s map[uint64]map[int]service.Decision) {
			for v, d := range s[1<<10] {
				d.Value = 0.45 + 0.01*float64(v)
				s[1<<10][v] = d
			}
		}, "outside the honest input range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := acsDecisions()
			if tc.spec.protocol == "aad" {
				set = aadDecisions()
			}
			tc.corrupt(set)
			bad := audit(tc.spec, set)
			if len(bad) == 0 {
				t.Fatal("corrupted decision set passed the audit")
			}
			if !strings.Contains(strings.Join(bad, "\n"), tc.want) {
				t.Fatalf("violations %v do not mention %q", bad, tc.want)
			}
		})
	}
}
