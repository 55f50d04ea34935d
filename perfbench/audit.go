package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/service"
)

// auditSpec is what the correctness gate knows about a service pass: the
// protocol's decision shape, the fault bound, ε and the honest inputs.
type auditSpec struct {
	protocol string // "acs" or "aad"
	n, f     int
	eps      float64
	inputs   []float64
	honest   []int
}

// audit checks every decided instance across every honest daemon and
// returns the violations found (empty means the pass is correct).
//   - acs: every honest daemon decides the identical vector, of at least
//     n−f origins, and an honest origin's entry is that origin's input.
//   - aad: honest outputs lie within ε of each other and inside the range
//     of the honest inputs.
//
// decisions maps instance → vertex → decision; an honest vertex missing
// from an instance is a violation (it never decided within the grace).
func audit(spec auditSpec, decisions map[uint64]map[int]service.Decision) []string {
	var bad []string
	lo, hi := math.Inf(1), math.Inf(-1)
	honestSet := make(map[int]bool, len(spec.honest))
	for _, v := range spec.honest {
		lo, hi = math.Min(lo, spec.inputs[v]), math.Max(hi, spec.inputs[v])
		honestSet[v] = true
	}
	insts := make([]uint64, 0, len(decisions))
	for inst := range decisions {
		insts = append(insts, inst)
	}
	sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
	for _, inst := range insts {
		byVertex := decisions[inst]
		for _, v := range spec.honest {
			if _, ok := byVertex[v]; !ok {
				bad = append(bad, fmt.Sprintf("inst %d: honest vertex %d has no decision", inst, v))
			}
		}
		switch spec.protocol {
		case "acs":
			var ref map[int]float64
			refV := -1
			for _, v := range spec.honest {
				d, ok := byVertex[v]
				if !ok {
					continue
				}
				if len(d.Vector) < spec.n-spec.f {
					bad = append(bad, fmt.Sprintf("inst %d: vertex %d decided a subset of %d < n-f = %d", inst, v, len(d.Vector), spec.n-spec.f))
				}
				for origin, x := range d.Vector {
					if honestSet[origin] && x != spec.inputs[origin] {
						bad = append(bad, fmt.Sprintf("inst %d: vertex %d holds %v for honest origin %d whose input is %v", inst, v, x, origin, spec.inputs[origin]))
					}
				}
				if ref == nil {
					ref, refV = d.Vector, v
					continue
				}
				if !sameVector(ref, d.Vector) {
					bad = append(bad, fmt.Sprintf("inst %d: vertices %d and %d decided different vectors", inst, refV, v))
				}
			}
		case "aad":
			omin, omax := math.Inf(1), math.Inf(-1)
			for _, v := range spec.honest {
				d, ok := byVertex[v]
				if !ok {
					continue
				}
				omin, omax = math.Min(omin, d.Value), math.Max(omax, d.Value)
				if d.Value < lo || d.Value > hi {
					bad = append(bad, fmt.Sprintf("inst %d: vertex %d output %v outside the honest input range [%v, %v]", inst, v, d.Value, lo, hi))
				}
			}
			if omax-omin >= spec.eps {
				bad = append(bad, fmt.Sprintf("inst %d: honest outputs spread %v >= eps %v", inst, omax-omin, spec.eps))
			}
		default:
			bad = append(bad, fmt.Sprintf("inst %d: no audit rule for protocol %q", inst, spec.protocol))
		}
	}
	return bad
}

func sameVector(a, b map[int]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		if y, ok := b[k]; !ok || y != x {
			return false
		}
	}
	return true
}
