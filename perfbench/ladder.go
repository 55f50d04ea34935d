package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/seedmix"
)

// ladderRates are the offered rates the calibration mode steps through.
var ladderRates = []float64{10, 20, 40, 60, 80, 100}

// runLadder steps the svc-acs-open offered rate through ladderRates on one
// fleet, a --seconds window each, and reports latency_p90_ms and
// service.active_max per rate: latency bends where the fleet starts to
// queue, and a growing in-flight count marks saturation.
func runLadder(ctx context.Context, seed int64, seconds int) (outcome, error) {
	sc := svcScenario("acs", seed)
	fl, st, err := setupFleet(ctx, sc, []string{"acs"}, false, "acs")
	if err != nil {
		return outcome{}, err
	}
	defer fl.close()
	res := result{Correct: true, Metrics: map[string]metric{"setup_s": {st.total.Seconds(), "s"}}}
	var rep report
	rep.Env = stamp(seed, true, 0, 0)
	rep.Samples = map[string]int{}
	rep.Detail = map[string]float64{}
	if _, err := runPass(ctx, fl, acsOpen, "acs", seedmix.Mix(seed, 10), warmup, false); err != nil {
		return outcome{}, err
	}
	for i, rate := range ladderRates {
		w := acsOpen
		w.rate = rate
		p, err := runPass(ctx, fl, w, "acs", seedmix.Mix(seed, 20, int64(i)), time.Duration(seconds)*time.Second, true)
		if err != nil {
			return outcome{}, err
		}
		rep.Violations = append(rep.Violations, p.violations...)
		res.Attempted += int64(len(p.reqs))
		res.Failed += int64(len(p.reqs) - len(p.decided()))
		m, samples, _ := svcEndToEnd(nil, p)
		key := fmt.Sprintf("rate%g", rate)
		res.Metrics[key+".latency_p50_ms"] = m["latency_p50_ms"]
		res.Metrics[key+".latency_p90_ms"] = m["latency_p90_ms"]
		res.Metrics[key+".decisions_per_s"] = m["decisions_per_s"]
		res.Metrics[key+".cpu_ms_per_decision"] = m["cpu_ms_per_decision"]
		res.Metrics[key+".service.active_max"] = metric{float64(p.activeMax), "count"}
		rep.Samples[key+".latency"] = samples["latency"]
		fmt.Printf("ladder rate=%g/s decisions/s=%.2f p50=%.1fms p90=%.1fms active_max=%d lag_max=%.1fms cpu/dec=%.2fms\n",
			rate, m["decisions_per_s"].Value, m["latency_p50_ms"].Value, m["latency_p90_ms"].Value, p.activeMax, ms(p.lagMax), m["cpu_ms_per_decision"].Value)
	}
	return outcome{res: res, rep: rep}, nil
}
