package main

// The clean-batch workload: both connections POST /v1/clean with a
// seeded mix of small and large trajectory CSV bodies against a
// memory-only server. Every response must be byte-identical to the
// same cleaning run in this process at set-up.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"sidq/internal/core"
	"sidq/internal/obs"
	"sidq/internal/simulate"
	"sidq/internal/trajectory"
)

const (
	cleanRate      = 200  // open-loop requests per second over both connections
	cleanLargeFrac = 0.15 // share of large bodies in the mix
	cleanSmall     = 8    // distinct small bodies, each a feed's 4 trajectories
	cleanLarge     = 4    // distinct large bodies
	largeSources   = 40   // trajectories in a large body
	traceRequests  = 120  // requests replayed by the traced run
)

// cleanStages are the stages the planner can choose for trajectory
// data; each has a per-layer metric.
var cleanStages = []string{"deduplicate", "timestamp-repair", "outlier-removal", "kalman-smoothing", "interpolation-impute"}

// cleanBody is one request body with its expected response.
type cleanBody struct {
	body   []byte
	points int
	want   []byte // expected response body
	stages string // expected X-Sidq-Stages header
}

// cleanInProcess runs the server's /v1/clean path on body in this
// process: decode, plan and run up to three rounds with the skip-stage
// policy, encode.
func cleanInProcess(body []byte) ([]byte, []string, error) {
	trs, err := trajectory.ReadCSVColumns(bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	ds := &core.Dataset{Trajectories: trs, MaxSpeed: maxSpeed, ExpectedInterval: 1}
	cleaned, stages, _, err := core.PlanAndRunIterativeWith(context.Background(), &core.Runner{Policy: core.SkipStage}, ds, core.DefaultTargets(), 3)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := trajectory.WriteCSV(&buf, cleaned.Trajectories); err != nil {
		return nil, nil, err
	}
	names := make([]string, len(stages))
	for i, s := range stages {
		names[i] = s.Name()
	}
	return buf.Bytes(), names, nil
}

// makeCleanBodies generates the small and large bodies from the seed
// and their expected responses.
func makeCleanBodies(seed int64) ([]cleanBody, []cleanBody, error) {
	gen := func(n, sources int, base int64) ([]cleanBody, error) {
		var out []cleanBody
		for k := 0; k < n; k++ {
			body := simulate.NewReplay(simulate.ReplayOptions{Seed: base + int64(k), Sources: sources}).BatchCSV(0)
			want, stages, err := cleanInProcess(body)
			if err != nil {
				return nil, err
			}
			out = append(out, cleanBody{
				body: body, points: bytes.Count(body, []byte{'\n'}) - 1,
				want: want, stages: strings.Join(stages, ","),
			})
		}
		return out, nil
	}
	small, err := gen(cleanSmall, 0, seed*7919)
	if err != nil {
		return nil, nil, err
	}
	large, err := gen(cleanLarge, largeSources, seed*7919+1000)
	return small, large, err
}

// cleanMix draws n bodies from the pools.
func cleanMix(rng *rand.Rand, n int, small, large []cleanBody) []*cleanBody {
	out := make([]*cleanBody, n)
	for i := range out {
		if rng.Float64() < cleanLargeFrac {
			out[i] = &large[rng.Intn(len(large))]
		} else {
			out[i] = &small[rng.Intn(len(small))]
		}
	}
	return out
}

func cleanOp(base string, b *cleanBody) func(c conn) (int, error) {
	u := fmt.Sprintf("%s/v1/clean?maxspeed=%d", base, maxSpeed)
	return func(c conn) (int, error) {
		st, h, got, err := doRequest(c, http.MethodPost, u, b.body)
		if err != nil {
			return 0, err
		}
		if st != http.StatusOK {
			return 0, fmt.Errorf("status %d: %s", st, bytes.TrimSpace(got))
		}
		if !bytes.Equal(got, b.want) {
			return 0, fmt.Errorf("response (%d bytes) differs from the in-process cleaning (%d bytes)", len(got), len(b.want))
		}
		if s := h.Get("X-Sidq-Stages"); s != b.stages {
			return 0, fmt.Errorf("stages %q, in-process cleaning planned %q", s, b.stages)
		}
		return b.points, nil
	}
}

func runCleanBatch(e *env) error {
	small, large, err := makeCleanBodies(e.seed)
	if err != nil {
		return fmt.Errorf("set-up cleaning: %w", err)
	}
	srv, err := e.setup(func(int) []string { return nil })
	if err != nil {
		return err
	}
	defer srv.kill()
	rng := rand.New(rand.NewSource(e.seed))
	dues := uniform(int(cleanRate*e.openLoopSeconds()), cleanRate)
	mix := cleanMix(rng, len(dues), small, large)
	lanes := make([][]op, 2)
	stages := 0
	for i, due := range dues {
		lanes[i%2] = append(lanes[i%2], op{due: due, route: routeClean, run: cleanOp(srv.base, mix[i])})
		if mix[i].stages != "" {
			stages += strings.Count(mix[i].stages, ",") + 1
		}
	}
	r, err := e.measureOpenLoop(srv, lanes)
	if err != nil {
		return err
	}
	if err := e.reportOpenLoop(r, routeClean); err != nil {
		return err
	}
	e.layers.add("core.stages_per_request", "count", ratio(float64(stages), float64(len(mix))), len(mix))
	scraped := map[string]float64{}
	for _, st := range cleanStages {
		mean, n := histMeanDelta(r.before, r.after, `sidq_runner_stage_latency_ns{stage="`+st+`"}`)
		if n > 0 {
			scraped[st] = mean
		}
	}

	closedMix := cleanMix(rng, 4096, small, large)
	ps := runClosedLoop(time.Duration(e.closedLoopSeconds()*float64(time.Second)), []conn{e.a, e.b}, func(lane, k int) op {
		return op{route: routeClean, run: cleanOp(srv.base, closedMix[(2*k+lane)%len(closedMix)])}
	})
	e.reportClosedLoop(ps, routeClean)
	srv.stop()
	if !e.trace {
		return nil
	}
	return e.traceClean(mix, scraped)
}

// traceClean replays the first traceRequests bodies of the open-loop
// mix through trajectory, core and the planner's runner in this
// process, with a span around each call.
func (e *env) traceClean(mix []*cleanBody, scraped map[string]float64) error {
	if len(mix) > traceRequests {
		mix = mix[:traceRequests]
	}
	stagePoints := map[string]int{}
	var points, outPoints int
	replay := func(t *tracer) error {
		points, outPoints = 0, 0
		for i, b := range mix {
			req := fmt.Sprintf("clean-%d", i)
			root := t.begin("bench.request", 0, req)
			sp := t.begin("trajectory.read_csv", root, req)
			trs, err := trajectory.ReadCSVColumns(bytes.NewReader(b.body))
			t.end(sp, b.points)
			if err != nil {
				return err
			}
			ds := &core.Dataset{Trajectories: trs, MaxSpeed: maxSpeed, ExpectedInterval: 1}
			sp = t.begin("core.assess", root, req)
			ds.Assess()
			t.end(sp, b.points)

			plan := t.begin("core.plan_run", root, req)
			runner := &core.Runner{Policy: core.SkipStage}
			if t.on {
				runner.Trace = obs.FuncSink(func(ev obs.TraceEvent) {
					if ev.Kind == obs.KindStage {
						t.addDone("core.stage."+ev.Name, plan, req, ev.Dur, time.Now(), b.points)
						stagePoints[ev.Name] += b.points
					}
				})
			}
			cleaned, _, _, err := core.PlanAndRunIterativeWith(context.Background(), runner, ds, core.DefaultTargets(), 3)
			t.end(plan, b.points)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			sp = t.begin("trajectory.write_csv", root, req)
			err = trajectory.WriteCSV(&buf, cleaned.Trajectories)
			n := 0
			for _, tr := range cleaned.Trajectories {
				n += len(tr.Points)
			}
			t.end(sp, n)
			if err != nil {
				return err
			}
			if !bytes.Equal(buf.Bytes(), b.want) {
				return fmt.Errorf("traced cleaning of request %d differs from set-up", i)
			}
			points += b.points
			outPoints += n
			t.end(root, b.points)
		}
		return nil
	}
	t, err := e.timeTraced(replay)
	if err != nil {
		return err
	}
	tot := totalsByName(t.spans)
	us := func(name string, per int) float64 { return ratio(float64(tot[name].selfNs)/1e3, float64(per)) }
	e.layers.add("trajectory.read_csv_us_per_point", "us", us("trajectory.read_csv", points), points)
	e.layers.add("trajectory.write_csv_us_per_point", "us", us("trajectory.write_csv", outPoints), outPoints)
	e.layers.add("core.assess_us_per_point", "us", us("core.assess", points), points)
	e.layers.add("core.plan_self_us_per_point", "us", us("core.plan_run", points), points)
	for _, st := range cleanStages {
		name := "core.stage." + st
		e.layers.add(name+"_us_per_point", "us", us(name, stagePoints[st]), stagePoints[st])
		if tot[name].spans > 0 && scraped[st] > 0 {
			tracedMean := float64(tot[name].selfNs) / float64(tot[name].spans)
			e.crossChecks = append(e.crossChecks, fmt.Sprintf("%s: traced %.3f ms/run, scraped server %.3f ms/run", name, tracedMean/1e6, scraped[st]/1e6))
		}
	}
	return e.finishTrace(t)
}
