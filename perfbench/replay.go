package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"themis"
	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/schedulers"
	"themis/internal/sim"
	"themis/internal/workload"
)

// replay-contended shape: each run replays replayInputs paper-generator
// workloads (seeds derived from --seed) of replayApps apps at contention
// factor replayContention on the 256-GPU sim cluster. One run covers many
// inputs because a single input's replay time and outcomes vary by tens of
// percent from seed to seed; over two dozen inputs they are steady.
const (
	replayApps       = 100
	replayContention = 8
	replayInputs     = 24
)

// timedPolicy wraps the Themis policy and times every Allocate call — each is
// one auction round of the replay. It hides *schedulers.Themis from the
// report, so the arbiter statistics are read from inner directly.
type timedPolicy struct {
	inner   *schedulers.Themis
	rounds  []float64
	busy    time.Duration
	offered int
	granted int
	// overGrants counts rounds that granted more GPUs than were offered.
	overGrants int
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Allocate(now float64, free cluster.Alloc, view *sim.View) (map[workload.AppID]cluster.Alloc, error) {
	start := time.Now()
	out, err := p.inner.Allocate(now, free, view)
	d := time.Since(start)
	p.busy += d
	p.rounds = append(p.rounds, d.Seconds())
	g := 0
	for _, a := range out {
		g += a.Total()
	}
	p.offered += free.Total()
	p.granted += g
	if g > free.Total() {
		p.overGrants++
	}
	return out, err
}

// replayRun is one replay's measurements and outputs.
type replayRun struct {
	setup, wall time.Duration
	pol         *timedPolicy
	stats       core.ArbiterStats
	summary     themis.Summary
	digest      string
	solves      float64
	pairMoves   float64
	gos         goDelta
}

func replayInput(seed int64, i int) ([]*workload.App, error) {
	spec := themis.DefaultWorkloadSpec()
	spec.Seed = subSeed(seed, i)
	spec.NumApps = replayApps
	spec.ContentionFactor = replayContention
	return themis.GenerateWorkload(spec)
}

// replayOnce builds a simulation over freshly generated apps (a replay
// mutates them) and runs it to completion. Instrumented replays also read the
// solver counters and the Go runtime's accounting around the run.
func replayOnce(seed int64, i int, instrument bool) (*replayRun, error) {
	apps, err := replayInput(seed, i)
	if err != nil {
		return nil, fmt.Errorf("generating input %d: %w", i, err)
	}
	t0 := time.Now()
	inner, err := schedulers.NewThemis(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	pol := &timedPolicy{inner: inner}
	s, err := themis.NewSimulation(
		themis.WithCluster(themis.ClusterSim),
		themis.WithApps(apps...),
		themis.WithPolicyInstance(pol),
	)
	if err != nil {
		return nil, fmt.Errorf("building simulation %d: %w", i, err)
	}
	setup := time.Since(t0)

	var before counters
	var gs goStats
	if instrument {
		before, gs = scrape(), readGoStats()
	}
	t1 := time.Now()
	rep, err := s.Run(context.Background())
	wall := time.Since(t1)
	if err != nil {
		return nil, fmt.Errorf("replaying input %d: %w", i, err)
	}
	run := &replayRun{setup: setup, wall: wall, pol: pol, summary: rep.Summary}
	if instrument {
		run.gos.add(gs, readGoStats())
		after := scrape()
		run.solves = delta(before, after, "themis_solver_solves_total")
		run.pairMoves = delta(before, after, "themis_solver_pair_moves_total")
	}
	if arb := inner.Arbiter(); arb != nil {
		run.stats = arb.Stats
	}
	// Kept runs must not pin their workloads through the policy's agents.
	pol.inner = nil
	var b strings.Builder
	for _, a := range rep.Apps {
		fmt.Fprintf(&b, "%s %s %s %s %s\n", a.App, f64(a.FinishTime), f64(a.FinishTimeFairness), f64(a.BusyGPUTime), f64(a.HeldGPUTime))
	}
	run.digest = digest(b.String())
	return run, nil
}

func f64(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func runReplay(cfg config) (*result, error) {
	res := newResult()
	refs := make(map[int]string)
	checkRun := func(i int, r *replayRun) {
		res.attempted++ // the replay itself
		res.check(r.summary.AppsFinished == r.summary.AppsTotal,
			"input %d: %d of %d apps finished", i, r.summary.AppsFinished, r.summary.AppsTotal)
		res.check(r.pol.overGrants == 0, "input %d: %d rounds granted more GPUs than offered", i, r.pol.overGrants)
		if ref, ok := refs[i]; ok {
			res.check(r.digest == ref, "input %d: replay records digest %s differs from earlier replay %s", i, r.digest, ref)
		} else {
			refs[i] = r.digest
		}
	}

	// Warm-up: replay input 0 once, untimed; its records are the first
	// reference the timed replays must reproduce.
	warm, err := replayOnce(cfg.seed, 0, false)
	if err != nil {
		return nil, err
	}
	checkRun(0, warm)

	first := make([]*replayRun, replayInputs)
	walls := make([][]float64, replayInputs)
	var setups, rounds, plain []float64
	var lay []*replayRun // the instrumented replays
	stolen := 0
	start := time.Now()
	// Replay the inputs in turn until the run's time is up and every input
	// has a timed replay. A traced run alternates instrumented and plain
	// replays, swapping the two halves every cycle so each input gets both,
	// and stops only after whole pairs of cycles.
	for n := 0; ; n++ {
		i, cycle := n%replayInputs, n/replayInputs
		elapsed := time.Since(start).Seconds()
		done := elapsed >= cfg.seconds
		for _, w := range walls {
			done = done && len(w) > 0
		}
		if done && (!cfg.trace || i == 0 && cycle%2 == 0 && len(lay) > 0 && len(plain) > 0) {
			break
		}
		instrument := cfg.trace && (i+cycle)%2 == 0
		steal := startSteal()
		r, err := replayOnce(cfg.seed, i, instrument)
		if err != nil {
			return nil, err
		}
		checkRun(i, r)
		if first[i] == nil {
			first[i] = r
		}
		if !steal.quiet() && elapsed < overtime*cfg.seconds {
			stolen++
			continue
		}
		walls[i] = append(walls[i], r.wall.Seconds())
		setups = append(setups, r.setup.Seconds())
		rounds = append(rounds, r.pol.rounds...)
		if instrument {
			lay = append(lay, r)
		} else if cfg.trace {
			plain = append(plain, r.wall.Seconds())
		}
	}

	// Outcomes are medians over the inputs: one input's max ρ can be twice
	// another's, and the median of many inputs is steady from seed to seed.
	e := res.e2e
	e["setup_s"] = median(setups)
	var perInput, maxRho, jct, gpu, grantedFrac []float64
	for i, r := range first {
		perInput = append(perInput, median(walls[i]))
		maxRho = append(maxRho, r.summary.MaxFairness)
		jct = append(jct, r.summary.MeanCompletionTime)
		gpu = append(gpu, r.summary.GPUTime)
		grantedFrac = append(grantedFrac, ratio(float64(r.pol.granted), float64(r.pol.offered)))
	}
	e["replay_s"] = sum(perInput) / float64(replayInputs)
	e["round_p50_s"] = quantile(rounds, 0.5)
	e["round_p90_s"] = quantile(rounds, 0.9)
	e["max_rho"] = median(maxRho)
	e["jct_mean_min"] = median(jct)
	e["gpu_time_min"] = median(gpu)
	e["granted_frac"] = median(grantedFrac)
	res.printf("%d apps x %d inputs at contention %d on the sim cluster; %d timed replays, %d auction rounds; %d replays re-measured because the host stole CPU",
		replayApps, replayInputs, replayContention, len(setups), len(rounds), stolen)
	for i, r := range first {
		res.printf("input %d (seed %d): max_rho %.4f jct_mean %.4f min gpu_time %.1f gpu-min granted %.4f, %d rounds, records digest %s",
			i, subSeed(cfg.seed, i), r.summary.MaxFairness, r.summary.MeanCompletionTime, r.summary.GPUTime,
			grantedFrac[i], len(r.pol.rounds), r.digest)
	}

	if !cfg.trace {
		return res, nil
	}
	// Per-layer numbers, per replay, averaged over the instrumented cycles.
	var wall, busy, calls, probe, bid, solve, left, auctions, offers, winners, auctioned, leftover, solves, moves float64
	var traced []float64
	var gos goDelta
	for _, r := range lay {
		traced = append(traced, r.wall.Seconds())
		wall += r.wall.Seconds()
		busy += r.pol.busy.Seconds()
		calls += float64(len(r.pol.rounds))
		st := r.stats
		probe += st.ProbeTime.Seconds()
		bid += st.BidTime.Seconds()
		solve += st.SolveTime.Seconds()
		left += st.LeftoverTime.Seconds()
		auctions += float64(st.Auctions)
		offers += float64(st.OffersMade)
		winners += float64(st.AuctionWinners)
		auctioned += float64(st.GPUsAuctioned)
		leftover += float64(st.GPUsLeftOver)
		solves += r.solves
		moves += r.pairMoves
		gos.merge(r.gos)
	}
	m := float64(len(lay))
	l := zeroLayers()
	l["sim.self_s"] = ratio(wall-busy, m)
	l["sched.allocate_s"] = ratio(busy, m)
	l["sched.allocate_calls"] = ratio(calls, m)
	l["core.probe_s"] = ratio(probe, m)
	l["core.bid_s"] = ratio(bid, m)
	l["core.solve_s"] = ratio(solve, m)
	l["core.leftover_s"] = ratio(left, m)
	l["core.participants_per_round"] = ratio(offers, auctions)
	l["core.winners_per_round"] = ratio(winners, auctions)
	l["core.auction_gpu_frac"] = ratio(auctioned-leftover, auctioned)
	l["solver.solves_per_round"] = ratio(solves, auctions)
	l["solver.pair_moves_per_round"] = ratio(moves, auctions)
	gos.report(l, calls)
	// The replay's wall time is the simulator's own time plus the policy;
	// inside the policy, the arbiter's four phases. What they leave over is
	// the Themis policy's own bookkeeping around each auction.
	l["unaccounted_frac"] = ratio(busy-(probe+bid+solve+left), wall)
	l["trace_overhead_frac"] = overhead(traced, plain)
	res.layer = l
	return res, nil
}

// overhead compares the instrumented units of a traced run with the
// uninstrumented ones: mean instrumented time over mean plain time, minus 1.
func overhead(traced, plain []float64) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return ratio(sum(traced)/float64(len(traced)), sum(plain)/float64(len(plain))) - 1
}

// zeroLayers returns every per-layer metric at 0; each workload fills in the
// layers it exercises.
func zeroLayers() map[string]float64 {
	l := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		l[d.name] = 0
	}
	return l
}
