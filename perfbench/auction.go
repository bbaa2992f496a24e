package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"themis"
	"themis/internal/cluster"
	"themis/internal/core"
	"themis/internal/hyperparam"
	"themis/internal/rpc"
	"themis/internal/workload"
)

// The auction workloads reclaim and re-auction the whole cluster every round:
// each round's scheduling time is one lease plus a minute after the last.
const (
	leaseMin      = 20
	auctionApps   = 1000 // market-inproc and sharded-inproc population
	serveApps     = 200  // serve-http population, one AgentServer each
	auctionShards = 8
	// auctionPopulations is how many populations one run covers: the
	// outcome metrics of a single population vary by over 10% from seed to
	// seed, their median over six much less.
	auctionPopulations = 6
)

// deployment is one freshly built arbiter with the population registered and
// ready for its first round.
type deployment interface {
	// round runs one auction round at scheduling time now, as its caller
	// sees it.
	round(now float64) (rpc.AuctionResponse, error)
	// held returns app's allocation across the deployment, in global IDs.
	held(app workload.AppID) cluster.Alloc
	validate() error
	// account adds the RPCs the round attempted and the ones that failed
	// (serve-http only; in-process rounds make none).
	account(res *result, resp rpc.AuctionResponse)
	// observe adds the layer numbers of the round just run and accounted,
	// which took wall as its caller saw it, to lt.
	observe(lt layerSums, wall time.Duration)
	close()
}

// layerSums accumulates per-layer numbers over the observed rounds.
type layerSums map[string]float64

// auctionWorkload describes one auction-round workload.
type auctionWorkload struct {
	apps int
	// rounds is the length of one pass: a fresh deployment runs this many
	// rounds, and every pass must reproduce the first one's decisions.
	rounds int
	build  func(topo *cluster.Topology, apps []*workload.App) (deployment, error)
	// describe is the report's one-line shape description.
	describe string
}

func runMarket(cfg config) (*result, error) {
	return runAuctions(cfg, auctionWorkload{
		apps:     auctionApps,
		rounds:   3,
		build:    buildMarket,
		describe: fmt.Sprintf("%d in-process core.Agents on one ArbiterServer over the sim cluster", auctionApps),
	})
}

func runSharded(cfg config) (*result, error) {
	return runAuctions(cfg, auctionWorkload{
		apps:     auctionApps,
		rounds:   5,
		build:    buildSharded,
		describe: fmt.Sprintf("%d in-process core.Agents on a %d-shard ShardedArbiterServer over the sim cluster", auctionApps, auctionShards),
	})
}

// population is one generated population of an auction run, with
// benchmark-side ρ estimators for its apps: the outcome metrics of the
// auction workloads are the fairness and completion times the apps' own
// estimators predict for the allocations the population's first pass hands
// out.
type population struct {
	apps []*workload.App
	// base is the first round's scheduling time: one minute after the last
	// arrival, so every app is active.
	base   float64
	ests   map[workload.AppID]*core.RhoEstimator
	demand map[workload.AppID]int
	// ref is the decisions digest of the population's first pass.
	ref string

	holders                int
	maxRho, jctSum, gpuSum float64
	offered, granted       float64
}

// newPopulation generates the k'th population of a run with the paper
// generator.
func newPopulation(topo *cluster.Topology, seed int64, k, n int) (*population, error) {
	spec := themis.DefaultWorkloadSpec()
	spec.Seed = subSeed(seed, k)
	spec.NumApps = n
	apps, err := themis.GenerateWorkload(spec)
	if err != nil {
		return nil, err
	}
	p := &population{
		apps:   apps,
		ests:   make(map[workload.AppID]*core.RhoEstimator),
		demand: make(map[workload.AppID]int),
	}
	for _, a := range apps {
		p.base = math.Max(p.base, math.Ceil(a.SubmitTime)+1)
		p.ests[a.ID] = core.NewRhoEstimator(topo, a, hyperparam.ForApp(a))
		p.demand[a.ID] = core.NewAgent(topo, a, hyperparam.ForApp(a), nil).UnmetParallelism(cluster.NewAlloc())
	}
	return p, nil
}

// outcome folds one round's allocation into the outcome estimates: for every
// app holding GPUs, its estimated ρ, its estimated completion time T_SH and
// the GPU-minutes its allocation needs to get there.
func (p *population) outcome(now float64, d deployment, offered, granted int) {
	p.offered += float64(offered)
	p.granted += float64(granted)
	for _, a := range p.apps {
		alloc := d.held(a.ID)
		if alloc.Total() == 0 {
			continue
		}
		est := p.ests[a.ID]
		tsh := est.TShared(now, alloc)
		p.holders++
		p.maxRho = math.Max(p.maxRho, tsh/est.TIdeal())
		p.jctSum += tsh
		p.gpuSum += float64(alloc.Total()) * (tsh - math.Max(0, now-a.SubmitTime))
	}
}

// renderDecisions is the canonical text of one round's decisions: apps in
// order, each with its granted GPUs per machine.
func renderDecisions(resp rpc.AuctionResponse) string {
	ids := make([]string, 0, len(resp.Decisions))
	for id := range resp.Decisions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	fmt.Fprintf(&b, "offered=%d reconciled=%d;", resp.Offered, resp.Reconciled)
	for _, id := range ids {
		b.WriteString(id)
		b.WriteByte('=')
		for _, e := range resp.Decisions[id] {
			fmt.Fprintf(&b, "%d:%d,", e.Machine, e.GPUs)
		}
		b.WriteByte(';')
	}
	return b.String()
}

// runAuctions drives an auction workload over auctionPopulations generated
// populations. Each pass builds a fresh deployment for one population and
// runs the round schedule on it; set-up is timed per pass. Pass 0, on
// population 0, is the warm-up; timed passes then cycle through the
// populations until the run's time is up and each has had one. A
// population's first pass gives its outcome metrics and the decisions digest
// every later pass over it must reproduce.
func runAuctions(cfg config, w auctionWorkload) (*result, error) {
	res := newResult()
	topo := cluster.SimulationCluster()
	pops := make([]*population, auctionPopulations)
	for k := range pops {
		p, err := newPopulation(topo, cfg.seed, k, w.apps)
		if err != nil {
			return nil, err
		}
		pops[k] = p
	}

	var setups, rounds, passes, traced, plain []float64
	lt := layerSums{}
	var gos goDelta
	var observedRounds float64
	var measureStart time.Time
	stolen := 0
	for pass := 0; ; pass++ {
		timed := pass > 0
		k, cycle := 0, 0
		if timed {
			k, cycle = (pass-1)%len(pops), (pass-1)/len(pops)
		}
		// Stop once every population has had its first pass and the run's
		// time is up. A traced run alternates instrumented and plain passes,
		// swapping the two halves every cycle so each population gets both,
		// and stops only after whole pairs of cycles.
		elapsed := time.Since(measureStart).Seconds()
		done := timed && cycle > 0 && elapsed >= cfg.seconds && len(passes) > 0
		if done && (!cfg.trace || k == 0 && cycle%2 == 0 && len(traced) > 0 && len(plain) > 0) {
			break
		}
		instrument := cfg.trace && timed && (k+cycle)%2 == 0
		pop := pops[k]
		first := pop.ref == ""
		// The pass's layer numbers count only if the pass does.
		plt := layerSums{}
		var pgos goDelta
		var pobserved float64

		steal := startSteal()
		t0 := time.Now()
		d, err := w.build(topo, pop.apps)
		if err != nil {
			return nil, fmt.Errorf("pass %d set-up: %w", pass, err)
		}
		setup := time.Since(t0)

		var before counters
		if instrument {
			before = scrape()
		}
		var decisions []string
		var roundWalls []float64
		for r := 0; r < w.rounds; r++ {
			now := pop.base + float64(r)*(leaseMin+1)
			var gs goStats
			if instrument {
				gs = readGoStats()
			}
			rs := time.Now()
			resp, err := d.round(now)
			wall := time.Since(rs)
			res.attempted++
			if err != nil {
				res.failed++
				res.printf("pass %d round %d failed: %v", pass, r, err)
				decisions = append(decisions, "error")
				continue
			}
			d.account(res, resp)
			if instrument {
				pgos.add(gs, readGoStats())
				d.observe(plt, wall)
				pobserved++
			}
			g := 0
			for _, wa := range resp.Decisions {
				for _, e := range wa {
					g += e.GPUs
				}
			}
			res.check(g <= resp.Offered, "pass %d round %d: granted %d GPUs of %d offered", pass, r, g, resp.Offered)
			verr := d.validate()
			res.check(verr == nil, "pass %d round %d: state invalid: %v", pass, r, verr)
			over := 0
			for _, a := range pop.apps {
				if d.held(a.ID).Total() > pop.demand[a.ID] {
					over++
				}
			}
			res.check(over == 0, "pass %d round %d: %d apps hold more GPUs than they demand", pass, r, over)
			decisions = append(decisions, renderDecisions(resp))
			if first {
				pop.outcome(now, d, resp.Offered, g)
			}
			roundWalls = append(roundWalls, wall.Seconds())
		}
		if instrument {
			after := scrape()
			plt["solves"] += delta(before, after, "themis_solver_solves_total")
			plt["moves"] += delta(before, after, "themis_solver_pair_moves_total")
			plt["client_errors"] += delta(before, after, "themis_rpc_client_errors_total")
		}
		d.close()

		dg := digest(decisions...)
		if first {
			pop.ref = dg
		} else {
			res.check(dg == pop.ref, "pass %d decisions digest %s differs from population %d's first pass %s", pass, dg, k, pop.ref)
		}
		if !timed {
			measureStart = time.Now()
			continue
		}
		if !steal.quiet() && elapsed < overtime*cfg.seconds {
			stolen++
			continue
		}
		setups = append(setups, setup.Seconds())
		rounds = append(rounds, roundWalls...)
		passes = append(passes, sum(roundWalls))
		if instrument {
			traced = append(traced, sum(roundWalls))
			for key, v := range plt {
				lt[key] += v
			}
			gos.merge(pgos)
			observedRounds += pobserved
		} else if cfg.trace {
			plain = append(plain, sum(roundWalls))
		}
	}

	var maxRho, jct, gpu, granted []float64
	for _, p := range pops {
		maxRho = append(maxRho, p.maxRho)
		jct = append(jct, ratio(p.jctSum, float64(p.holders)))
		gpu = append(gpu, p.gpuSum/float64(w.rounds))
		granted = append(granted, ratio(p.granted, p.offered))
	}
	e := res.e2e
	e["setup_s"] = median(setups)
	e["replay_s"] = median(passes)
	e["round_p50_s"] = quantile(rounds, 0.5)
	e["round_p90_s"] = quantile(rounds, 0.9)
	e["max_rho"] = median(maxRho)
	e["jct_mean_min"] = median(jct)
	e["gpu_time_min"] = median(gpu)
	e["granted_frac"] = median(granted)
	res.printf("%s; %d populations, %d rounds per pass, %d timed passes, %d timed rounds; %d passes re-measured because the host stole CPU",
		w.describe, len(pops), w.rounds, len(passes), len(rounds), stolen)
	for k, p := range pops {
		res.printf("population %d (seed %d, rounds from t=%.0f min): max_rho %.4f jct_mean %.2f min gpu_time %.1f gpu-min granted %.4f, decisions digest %s",
			k, subSeed(cfg.seed, k), p.base, maxRho[k], jct[k], gpu[k], granted[k], p.ref)
	}

	if cfg.trace {
		res.layer = auctionLayers(lt, observedRounds, gos, traced, plain)
		if u := res.layer["unaccounted_frac"]; math.Abs(u) > unaccountedTolerance {
			res.printf("WARNING: unaccounted_frac %.4f outside the tolerance %.2f", u, unaccountedTolerance)
		}
	}
	return res, nil
}

// unaccountedTolerance is how much of the caller-observed wall time the
// layer numbers may leave unexplained before the report flags it.
const unaccountedTolerance = 0.10

// auctionLayers turns the per-round sums into the per-layer metrics: times and
// counts per round, plus the phase reconciliation against the rounds' wall
// time.
func auctionLayers(lt layerSums, n float64, gos goDelta, traced, plain []float64) map[string]float64 {
	l := zeroLayers()
	per := func(k string) float64 { return ratio(lt[k], n) }
	for _, k := range []string{
		"core.probe_s", "core.bid_s", "core.solve_s", "core.leftover_s",
		"core.participants_per_round", "core.winners_per_round",
		"agent.rho_s", "agent.bid_s", "agent.alloc_s",
		"agent.rho_calls", "agent.bid_calls", "agent.alloc_calls",
		"rpc.deliver_s", "rpc.reclaim_s", "rpc.grant_s", "rpc.conns_per_round",
		"shard.critical_s", "shard.cpu_sum_s", "shard.fanout_s", "shard.reconcile_s",
		"shard.reconcile_gpus_per_round", "shard.imbalance",
	} {
		l[k] = per(k)
	}
	l["core.auction_gpu_frac"] = ratio(lt["auctioned_gpus"], lt["offered_gpus"])
	l["solver.solves_per_round"] = per("solves")
	l["solver.pair_moves_per_round"] = per("moves")
	if lt["agent.rho_calls"] > 0 {
		l["rpc.probe_wire_s"] = l["core.probe_s"] - l["agent.rho_s"]
		l["rpc.bid_wire_s"] = l["core.bid_s"] - l["agent.bid_s"]
		l["rpc.calls_per_conn"] = ratio(lt["agent.rho_calls"]+lt["agent.bid_calls"]+lt["agent.alloc_calls"], lt["rpc.conns_per_round"])
	}
	l["rpc.client_errors"] = lt["client_errors"]
	gos.report(l, n)
	l["unaccounted_frac"] = ratio(lt["wall"]-lt["covered"], lt["wall"])
	l["trace_overhead_frac"] = overhead(traced, plain)
	return l
}

// singleDeployment is one unsharded ArbiterServer with in-process bidders.
type singleDeployment struct {
	srv *rpc.ArbiterServer
}

func newArbiterServer(topo *cluster.Topology) (*rpc.ArbiterServer, error) {
	arb, err := core.NewArbiter(topo, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return rpc.NewArbiterServer(arb), nil
}

func buildMarket(topo *cluster.Topology, apps []*workload.App) (deployment, error) {
	srv, err := newArbiterServer(topo)
	if err != nil {
		return nil, err
	}
	for _, a := range apps {
		srv.RegisterBidder(core.NewAgent(topo, a, hyperparam.ForApp(a), nil))
	}
	return &singleDeployment{srv: srv}, nil
}

func (d *singleDeployment) round(now float64) (rpc.AuctionResponse, error) {
	return d.srv.RunAuction(now)
}
func (d *singleDeployment) held(app workload.AppID) cluster.Alloc { return d.srv.HeldBy(app) }
func (d *singleDeployment) validate() error                       { return d.srv.ValidateState() }
func (d *singleDeployment) account(*result, rpc.AuctionResponse)  {}
func (d *singleDeployment) close()                                {}

func (d *singleDeployment) observe(lt layerSums, wall time.Duration) {
	observeServer(lt, d.srv, wall)
}

// observeServer reads one unsharded round: the arbiter's phase breakdown and
// the server's trace of the round, whose total the caller's wall time exceeds
// by the delivery (and, over HTTP, the trigger request).
func observeServer(lt layerSums, srv *rpc.ArbiterServer, wall time.Duration) {
	total, spans := addServerRound(lt, srv)
	deliver := wall.Seconds() - total
	lt["rpc.deliver_s"] += deliver
	lt["wall"] += wall.Seconds()
	lt["covered"] += spans + deliver
}

// addServerRound adds the last round of one ArbiterServer to lt — the
// arbiter's phases from LastRound, the reclaim and grant spans from the round
// trace — and returns the trace's total and the sum of its spans, in seconds.
func addServerRound(lt layerSums, srv *rpc.ArbiterServer) (total, spans float64) {
	ph := srv.Arbiter().LastRound()
	lt["core.probe_s"] += ph.Probe.Seconds()
	lt["core.bid_s"] += ph.Bid.Seconds()
	lt["core.solve_s"] += ph.Solve.Seconds()
	lt["core.leftover_s"] += ph.Leftover.Seconds()
	lt["core.participants_per_round"] += float64(ph.Participants)
	lt["core.winners_per_round"] += float64(ph.Winners)
	lt["offered_gpus"] += float64(ph.OfferedGPUs)
	lt["auctioned_gpus"] += float64(ph.OfferedGPUs - ph.LeftoverGPUs)
	rds := srv.RoundTrace().Snapshot()
	if len(rds) == 0 {
		return 0, 0
	}
	rd := rds[len(rds)-1]
	for _, sp := range rd.Spans() {
		spans += sp.Dur.Seconds()
		switch sp.Name {
		case "reclaim":
			lt["rpc.reclaim_s"] += sp.Dur.Seconds()
		case "grant":
			lt["rpc.grant_s"] += sp.Dur.Seconds()
		}
	}
	return rd.Total.Seconds(), spans
}

// shardedDeployment is a ShardedArbiterServer with in-process bidders.
type shardedDeployment struct {
	srv *rpc.ShardedArbiterServer
	// recGPUs and recSpent are the reconciliation counters as last observed;
	// every round of an instrumented pass is observed.
	recGPUs  int
	recSpent time.Duration
}

func buildSharded(topo *cluster.Topology, apps []*workload.App) (deployment, error) {
	srv, err := rpc.NewShardedArbiterServer(topo, core.DefaultConfig(), auctionShards)
	if err != nil {
		return nil, err
	}
	for _, a := range apps {
		srv.RegisterBidder(core.NewAgent(topo, a, hyperparam.ForApp(a), nil))
	}
	return &shardedDeployment{srv: srv}, nil
}

func (d *shardedDeployment) round(now float64) (rpc.AuctionResponse, error) {
	return d.srv.RunAuction(now)
}
func (d *shardedDeployment) held(app workload.AppID) cluster.Alloc { return d.srv.HeldGlobal(app) }
func (d *shardedDeployment) validate() error                       { return d.srv.ValidateState() }
func (d *shardedDeployment) account(*result, rpc.AuctionResponse)  {}
func (d *shardedDeployment) close()                                {}

// observe reads one sharded round. The shards run concurrently: the slowest
// shard's round is the critical path, the sum over shards the CPU spent, and
// the fan-out span the wall time from starting the first shard to the last
// one finishing. The core phases are summed over shards.
func (d *shardedDeployment) observe(lt layerSums, wall time.Duration) {
	var critical, cpuSum, partMax, partSum float64
	n := d.srv.NumShards()
	for i := 0; i < n; i++ {
		sh := d.srv.Shard(i)
		total, _ := addServerRound(lt, sh)
		critical = math.Max(critical, total)
		cpuSum += total
		part := float64(sh.Arbiter().LastRound().Participants)
		partMax = math.Max(partMax, part)
		partSum += part
	}
	lt["shard.critical_s"] += critical
	lt["shard.cpu_sum_s"] += cpuSum
	lt["shard.imbalance"] += ratio(partMax, partSum/float64(n))
	_, gpus, spent := d.srv.ReconcileStats()
	reconcile := (spent - d.recSpent).Seconds()
	lt["shard.reconcile_s"] += reconcile
	lt["shard.reconcile_gpus_per_round"] += float64(gpus - d.recGPUs)
	d.recGPUs, d.recSpent = gpus, spent
	// The deployment's own trace splits the round into the concurrent
	// per-shard phase, reconciliation and delivery.
	var fanout, deliver float64
	if rds := d.srv.RoundTrace().Snapshot(); len(rds) > 0 {
		for _, sp := range rds[len(rds)-1].Spans() {
			switch sp.Name {
			case "shards":
				fanout = sp.Dur.Seconds()
			case "deliver":
				deliver = sp.Dur.Seconds()
			}
		}
	}
	lt["shard.fanout_s"] += fanout
	lt["rpc.deliver_s"] += deliver
	lt["wall"] += wall.Seconds()
	lt["covered"] += fanout + reconcile + deliver
}
