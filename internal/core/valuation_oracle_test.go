package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/workload"
)

// This file is the valuation oracle: bid tables and ρ estimates computed the
// way the code did before placement.Picker sorted each pool once — a fresh
// map-based pick per candidate and per job, and a job order that re-reads
// each job's work left inside the exchange sort. TestBatchedBidEquivalence
// compares two production paths with each other; this oracle compares both
// with code that shares none of the Picker.

// referencePick is placement's Pick as it was before the Picker rewrite,
// verbatim but for its two helpers' names. placement_test.go keeps the same
// oracle; test files cannot share code across packages.
func referencePick(topo *cluster.Topology, free cluster.Alloc, anchor cluster.Alloc, count int) cluster.Alloc {
	picked := cluster.NewAlloc()
	if count <= 0 {
		return picked
	}
	remaining := free.Clone()
	need := count

	take := func(m cluster.MachineID) {
		if need <= 0 {
			return
		}
		n := remaining[m]
		if n <= 0 {
			return
		}
		if n > need {
			n = need
		}
		picked[m] += n
		remaining[m] -= n
		need -= n
	}

	// Pass 1: machines the anchor already uses, largest anchor share first.
	for _, m := range refSortedMachineIDs(anchor) {
		take(m)
		if need == 0 {
			return picked
		}
	}

	// Pass 2: machines in racks the anchor already touches.
	anchorRacks := make(map[cluster.RackID]bool)
	for _, m := range anchor.Machines() {
		anchorRacks[topo.Rack(m)] = true
	}
	if len(anchorRacks) > 0 {
		for _, m := range refMachinesByFree(remaining) {
			if anchorRacks[topo.Rack(m)] {
				take(m)
				if need == 0 {
					return picked
				}
			}
		}
	}

	// Pass 3: pack into as few machines as possible, filling one fabric
	// domain before spilling into the next.
	anchorDomains := make(map[cluster.DomainID]bool)
	for _, m := range anchor.Machines() {
		anchorDomains[topo.Domain(m)] = true
	}
	rackFree := make(map[cluster.RackID]int)
	domainFree := make(map[cluster.DomainID]int)
	for m, n := range remaining {
		if n > 0 {
			rackFree[topo.Rack(m)] += n
			domainFree[topo.Domain(m)] += n
		}
	}
	domains := make([]cluster.DomainID, 0, len(domainFree))
	for d := range domainFree {
		domains = append(domains, d)
	}
	sort.Slice(domains, func(i, j int) bool {
		di, dj := domains[i], domains[j]
		if anchorDomains[di] != anchorDomains[dj] {
			return anchorDomains[di]
		}
		if domainFree[di] != domainFree[dj] {
			return domainFree[di] > domainFree[dj]
		}
		return di < dj
	})
	racks := make([]cluster.RackID, 0, len(rackFree))
	for r := range rackFree {
		racks = append(racks, r)
	}
	sort.Slice(racks, func(i, j int) bool {
		if rackFree[racks[i]] != rackFree[racks[j]] {
			return rackFree[racks[i]] > rackFree[racks[j]]
		}
		return racks[i] < racks[j]
	})
	for _, d := range domains {
		for _, r := range racks {
			for _, m := range refMachinesByFree(remaining) {
				if topo.Rack(m) != r || topo.Domain(m) != d {
					continue
				}
				take(m)
				if need == 0 {
					return picked
				}
			}
		}
	}
	return picked
}

// refSortedMachineIDs orders alloc's machines by count descending, then ID.
func refSortedMachineIDs(alloc cluster.Alloc) []cluster.MachineID {
	ids := alloc.Machines()
	sort.Slice(ids, func(i, j int) bool {
		if alloc[ids[i]] != alloc[ids[j]] {
			return alloc[ids[i]] > alloc[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

// refMachinesByFree orders the machines with free GPUs by free count
// descending, then ID.
func refMachinesByFree(free cluster.Alloc) []cluster.MachineID {
	ids := free.Machines()
	sort.Slice(ids, func(i, j int) bool {
		if free[ids[i]] != free[ids[j]] {
			return free[ids[i]] > free[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}

// oracleCoverage counts the paths the oracle runs, so the test can require
// that each was exercised.
type oracleCoverage struct {
	fallbacks, anchoredTakes, wholePool int
}

// refSplit is splitAcrossJobs before the Picker: jobs ordered by an exchange
// sort that calls WorkLeft inside every comparison, each job picked from a
// cloned remainder with its own map-based pick, the constrained re-pick run
// afresh on that remainder (placement's tests pin PickConstrained to its
// map-based original), and each share subtracted into a new map.
func refSplit(e *RhoEstimator, total cluster.Alloc, active []*workload.Job, cov *oracleCoverage) []cluster.Alloc {
	out := make([]cluster.Alloc, len(active))
	order := make([]int, len(active))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		for k := i + 1; k < len(order); k++ {
			if e.Tuner.WorkLeft(active[order[k]]) < e.Tuner.WorkLeft(active[order[i]]) {
				order[i], order[k] = order[k], order[i]
			}
		}
	}
	remaining := total.Clone()
	for _, idx := range order {
		j := active[idx]
		want := j.MaxParallelism
		if want <= 0 {
			want = j.GangSize
		}
		picked := referencePick(e.Topo, remaining, cluster.NewAlloc(), want)
		if c, ok := j.PlacementConstraint(e.Topo); ok && !c.IsZero() && !placement.Satisfies(e.Topo, picked, c) {
			cov.fallbacks++
			picked = placement.PickConstrained(e.Topo, remaining, cluster.NewAlloc(), want, c)
		}
		out[idx] = picked
		var err error
		if remaining, err = remaining.Sub(picked); err != nil {
			panic("refSplit: " + err.Error())
		}
	}
	return out
}

// refRho is RhoEstimator.Rho over refSplit.
func refRho(e *RhoEstimator, now float64, current, extra cluster.Alloc, cov *oracleCoverage) float64 {
	total := current.Add(extra)
	elapsed := now - e.App.SubmitTime
	if elapsed < 0 {
		elapsed = 0
	}
	active := e.App.ActiveJobs()
	var tsh float64
	switch {
	case len(active) == 0:
		tsh = elapsed
	case total.Total() == 0:
		tsh = Unbounded * (1 + elapsed)
	default:
		split := refSplit(e, total, active, cov)
		best := math.Inf(1)
		for idx, j := range active {
			alloc := split[idx]
			g := alloc.Total()
			c, ok := j.PlacementConstraint(e.Topo)
			if g == 0 || !ok || !placement.Satisfies(e.Topo, alloc, c) {
				continue
			}
			t := elapsed + e.Tuner.WorkLeft(j)/(float64(g)*e.App.Profile.SOf(e.Topo, alloc))
			if t < best {
				best = t
			}
		}
		tsh = best
		if math.IsInf(best, 1) {
			tsh = Unbounded
		}
	}
	return e.Errors.Perturb(tsh / e.TIdeal())
}

// refBidTable is PrepareBid before the Picker: each candidate is a fresh
// map-based pick from the whole offer, valued with refRho.
func refBidTable(ag *Agent, now float64, offer, current cluster.Alloc, cov *oracleCoverage) BidTable {
	table := BidTable{App: ag.App.ID, Entries: []BidEntry{{
		Alloc: cluster.NewAlloc(),
		Rho:   refRho(ag.Estimator, now, current, cluster.NewAlloc(), cov),
	}}}
	maxRows := ag.MaxBidRows
	if maxRows <= 0 {
		maxRows = DefaultMaxBidRows
	}
	var v BidValuator
	for _, size := range v.candidateSizes(offer.Total(), ag.UnmetParallelism(current), ag.GangSize()) {
		if len(table.Entries) >= maxRows {
			break
		}
		var candidate cluster.Alloc
		if ag.PlacementBlind {
			candidate = spreadCandidate(offer, size)
		} else {
			candidate = referencePick(ag.Estimator.Topo, offer, current, size)
			for m := range current {
				if candidate[m] > 0 {
					cov.anchoredTakes++
				}
			}
		}
		if size == offer.Total() {
			cov.wholePool++
		}
		table.Entries = append(table.Entries, BidEntry{
			Alloc: candidate,
			Rho:   refRho(ag.Estimator, now, current, candidate, cov),
		})
	}
	return table
}

// oracleTopo is a multi-domain topology: two named fabric domains of three
// racks of three machines, with 4-GPU P100, 2-GPU V100 and 1-GPU K80
// machines mixed so racks differ in free capacity.
func oracleTopo(t *testing.T) *cluster.Topology {
	t.Helper()
	kinds := []struct {
		gpus, slot int
		gpu        cluster.GPUType
	}{{4, 2, cluster.GPUTypeP100}, {2, 2, cluster.GPUTypeV100}, {1, 1, cluster.GPUTypeK80}}
	var machines []cluster.Machine
	for i := 0; i < 18; i++ {
		k := kinds[(i*i+i/4)%3]
		machines = append(machines, cluster.Machine{
			ID: cluster.MachineID(i), Rack: cluster.RackID(i / 3), Domain: cluster.DomainID(i / 9),
			NumGPUs: k.gpus, SlotSize: k.slot, GPU: k.gpu,
		})
	}
	topo, err := cluster.NewTopology(machines)
	if err != nil {
		t.Fatal(err)
	}
	for d, name := range []string{"pod-a", "pod-b"} {
		if err := topo.SetDomainName(cluster.DomainID(d), name); err != nil {
			t.Fatal(err)
		}
	}
	return topo
}

// oracleAgents draws n agents over topo: one to four jobs each with gangs
// of 1, 2 or 4, work values that tie often, some progress made, and a third
// of the jobs carrying a placement constraint (per-machine floor, spread
// cap, domain or flavor affinity, or a domain the topology lacks). Agent 0
// can use more than the whole cluster, so its largest candidate is the
// whole offer. About half the agents already hold GPUs, some on machines
// the offer still has free GPUs on. It returns the probed agents and the
// free vector left over.
func oracleAgents(rng *rand.Rand, topo *cluster.Topology, trial, n int) ([]probedAgent, cluster.Alloc) {
	cs := cluster.NewState(topo)
	profiles := []placement.Profile{placement.VGG16, placement.ResNet50, placement.GNMT}
	ps := make([]probedAgent, 0, n)
	for i := 0; i < n; i++ {
		id := workload.AppID(fmt.Sprintf("or-%d-%d", trial, i))
		jobs := make([]*workload.Job, 1+rng.Intn(4))
		for k := range jobs {
			gang := 1 << rng.Intn(3)
			j := workload.NewJob(id, k, float64(100*(1+rng.Intn(3))), gang)
			j.DoneWork = float64(25 * rng.Intn(2))
			j.MaxParallelism = gang * (1 + rng.Intn(4))
			if i == 0 {
				j.MaxParallelism = topo.TotalGPUs()
			}
			switch rng.Intn(15) {
			case 0:
				j.MinGPUsPerMachine = 2
			case 1:
				j.MaxMachines = 1 + rng.Intn(2)
			case 2:
				j.DomainAffinity = "pod-b"
			case 3:
				j.FlavorAffinity = string(cluster.GPUTypeP100)
			case 4:
				j.DomainAffinity = "pod-z"
			}
			jobs[k] = j
		}
		app := workload.NewApp(id, 0, profiles[rng.Intn(len(profiles))], jobs)
		ag := agentFor(topo, app)
		ag.PlacementBlind = rng.Intn(10) == 0
		cur := cluster.NewAlloc()
		if rng.Intn(2) == 0 {
			for tries := 0; tries < 3; tries++ {
				m := cluster.MachineID(rng.Intn(topo.NumMachines()))
				if free := cs.FreeOn(m); free > 0 {
					if err := cs.Grant(string(id), cluster.Alloc{m: 1 + rng.Intn(free)}); err != nil {
						panic(err)
					}
				}
			}
			cur = cs.Held(string(id))
		}
		ps = append(ps, probedAgent{state: AgentState{Agent: ag, Current: cur}})
	}
	return ps, cs.FreeVector()
}

// TestValuationMatchesReference pins valuation to the pre-Picker oracle on
// randomized agents over a multi-domain topology: the batched valuator's
// tables (over rounds that reuse its scratch) and standalone PrepareBid
// tables must deep-equal the oracle's, and ρ for arbitrary extra
// allocations and the per-job split must match bit for bit. The test fails
// unless anchored candidates, constrained re-picks and whole-offer
// candidates all occurred.
func TestValuationMatchesReference(t *testing.T) {
	topo := oracleTopo(t)
	rng := rand.New(rand.NewSource(29))
	var cov oracleCoverage
	var v BidValuator
	for trial := 0; trial < 40; trial++ {
		ps, offer := oracleAgents(rng, topo, trial, 8)
		now := float64(10 + rng.Intn(500))
		want := make([]BidTable, len(ps))
		for i, p := range ps {
			want[i] = refBidTable(p.state.Agent.(*Agent), now, offer, p.state.Current, &cov)
			if got := p.state.Agent.PrepareBid(now, offer, p.state.Current); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("trial %d agent %d: PrepareBid\n got %v\nwant %v", trial, i, got, want[i])
			}
		}
		for round := 0; round < 2; round++ {
			got := v.prepareBids(now, offer, ps)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("trial %d round %d agent %d: batched table\n got %v\nwant %v", trial, round, i, got[i], want[i])
				}
			}
		}
		for i, p := range ps {
			ag := p.state.Agent.(*Agent)
			for k := 0; k < 4; k++ {
				extra := referencePick(topo, offer, nil, 1+rng.Intn(offer.Total()))
				if k == 3 {
					extra = offer
				}
				got := ag.Estimator.Rho(now, p.state.Current, extra)
				if ref := refRho(ag.Estimator, now, p.state.Current, extra, &cov); math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("trial %d agent %d: Rho(extra %v) = %v, reference %v", trial, i, extra, got, ref)
				}
			}
			total := p.state.Current.Add(offer)
			ref := refSplit(ag.Estimator, total, ag.App.ActiveJobs(), &cov)
			got := ag.SplitForJobs(total)
			for idx, j := range ag.App.ActiveJobs() {
				if !got[j.ID].Equal(ref[idx]) {
					t.Fatalf("trial %d agent %d: job %s split %v, reference %v", trial, i, j.ID, got[j.ID], ref[idx])
				}
			}
		}
	}
	if cov.fallbacks == 0 || cov.anchoredTakes == 0 || cov.wholePool == 0 {
		t.Fatalf("oracle did not exercise every path: %+v", cov)
	}
	t.Logf("coverage: %+v", cov)
}
