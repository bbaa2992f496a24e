package core

import (
	"math"
	"math/rand"
	"testing"

	"themis/internal/cluster"
	"themis/internal/placement"
	"themis/internal/workload"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Config{
		{FairnessKnob: -0.1, LeaseDuration: 20},
		{FairnessKnob: 1.1, LeaseDuration: 20},
		{FairnessKnob: 0.5, LeaseDuration: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	if _, err := NewArbiter(nil, Config{FairnessKnob: 2, LeaseDuration: 1}); err == nil {
		t.Error("NewArbiter should reject invalid config")
	}
}

// buildAgents sets up n apps: the first `starved` of them hold nothing (so
// their ρ is unbounded), the rest hold 4 GPUs each on distinct machines.
func buildAgents(t *testing.T, topo *cluster.Topology, n, starved int) ([]AgentState, *cluster.State) {
	t.Helper()
	cs := cluster.NewState(topo)
	states := make([]AgentState, 0, n)
	for i := 0; i < n; i++ {
		app := testApp(workload.AppID(appName(i)), 0, placement.VGG16, 2, 400, 4)
		ag := agentFor(topo, app)
		cur := cluster.NewAlloc()
		if i >= starved {
			cur = cluster.Alloc{cluster.MachineID(i): 4}
			if err := cs.Grant(string(app.ID), cur); err != nil {
				t.Fatal(err)
			}
		}
		states = append(states, AgentState{Agent: ag, Current: cur})
	}
	return states, cs
}

func appName(i int) string { return string(rune('a'+i)) + "-app" }

func TestArbiterOffersToWorstApps(t *testing.T) {
	topo := testTopo(t, 8, 4, 4)
	arb, err := NewArbiter(topo, Config{FairnessKnob: 0.5, LeaseDuration: 20})
	if err != nil {
		t.Fatal(err)
	}
	// 4 apps, first 2 starved; machines 6,7 free (8 GPUs).
	agents, cs := buildAgents(t, topo, 4, 2)
	free := cs.FreeVector()
	if free.Total() != 24 {
		t.Fatalf("free = %d, want 24", free.Total())
	}
	allocs, err := arb.OfferResources(10, free, agents)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) == 0 {
		t.Fatal("no allocations produced")
	}
	got := make(map[workload.AppID]int)
	total := 0
	for _, al := range allocs {
		got[al.App] += al.Alloc.Total()
		total += al.Alloc.Total()
		// Decisions must fit within the free pool.
		for m, n := range al.Alloc {
			if n > free[m] {
				t.Errorf("allocation on machine %d exceeds free: %d > %d", m, n, free[m])
			}
		}
	}
	if total > free.Total() {
		t.Errorf("allocated %d GPUs, only %d free", total, free.Total())
	}
	// The starved apps (worst ρ) must be the auction participants and win.
	starvedGot := got[agents[0].Agent.ID()] + got[agents[1].Agent.ID()]
	if starvedGot == 0 {
		t.Errorf("starved apps won nothing: %v", got)
	}
	if arb.Stats.Auctions != 1 || arb.Stats.OffersMade != 2 {
		t.Errorf("stats = %+v, want 1 auction with 2 offers", arb.Stats)
	}
}

func TestArbiterFairnessKnobControlsVisibility(t *testing.T) {
	topo := testTopo(t, 12, 4, 4)
	agents, cs := buildAgents(t, topo, 10, 5)
	free := cs.FreeVector()

	// f = 0.9: only 1 app (the worst) sees the offer.
	arbHigh, _ := NewArbiter(topo, Config{FairnessKnob: 0.9, LeaseDuration: 20})
	if _, err := arbHigh.OfferResources(0, free, agents); err != nil {
		t.Fatal(err)
	}
	if arbHigh.Stats.OffersMade != 1 {
		t.Errorf("f=0.9 made %d offers, want 1", arbHigh.Stats.OffersMade)
	}
	// f = 0: every app sees the offer.
	arbLow, _ := NewArbiter(topo, Config{FairnessKnob: 0, LeaseDuration: 20})
	if _, err := arbLow.OfferResources(0, free, agents); err != nil {
		t.Fatal(err)
	}
	if arbLow.Stats.OffersMade != 10 {
		t.Errorf("f=0 made %d offers, want 10", arbLow.Stats.OffersMade)
	}
}

func TestArbiterWorkConserving(t *testing.T) {
	topo := testTopo(t, 6, 4, 3)
	arb, _ := NewArbiter(topo, DefaultConfig())
	// 3 apps, 1 starved; plenty of free GPUs. With f=0.8 only the starved
	// app participates, but leftovers must flow to the others while they can
	// still use GPUs.
	agents, cs := buildAgents(t, topo, 3, 1)
	free := cs.FreeVector()
	allocs, err := arb.OfferResources(0, free, agents)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	perApp := make(map[workload.AppID]int)
	for _, al := range allocs {
		total += al.Alloc.Total()
		perApp[al.App] += al.Alloc.Total()
	}
	// Each app can use at most 8 GPUs (2 jobs × gang 4); the starved one
	// should reach its full parallelism and the rest absorb leftovers up to
	// their unmet parallelism (they already hold 4 each).
	want := 8 + 4 + 4
	if total != want {
		t.Errorf("allocated %d GPUs, want %d (work conservation)", total, want)
	}
	for i, st := range agents {
		id := st.Agent.ID()
		unmet := st.Agent.UnmetParallelism(st.Current.Add(cluster.NewAlloc()))
		if perApp[id] > unmet {
			t.Errorf("app %d granted %d above its unmet parallelism %d", i, perApp[id], unmet)
		}
	}
}

func TestArbiterNoFreeGPUs(t *testing.T) {
	topo := testTopo(t, 2, 4, 2)
	arb, _ := NewArbiter(topo, DefaultConfig())
	agents, _ := buildAgents(t, topo, 2, 0)
	allocs, err := arb.OfferResources(0, cluster.NewAlloc(), agents)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) != 0 {
		t.Errorf("allocations produced with no free GPUs: %v", allocs)
	}
	if allocs, err := arb.OfferResources(0, cluster.Alloc{0: 4}, nil); err != nil || len(allocs) != 0 {
		t.Errorf("allocations produced with no agents: %v err=%v", allocs, err)
	}
}

func TestArbiterAllocationsAreDisjoint(t *testing.T) {
	topo := testTopo(t, 10, 4, 5)
	arb, _ := NewArbiter(topo, Config{FairnessKnob: 0.4, LeaseDuration: 20})
	agents, cs := buildAgents(t, topo, 6, 3)
	free := cs.FreeVector()
	allocs, err := arb.OfferResources(5, free, agents)
	if err != nil {
		t.Fatal(err)
	}
	// Granting every allocation onto the live cluster state must succeed —
	// i.e. allocations are disjoint and within the free pool.
	for _, al := range allocs {
		if err := cs.Grant(string(al.App), al.Alloc); err != nil {
			t.Fatalf("allocation conflict: %v", err)
		}
	}
	if err := cs.Validate(); err != nil {
		t.Errorf("cluster state invalid after grants: %v", err)
	}
}

// fixedBidder answers every offer with the same bid table and can use no
// leftovers, so a round's outcome is its auction alone.
type fixedBidder struct{ table BidTable }

func (f fixedBidder) ID() workload.AppID                                        { return f.table.App }
func (f fixedBidder) ReportRho(float64, cluster.Alloc) float64                  { return f.table.CurrentRho() }
func (f fixedBidder) PrepareBid(float64, cluster.Alloc, cluster.Alloc) BidTable { return f.table }
func (f fixedBidder) UnmetParallelism(cluster.Alloc) int                        { return 0 }
func (f fixedBidder) GangSize() int                                             { return 1 }

// TestTruthfulPaymentsBitIdenticalAcrossRounds pins the payment sum's
// accumulation order: with several fractional c_i the float sum's last bits
// depend on the order it is taken in, and repeated identical rounds must
// report identical bits.
func TestTruthfulPaymentsBitIdenticalAcrossRounds(t *testing.T) {
	topo := testTopo(t, 8, 4, 4)
	free := cluster.NewAlloc()
	for m := 0; m < 8; m++ {
		free[cluster.MachineID(m)] = 4
	}
	bids := randomBids(rand.New(rand.NewSource(5)), free, 10)
	res, err := RunPartialAllocation(topo, free, bids, AuctionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fractional := map[float64]bool{}
	for _, ci := range res.HiddenPayment {
		if ci > 0 && ci < 1 {
			fractional[ci] = true
		}
	}
	if len(fractional) < 4 {
		t.Fatalf("fixture has %d distinct fractional payments, want >= 4: %v", len(fractional), res.HiddenPayment)
	}
	agents := make([]AgentState, 0, len(bids))
	for _, b := range bids {
		agents = append(agents, AgentState{Agent: fixedBidder{b}, Current: cluster.NewAlloc()})
	}
	var first uint64
	for round := 0; round < 64; round++ {
		arb, err := NewArbiter(topo, Config{FairnessKnob: 0, LeaseDuration: 20})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := arb.OfferResources(0, free, agents); err != nil {
			t.Fatal(err)
		}
		bits := math.Float64bits(arb.Stats.TruthfulPayments)
		if round == 0 {
			first = bits
			continue
		}
		if bits != first {
			t.Fatalf("round %d: TruthfulPayments %v, round 0 %v", round, arb.Stats.TruthfulPayments, math.Float64frombits(first))
		}
	}
}
