package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"themis/internal/cluster"
	"themis/internal/solver"
	"themis/internal/telemetry"
	"themis/internal/workload"
)

// This file keeps the per-bidder re-solve that priced hidden payments before
// the auction compiled its bids once (an `others` slice and a fresh
// solver.Solve per bidder) as the oracle for RunPartialAllocation: the
// leave-one-out searches on the shared compiled instance must reproduce it
// bit for bit.

func refRunPartialAllocation(topo *cluster.Topology, offer cluster.Alloc, bids []BidTable, opts AuctionOptions) (AuctionResult, error) {
	res := AuctionResult{
		Winners:          make(map[workload.AppID]cluster.Alloc),
		ProportionalFair: make(map[workload.AppID]cluster.Alloc),
		HiddenPayment:    make(map[workload.AppID]float64),
		Leftover:         offer.Clone(),
	}
	if len(bids) == 0 || offer.Total() == 0 {
		return res, nil
	}
	for _, b := range bids {
		if err := b.Validate(offer); err != nil {
			return res, err
		}
	}
	bidders := make([]solver.Bidder, 0, len(bids))
	for _, b := range bids {
		bidders = append(bidders, toBidder(b))
	}
	full, objective, err := solver.Solve(offer, bidders, opts.Solver)
	if err != nil {
		return res, err
	}
	res.Objective = objective
	allocated := cluster.NewAlloc()
	for _, b := range bids {
		id := b.App
		pf := full[string(id)].Alloc
		res.ProportionalFair[id] = pf
		ci := 1.0
		if !opts.DisableHiddenPayments {
			ci = refHiddenPayment(offer, bidders, full, string(id), opts.Solver)
		}
		res.HiddenPayment[id] = ci
		final := scaleAllocation(topo, pf, ci)
		res.Winners[id] = final
		allocated = allocated.Add(final)
	}
	leftover, err := offer.Sub(allocated)
	if err != nil {
		return res, err
	}
	res.Leftover = leftover
	return res, nil
}

func refHiddenPayment(offer cluster.Alloc, bidders []solver.Bidder, full solver.Assignment, id string, opts solver.Options) float64 {
	var withLog float64
	others := make([]solver.Bidder, 0, len(bidders)-1)
	for _, b := range bidders {
		if b.ID == id {
			continue
		}
		others = append(others, b)
		withLog += math.Log(full[b.ID].Value)
	}
	if len(others) == 0 {
		return 1
	}
	_, withoutLog, err := solver.Solve(offer, others, opts)
	if err != nil {
		return 1
	}
	ci := math.Exp(withLog - withoutLog)
	if ci > 1 {
		ci = 1
	}
	if ci < 0 {
		ci = 0
	}
	return ci
}

// oracleBids builds nApps bid tables over offer. Each table has its empty row
// plus rows-1 non-empty rows; rows <= 0 draws 1–5 rows per table. With tied
// set, every app shares one current ρ and a row's ρ depends only on its GPU
// count, so equal-sized rows tie within and across tables.
func oracleBids(rng *rand.Rand, offer cluster.Alloc, nApps, rows int, tied bool) []BidTable {
	machines := offer.Machines()
	bids := make([]BidTable, 0, nApps)
	for i := 0; i < nApps; i++ {
		current := 5 + rng.Float64()*20
		if tied {
			current = 10
		}
		table := BidTable{App: workload.AppID(fmt.Sprintf("app-%02d", i))}
		table.Entries = append(table.Entries, BidEntry{Alloc: cluster.NewAlloc(), Rho: current})
		n := rows
		if n <= 0 {
			n = 1 + rng.Intn(5)
		}
		for len(table.Entries) < n {
			alloc := cluster.NewAlloc()
			for _, m := range machines {
				if rng.Float64() < 0.4 {
					if g := rng.Intn(offer[m] + 1); g > 0 {
						alloc[m] = g
					}
				}
			}
			if alloc.Total() == 0 {
				continue
			}
			slope := 0.2 + rng.Float64()
			if tied {
				slope = 0.5
			}
			table.Entries = append(table.Entries, BidEntry{Alloc: alloc, Rho: current / (1 + float64(alloc.Total())*slope)})
		}
		bids = append(bids, table)
	}
	return bids
}

func oracleOffer(rng *rand.Rand, machines int) cluster.Alloc {
	offer := cluster.NewAlloc()
	for offer.Total() == 0 {
		for m := 0; m < machines; m++ {
			if n := rng.Intn(5); n > 0 {
				offer[cluster.MachineID(m)] = n
			}
		}
	}
	return offer
}

func sameAllocs(a, b map[workload.AppID]cluster.Alloc) bool {
	if len(a) != len(b) {
		return false
	}
	for id, x := range a {
		y, ok := b[id]
		if !ok || !x.Equal(y) {
			return false
		}
	}
	return true
}

// assertMatchesOracle runs both auctions and requires bit-identical results.
func assertMatchesOracle(t *testing.T, label string, topo *cluster.Topology, offer cluster.Alloc, bids []BidTable, opts AuctionOptions) AuctionResult {
	t.Helper()
	got, err := RunPartialAllocation(topo, offer, bids, opts)
	if err != nil {
		t.Fatalf("%s: RunPartialAllocation: %v", label, err)
	}
	want, err := refRunPartialAllocation(topo, offer, bids, opts)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if !sameAllocs(got.Winners, want.Winners) {
		t.Fatalf("%s: winners %v, oracle %v", label, got.Winners, want.Winners)
	}
	if !sameAllocs(got.ProportionalFair, want.ProportionalFair) {
		t.Fatalf("%s: proportional-fair %v, oracle %v", label, got.ProportionalFair, want.ProportionalFair)
	}
	if len(got.HiddenPayment) != len(want.HiddenPayment) {
		t.Fatalf("%s: %d payments, oracle %d", label, len(got.HiddenPayment), len(want.HiddenPayment))
	}
	for id, w := range want.HiddenPayment {
		if g, ok := got.HiddenPayment[id]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: c_%s = %v, oracle %v", label, id, g, w)
		}
	}
	if !got.Leftover.Equal(want.Leftover) {
		t.Fatalf("%s: leftover %v, oracle %v", label, got.Leftover, want.Leftover)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: objective %v, oracle %v", label, got.Objective, want.Objective)
	}
	return got
}

// solveCounts reads the solver's exact and greedy search counters.
func solveCounts() (exact, greedy uint64) {
	const name, help = "themis_solver_solves_total", "Winner-determination solves by mode."
	reg := telemetry.Default()
	return reg.Counter(name, help, telemetry.L("mode", "exact")).Value(),
		reg.Counter(name, help, telemetry.L("mode", "greedy")).Value()
}

// TestLeaveOneOutMatchesPerBidderResolve pins RunPartialAllocation's
// single-compile leave-one-out pricing to the per-bidder re-solve on
// randomized bid sets covering every exact/greedy combination, ties,
// bidders that bid only their empty row, a lone bidder and disabled
// payments.
func TestLeaveOneOutMatchesPerBidderResolve(t *testing.T) {
	topo := testTopo(t, 8, 4, 4)

	t.Run("exact full and leave-one-out", func(t *testing.T) {
		rng := rand.New(rand.NewSource(101))
		for trial := 0; trial < 80; trial++ {
			offer := oracleOffer(rng, 8)
			assertMatchesOracle(t, fmt.Sprint("trial ", trial), topo, offer, oracleBids(rng, offer, 2+rng.Intn(5), 0, false), AuctionOptions{})
		}
	})

	t.Run("greedy full with exact leave-one-out", func(t *testing.T) {
		rng := rand.New(rand.NewSource(102))
		for trial := 0; trial < 40; trial++ {
			offer := oracleOffer(rng, 8)
			n, rows := 3+rng.Intn(3), 3+rng.Intn(2)
			// The full market's space is rows^n, one bidder's absence
			// leaves rows^(n-1): the limit sits exactly between them.
			limit := int(math.Pow(float64(rows), float64(n-1)))
			bids := oracleBids(rng, offer, n, rows, false)
			exact0, greedy0 := solveCounts()
			assertMatchesOracle(t, fmt.Sprint("trial ", trial), topo, offer, bids, AuctionOptions{Solver: solver.Options{ExactLimit: limit}})
			exact1, greedy1 := solveCounts()
			// The oracle's own solves run the same split, so each side
			// contributes one greedy full solve and n exact searches.
			if exact1-exact0 != uint64(2*n) || greedy1-greedy0 != 2 {
				t.Fatalf("trial %d: %d exact + %d greedy searches, want %d + 2", trial, exact1-exact0, greedy1-greedy0, 2*n)
			}
		}
	})

	t.Run("greedy full and leave-one-out", func(t *testing.T) {
		rng := rand.New(rand.NewSource(103))
		for trial := 0; trial < 60; trial++ {
			offer := oracleOffer(rng, 8)
			bids := oracleBids(rng, offer, 2+rng.Intn(12), 0, false)
			assertMatchesOracle(t, fmt.Sprint("trial ", trial), topo, offer, bids, AuctionOptions{Solver: solver.Options{ExactLimit: 1}})
		}
	})

	t.Run("mixed limits", func(t *testing.T) {
		rng := rand.New(rand.NewSource(104))
		for trial := 0; trial < 60; trial++ {
			offer := oracleOffer(rng, 8)
			bids := oracleBids(rng, offer, 3+rng.Intn(5), 0, false)
			opts := AuctionOptions{Solver: solver.Options{ExactLimit: 2 + rng.Intn(400), LocalSearchRounds: 1 + rng.Intn(8)}}
			assertMatchesOracle(t, fmt.Sprint("trial ", trial), topo, offer, bids, opts)
		}
	})

	t.Run("tied values", func(t *testing.T) {
		rng := rand.New(rand.NewSource(105))
		for trial := 0; trial < 40; trial++ {
			offer := oracleOffer(rng, 8)
			bids := oracleBids(rng, offer, 2+rng.Intn(8), 0, true)
			for _, limit := range []int{0, 1, 64} {
				assertMatchesOracle(t, fmt.Sprint("trial ", trial, " limit ", limit), topo, offer, bids, AuctionOptions{Solver: solver.Options{ExactLimit: limit}})
			}
		}
	})

	t.Run("empty-only bidders", func(t *testing.T) {
		rng := rand.New(rand.NewSource(106))
		for trial := 0; trial < 40; trial++ {
			offer := oracleOffer(rng, 8)
			bids := oracleBids(rng, offer, 2+rng.Intn(6), 0, false)
			for k := range bids {
				if rng.Intn(3) == 0 {
					bids[k].Entries = bids[k].Entries[:1]
				}
			}
			for _, limit := range []int{0, 1} {
				assertMatchesOracle(t, fmt.Sprint("trial ", trial, " limit ", limit), topo, offer, bids, AuctionOptions{Solver: solver.Options{ExactLimit: limit}})
			}
		}
	})

	t.Run("lone bidder", func(t *testing.T) {
		rng := rand.New(rand.NewSource(107))
		for trial := 0; trial < 20; trial++ {
			offer := oracleOffer(rng, 8)
			got := assertMatchesOracle(t, fmt.Sprint("trial ", trial), topo, offer, oracleBids(rng, offer, 1, 0, false), AuctionOptions{})
			for id, ci := range got.HiddenPayment {
				if ci != 1 {
					t.Fatalf("trial %d: lone bidder %s pays c=%v", trial, id, ci)
				}
			}
		}
	})

	t.Run("hidden payments disabled", func(t *testing.T) {
		rng := rand.New(rand.NewSource(108))
		for trial := 0; trial < 30; trial++ {
			offer := oracleOffer(rng, 8)
			bids := oracleBids(rng, offer, 2+rng.Intn(6), 0, false)
			exact0, greedy0 := solveCounts()
			assertMatchesOracle(t, fmt.Sprint("trial ", trial), topo, offer, bids, AuctionOptions{DisableHiddenPayments: true})
			if exact1, greedy1 := solveCounts(); exact1+greedy1-exact0-greedy0 != 2 {
				t.Fatalf("trial %d: %d searches with payments disabled, want one per side", trial, exact1+greedy1-exact0-greedy0)
			}
		}
	})

	t.Run("greedy scale", func(t *testing.T) {
		rng := rand.New(rand.NewSource(109))
		for trial := 0; trial < 4; trial++ {
			offer := cluster.NewAlloc()
			for m := 0; m < 8; m++ {
				offer[cluster.MachineID(m)] = 4
			}
			assertMatchesOracle(t, fmt.Sprint("trial ", trial), topo, offer, oracleBids(rng, offer, 24+rng.Intn(16), 8, false), AuctionOptions{})
		}
	})
}
