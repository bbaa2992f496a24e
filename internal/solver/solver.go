// Package solver computes the proportionally fair winner determination at
// the heart of the partial allocation mechanism (§5.1, Pseudocode 2 line 6):
// given each bidding app's valuation for a set of candidate GPU bundles,
// pick one bundle per app — subject to per-machine capacity — maximising the
// product of valuations (equivalently the sum of log valuations).
//
// The paper solves this with Gurobi; this package substitutes an exact
// branch-and-bound search for small instances and a greedy + local-search
// heuristic for large ones. Auction instances are small (the offer is the
// currently free GPUs and only the worst 1−f fraction of apps bid), so the
// exact path covers the common case.
package solver

import (
	"fmt"
	"math"

	"themis/internal/cluster"
	"themis/internal/telemetry"
)

// Solver selection counters: the exact-vs-greedy split tells an operator
// whether auction instances are staying under ExactLimit (where the solution
// is provably optimal) or spilling into the heuristic. Single atomic adds —
// the solver runs inside the allocation-free auction round.
var (
	solveExactCount  = telemetry.Default().Counter("themis_solver_solves_total", "Winner-determination solves by mode.", telemetry.L("mode", "exact"))
	solveGreedyCount = telemetry.Default().Counter("themis_solver_solves_total", "Winner-determination solves by mode.", telemetry.L("mode", "greedy"))
	pairMoveCount    = telemetry.Default().Counter("themis_solver_pair_moves_total", "Pair moves applied by the greedy local search (a bidder upgrades while a victim reverts to empty).")
)

// Bundle is one row of a bidder's valuation table: an allocation and the
// bidder's value for receiving it (higher is better, must be positive).
type Bundle struct {
	Alloc cluster.Alloc
	Value float64
}

// Bidder is one participating app with its candidate bundles. Bundles must
// include a zero-allocation row describing the bidder's value if it wins
// nothing; Normalize adds one if missing.
type Bidder struct {
	ID      string
	Bundles []Bundle
}

// Normalize ensures the bidder has an empty-allocation bundle and that all
// values are positive; non-positive values are clamped to a tiny epsilon so
// the log-objective stays finite.
func (b *Bidder) Normalize() {
	const eps = 1e-12
	hasEmpty := false
	for i := range b.Bundles {
		if b.Bundles[i].Value < eps {
			b.Bundles[i].Value = eps
		}
		if b.Bundles[i].Alloc.Total() == 0 {
			hasEmpty = true
		}
	}
	if !hasEmpty {
		b.Bundles = append(b.Bundles, Bundle{Alloc: cluster.NewAlloc(), Value: eps})
	}
}

// Assignment maps bidder ID to the chosen bundle.
type Assignment map[string]Bundle

// Objective returns the sum of log valuations of an assignment.
func (a Assignment) Objective() float64 {
	var sum float64
	for _, b := range a {
		sum += math.Log(b.Value)
	}
	return sum
}

// TotalAlloc returns the union of allocations in the assignment.
func (a Assignment) TotalAlloc() cluster.Alloc {
	out := cluster.NewAlloc()
	for _, b := range a {
		out = out.Add(b.Alloc)
	}
	return out
}

// Options tunes the solver.
type Options struct {
	// ExactLimit is the largest search-space size (product of per-bidder
	// bundle counts) for which the exact branch-and-bound runs; larger
	// instances use the heuristic. Zero uses DefaultExactLimit.
	ExactLimit int
	// LocalSearchRounds bounds the improvement rounds of the heuristic.
	// Zero uses DefaultLocalSearchRounds.
	LocalSearchRounds int
}

// Defaults for Options.
const (
	DefaultExactLimit        = 200000
	DefaultLocalSearchRounds = 64
)

func (o Options) withDefaults() Options {
	if o.ExactLimit <= 0 {
		o.ExactLimit = DefaultExactLimit
	}
	if o.LocalSearchRounds <= 0 {
		o.LocalSearchRounds = DefaultLocalSearchRounds
	}
	return o
}

// Solve picks one bundle per bidder maximising Σ log(value) subject to the
// per-machine capacity. Every bidder appears in the result (possibly with
// its empty bundle). The second return value is the achieved objective,
// summed in bidder index order so repeated runs return identical bits.
//
// Solve never mutates the caller's bidders: normalization deep-copies each
// bidder's bundle slice into pooled scratch storage before clamping values
// or appending the empty row. The search itself runs on the dense compiled
// instance (see dense.go); the sparse maps in the returned Assignment are
// the caller's own bundle allocations, untouched.
func Solve(capacity cluster.Alloc, bidders []Bidder, opts Options) (Assignment, float64, error) {
	asg, obj, _, err := solve(capacity, bidders, opts, false)
	return asg, obj, err
}

// SolveLeaveOneOut is Solve plus, for every bidder i, the objective of the
// market without bidder i — the quantity the auction's hidden payments are
// priced from. The bids are validated, normalized and compiled once; each
// leave-one-out search then runs on that same instance with bidder i masked
// out, and loo[i] is bit-identical to the objective Solve returns for the
// bidders with bidders[i] removed. A lone bidder's leave-one-out market is
// empty: loo[0] is 0 and no search runs for it.
func SolveLeaveOneOut(capacity cluster.Alloc, bidders []Bidder, opts Options) (Assignment, float64, []float64, error) {
	return solve(capacity, bidders, opts, true)
}

func solve(capacity cluster.Alloc, bidders []Bidder, opts Options, leaveOneOut bool) (Assignment, float64, []float64, error) {
	opts = opts.withDefaults()
	sc := getScratch()
	defer sc.release()
	if err := sc.validate(capacity, bidders); err != nil {
		return nil, 0, nil, err
	}
	sc.normalize(bidders)
	sc.compile(capacity)
	sc.search(opts, -1)
	asg, obj := sc.result()
	if !leaveOneOut {
		return asg, obj, nil, nil
	}
	loo := make([]float64, len(sc.norm))
	if len(loo) > 1 {
		for i := range loo {
			sc.search(opts, i)
			loo[i] = sc.objective(i)
		}
	}
	return asg, obj, loo, nil
}

// search runs one winner determination on the compiled instance with bidder
// skip masked out (-1 masks nobody), leaving the unmasked bidders' choices in
// sc.choice (the masked bidder's entry is meaningless). It decides exact vs
// greedy from the unmasked bidders' bundle counts in index order, exactly as
// a fresh Solve over those bidders would.
func (sc *scratch) search(opts Options, skip int) {
	space := 1
	exact := true
	for i, b := range sc.norm {
		if i == skip {
			continue
		}
		if space > opts.ExactLimit/len(b.Bundles) {
			exact = false
			break
		}
		space *= len(b.Bundles)
	}
	if exact && space <= opts.ExactLimit {
		solveExactCount.Inc()
		sc.solveExact(skip)
	} else {
		solveGreedyCount.Inc()
		sc.solveGreedy(opts.LocalSearchRounds, skip)
	}
}

func (sc *scratch) validate(capacity cluster.Alloc, bidders []Bidder) error {
	if sc.seen == nil {
		sc.seen = make(map[string]bool, len(bidders))
	}
	clear(sc.seen)
	seen := sc.seen
	for _, b := range bidders {
		if b.ID == "" {
			return fmt.Errorf("solver: bidder with empty ID")
		}
		if seen[b.ID] {
			return fmt.Errorf("solver: duplicate bidder %q", b.ID)
		}
		seen[b.ID] = true
		for _, bun := range b.Bundles {
			for m, n := range bun.Alloc {
				if n < 0 {
					return fmt.Errorf("solver: bidder %q bundle with negative GPUs on machine %d", b.ID, m)
				}
				if n > capacity[m] {
					return fmt.Errorf("solver: bidder %q bundle wants %d GPUs on machine %d, capacity %d", b.ID, n, m, capacity[m])
				}
			}
		}
	}
	return nil
}
