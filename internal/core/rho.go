// Package core implements Themis's scheduling contribution: the finish-time
// fairness metric ρ, Agents that estimate it and bid with it, and the
// Arbiter that runs semi-optimistic partial-allocation auctions to assign
// leased GPUs so that the maximum ρ across apps is minimised over the long
// term while placement-efficient allocations are favoured in the short term
// (§3–§5 of the paper).
package core

import (
	"math"

	"themis/internal/cluster"
	"themis/internal/estimator"
	"themis/internal/hyperparam"
	"themis/internal/placement"
	"themis/internal/workload"
)

// Unbounded is the ρ value reported by an app that currently holds no GPUs:
// with no allocation its shared finish time is unbounded (§5.1, "any non-zero
// GPU allocation to that app will lead to a huge improvement"). Using a large
// finite value keeps the max/min arithmetic well behaved.
const Unbounded = 1e12

// RhoEstimator computes finish-time fairness estimates for a single app — the
// Agent-side procedure of §5.2: given the app's current and hypothetical GPU
// allocations it estimates the shared running time T_SH, the ideal
// (dedicated-cluster) running time T_ID and their ratio ρ.
type RhoEstimator struct {
	Topo  *cluster.Topology
	App   *workload.App
	Tuner hyperparam.Tuner
	// Errors optionally perturbs estimates, modelling mis-profiled work or
	// placement sensitivity (Figure 11). Nil disables perturbation.
	Errors *estimator.ErrorModel

	// Estimator scratch, recycled across calls: the split output/ordering
	// slices, each active job's work left, the per-job pick maps, the
	// picker holding what the split has left, the aggregate total of Rho's
	// current+extra, and the active-jobs buffer. Everything an estimate
	// touches is either caller-owned input (read only) or one of these
	// buffers, so a steady-state ρ probe allocates nothing
	// (TestRhoEstimateZeroAlloc); SplitForJobs clones the per-job maps
	// before handing them out. An estimator is per-app, per-goroutine
	// state, so plain fields suffice.
	splitOut   []cluster.Alloc
	splitOrder []int
	workLeft   []float64
	splitMaps  []cluster.Alloc
	picker     placement.Picker
	total      cluster.Alloc
	jobs       []*workload.Job
}

// activeJobs returns the app's active jobs in an estimator-owned buffer,
// valid until the next call.
func (e *RhoEstimator) activeJobs() []*workload.Job {
	e.jobs = e.App.AppendActiveJobs(e.jobs[:0])
	return e.jobs
}

// NewRhoEstimator returns an estimator for app using the given tuner for
// work-left estimates.
func NewRhoEstimator(topo *cluster.Topology, app *workload.App, tuner hyperparam.Tuner) *RhoEstimator {
	return &RhoEstimator{Topo: topo, App: app, Tuner: tuner}
}

// TIdeal returns the app's estimated running time with its ideal GPU
// allocation in a dedicated cluster: min over constituent jobs of
// W_j / G_ideal_j with perfect placement (§5.2 step 5). Completed or killed
// jobs are excluded; if nothing is active the last known value (or a small
// epsilon) is returned so ρ stays defined while the app drains.
func (e *RhoEstimator) TIdeal() float64 {
	best := math.Inf(1)
	for _, j := range e.App.Jobs {
		g := j.MaxParallelism
		if g <= 0 {
			g = j.GangSize
		}
		if g <= 0 {
			continue
		}
		t := j.TotalWork / float64(g)
		if t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) || best <= 0 {
		return 1e-6
	}
	return best
}

// TShared estimates the app's total shared running time if, from time now
// onward, it holds the aggregate allocation total until completion (§5.2
// step 4): elapsed time so far plus the time for the quickest constituent
// job to finish given a greedy placement-sensitive split of total across
// jobs. It returns Unbounded when total is empty and work remains.
func (e *RhoEstimator) TShared(now float64, total cluster.Alloc) float64 {
	elapsed := now - e.App.SubmitTime
	if elapsed < 0 {
		elapsed = 0
	}
	active := e.activeJobs()
	if len(active) == 0 {
		return elapsed
	}
	if total.Total() == 0 {
		// With no GPUs the shared finish time is unbounded. Scaling by the
		// time already waited keeps starving apps ordered by how long they
		// have been starved, so ties among GPU-less apps resolve in favour
		// of the one waiting longest.
		return Unbounded * (1 + elapsed)
	}
	split := e.splitAcrossJobs(total, active)
	best := math.Inf(1)
	for idx, j := range active {
		alloc := split[idx]
		g := alloc.Total()
		// A job whose allocation violates its placement constraint — the §6
		// floor/cap or a trace v2 domain/flavor affinity — has S = 0: it
		// contributes no finish time, so a bid built on such an allocation
		// values out at an unbounded ρ.
		c, ok := j.PlacementConstraint(e.Topo)
		if g == 0 || !ok || !placement.Satisfies(e.Topo, alloc, c) {
			continue
		}
		s := e.App.Profile.SOf(e.Topo, alloc)
		t := elapsed + e.workLeft[idx]/(float64(g)*s)
		if t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) {
		return Unbounded
	}
	return best
}

// Rho estimates the finish-time fairness metric ρ = T_SH / T_ID the app
// would achieve if extra were added to current and held until completion
// (§5.2 steps 1–7). Perturbation, if configured, is applied to the result.
func (e *RhoEstimator) Rho(now float64, current, extra cluster.Alloc) float64 {
	tsh := e.TShared(now, e.totalInto(current, extra))
	tid := e.TIdeal()
	return e.Errors.Perturb(tsh / tid)
}

// totalInto computes current.Add(extra) into the estimator's reused total
// buffer; the result is read-only and valid until the next Rho call.
func (e *RhoEstimator) totalInto(current, extra cluster.Alloc) cluster.Alloc {
	if e.total == nil {
		e.total = cluster.NewAlloc()
	}
	t := e.total
	clear(t)
	for m, n := range current {
		if n != 0 {
			t[m] = n
		}
	}
	for m, n := range extra {
		if n == 0 {
			continue
		}
		t[m] += n
		if t[m] == 0 {
			delete(t, m)
		}
	}
	return t
}

// CurrentRho estimates ρ with the app's present allocation only — the value
// the Arbiter probes before each auction (step 1 in Figure 3).
func (e *RhoEstimator) CurrentRho(now float64, current cluster.Alloc) float64 {
	return e.Rho(now, current, nil)
}

// FinalRho returns the realised finish-time fairness of a finished app:
// actual shared running time over ideal running time. For unfinished apps it
// returns the estimate at time now.
func (e *RhoEstimator) FinalRho(now float64, current cluster.Alloc) float64 {
	if e.App.Finished() {
		return (e.App.FinishedAt - e.App.SubmitTime) / e.TIdeal()
	}
	return e.CurrentRho(now, current)
}

// splitAcrossJobs divides the app-level allocation among active jobs in a
// placement-sensitive greedy manner, honouring each job's MaxParallelism
// (§5.2 step 4). Jobs with the least work left are assigned first so the
// fastest-finishing job (which determines T_SH) is placed best.
func (e *RhoEstimator) splitAcrossJobs(total cluster.Alloc, active []*workload.Job) []cluster.Alloc {
	out := e.splitOut[:0]
	order := e.splitOrder[:0]
	for i := range active {
		out = append(out, nil)
		order = append(order, i)
	}
	e.splitOut, e.splitOrder = out, order
	// Assign jobs closest to completion first. Each job's work left is read
	// once; the exchange sort keeps its swap order, so ties resolve as they
	// always have.
	left := e.workLeft[:0]
	for _, j := range active {
		left = append(left, e.Tuner.WorkLeft(j))
	}
	e.workLeft = left
	for i := 0; i < len(order); i++ {
		for k := i + 1; k < len(order); k++ {
			if left[order[k]] < left[order[i]] {
				order[i], order[k] = order[k], order[i]
			}
		}
	}
	for len(e.splitMaps) < len(active) {
		e.splitMaps = append(e.splitMaps, cluster.NewAlloc())
	}
	// total is sorted once; each job picks from what the jobs before it
	// left and takes its share out.
	e.picker.Load(e.Topo, total)
	for _, idx := range order {
		j := active[idx]
		want := j.MaxParallelism
		if want <= 0 {
			want = j.GangSize
		}
		picked := e.picker.Pick(e.splitMaps[idx], nil, want)
		if c, ok := j.PlacementConstraint(e.Topo); ok && !c.IsZero() && !placement.Satisfies(e.Topo, picked, c) {
			// The unconstrained pick would strand these GPUs on an unrunnable
			// shape; re-pick constraint-aware so the bid values what the
			// simulator's job split would actually run.
			picked = e.picker.PickConstrained(picked, nil, want, c)
		}
		out[idx] = picked
		e.picker.Take(picked)
	}
	return out
}
