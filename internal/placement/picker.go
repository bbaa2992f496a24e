package placement

import (
	"cmp"
	"slices"

	"themis/internal/cluster"
)

// Pick greedily selects up to count GPUs from the free vector in a
// placement-sensitive manner, producing the allocation to add.
//
// Preference order:
//  1. machines where anchor (the app's existing allocation) already holds
//     GPUs — extending an allocation in place keeps its locality tight;
//  2. machines in racks the anchor already touches;
//  3. otherwise machines with the most free GPUs, so the picked GPUs pack
//     into as few machines (and racks) as possible.
//
// This is the greedy job-level assignment of §5.2 step 4 and the leftover
// allocation rule of §5.1 step 3. It never picks more than count GPUs and
// never more than free allows; the result may hold fewer than count GPUs if
// the free pool is smaller.
//
// Pick is a Picker loaded for one pick; a caller picking repeatedly from one
// free vector should Load a Picker once instead.
func Pick(topo *cluster.Topology, free cluster.Alloc, anchor cluster.Alloc, count int) cluster.Alloc {
	var p Picker
	p.Load(topo, free)
	return p.Pick(nil, anchor, count)
}

// SatisfiesMinPerMachine reports whether an allocation meets a per-machine
// minimum: every machine used holds at least min GPUs. It implements the
// placement constraints of §6 — allocations that violate a job's constraint
// have placement sensitivity 0 and therefore cannot make progress.
func SatisfiesMinPerMachine(alloc cluster.Alloc, min int) bool {
	if min <= 0 {
		return true
	}
	for _, n := range alloc {
		if n > 0 && n < min {
			return false
		}
	}
	return true
}

// SatisfiesMaxMachines reports whether an allocation meets a machine-spread
// cap: the GPUs span at most max machines. It implements the slot/locality
// placement constraint a trace's placement block can carry — a gang that
// synchronises over NVLink only (or must stay rack-dense) cannot make
// progress when scattered wider, so such allocations value out like a
// violated per-machine minimum. max <= 0 means unconstrained.
func SatisfiesMaxMachines(alloc cluster.Alloc, max int) bool {
	if max <= 0 {
		return true
	}
	used := 0
	for _, n := range alloc {
		if n > 0 {
			used++
			if used > max {
				return false
			}
		}
	}
	return true
}

// SatisfiesConstraints combines the per-machine minimum and machine-spread
// placement checks — the full constraint set a job can carry (§6 and the
// trace v2 placement block). Allocations violating either constraint have
// placement sensitivity 0 and cannot make progress.
func SatisfiesConstraints(alloc cluster.Alloc, minPerMachine, maxMachines int) bool {
	return SatisfiesMinPerMachine(alloc, minPerMachine) && SatisfiesMaxMachines(alloc, maxMachines)
}

// Constraint is the full placement-constraint set a job can carry: the §6
// per-machine GPU floor and machine-spread cap, plus the trace v2 affinity
// constraints binding the job to one fabric domain or GPU flavor. The zero
// value is unconstrained.
type Constraint struct {
	// MinGPUsPerMachine is the per-machine GPU floor; <= 1 means none.
	MinGPUsPerMachine int
	// MaxMachines caps how many machines the GPUs may span; <= 0 means none.
	MaxMachines int
	// Domain restricts the job to machines of one fabric domain when
	// HasDomain is set.
	Domain    cluster.DomainID
	HasDomain bool
	// Flavor restricts the job to machines carrying one GPU model; empty
	// means any.
	Flavor cluster.GPUType
}

// IsZero reports whether the constraint set is fully unconstrained.
func (c Constraint) IsZero() bool {
	return c.MinGPUsPerMachine <= 1 && c.MaxMachines <= 0 && !c.HasDomain && c.Flavor == ""
}

// Admits reports whether machine m may hold any of the job's GPUs under the
// constraint's domain and flavor affinities.
func (c Constraint) Admits(topo *cluster.Topology, m cluster.MachineID) bool {
	if c.HasDomain && topo.Domain(m) != c.Domain {
		return false
	}
	if c.Flavor != "" && topo.Machine(m).GPU != c.Flavor {
		return false
	}
	return true
}

// Feasible reports whether any allocation at all can satisfy the constraint
// on topo: at least one admitted machine exists with capacity for the
// per-machine floor. Jobs with infeasible constraints can never run and must
// be rejected rather than scheduled (they would otherwise starve forever —
// the tiresias-loop bug).
func (c Constraint) Feasible(topo *cluster.Topology) bool {
	min := c.MinGPUsPerMachine
	if min < 1 {
		min = 1
	}
	for _, m := range topo.Machines() {
		if c.Admits(topo, m.ID) && m.NumGPUs >= min {
			return true
		}
	}
	return false
}

// Satisfies reports whether alloc meets the full constraint set on topo.
// An empty allocation trivially satisfies any constraint.
func Satisfies(topo *cluster.Topology, alloc cluster.Alloc, c Constraint) bool {
	if !SatisfiesConstraints(alloc, c.MinGPUsPerMachine, c.MaxMachines) {
		return false
	}
	if c.HasDomain || c.Flavor != "" {
		for m, n := range alloc {
			if n > 0 && !c.Admits(topo, m) {
				return false
			}
		}
	}
	return true
}

// PickConstrained greedily selects up to count GPUs from free like Pick, but
// only produces allocations that keep anchor+picked within the constraint
// set: machines outside the job's domain/flavor affinity are never used, no
// machine ends up under the per-machine GPU floor, and the combined spread
// stays within the machine cap. The result may hold fewer than count GPUs —
// possibly zero — when the constraint admits nothing better; callers decide
// whether a partial gang is worth running.
func PickConstrained(topo *cluster.Topology, free cluster.Alloc, anchor cluster.Alloc, count int, c Constraint) cluster.Alloc {
	var p Picker
	p.Load(topo, free)
	return p.PickConstrained(nil, anchor, count, c)
}

// SplitAmongJobs partitions an app-level allocation across jobs that each
// want up to maxPerJob GPUs, assigning GPUs to jobs in a placement-sensitive
// manner: each job is packed onto as few machines as possible before moving
// to the next job. jobs is the number of jobs wanting GPUs; the result has
// one allocation per job (possibly empty), in job order.
func SplitAmongJobs(topo *cluster.Topology, total cluster.Alloc, jobs int, maxPerJob int) []cluster.Alloc {
	out := make([]cluster.Alloc, jobs)
	var p Picker
	p.Load(topo, total)
	for j := range out {
		out[j] = p.Pick(nil, nil, maxPerJob)
		p.Take(out[j])
	}
	return out
}

// Picker is Pick over a pool sorted once. Load sorts the pool's machines by
// free GPUs descending, then ID ascending; any number of Picks then walk
// that one order and leave the pool unchanged, and Take removes GPUs from it
// between picks.
//
// One order serves every pass of Pick because of an invariant of its greedy
// ladder: during a pick a machine's remaining count is either its pool count
// or 0, since a take that leaves a machine partly used always ends the pick.
// So the pool order, skipping the machines the pick has emptied, is exactly
// the by-free order of what remains at any point of a pick: the order a
// map-based pick snapshots for pass 2 and re-sorts for each (domain, rack)
// pair of pass 3. TestPickerMatchesPick and TestPickerLoadPickTake pin the
// Picker to such a reference on randomized pools.
//
// Rack and domain tallies live in slices indexed by the dense RackID and
// DomainID. Once its buffers have grown, a Picker loads, picks and takes
// without allocating. A Picker is single-goroutine state; each BidValuator
// and RhoEstimator owns its own.
type Picker struct {
	topo       *cluster.Topology
	pool       []slot             // machines with free GPUs, in pick order
	rackFree   []int              // pool GPUs per rack
	domainFree []int              // pool GPUs per domain
	rackDomain []cluster.DomainID // the domain housing each rack

	// Per-pick scratch: the still-wanted count, the pool slots the pick
	// emptied (restored when it ends), the anchor's machines and the racks
	// and domains it touches, and the pass-3 orderings.
	need         int
	emptied      []emptied
	anchorIDs    []slot
	anchorRack   []bool
	anchorDomain []bool
	racks        []cluster.RackID
	domains      []cluster.DomainID
}

// slot pairs a machine with a GPU count.
type slot struct {
	m cluster.MachineID
	n int
}

// emptied records a pool slot a pick zeroed and the count to give back.
type emptied struct{ i, n int }

// bySlot orders slots by count descending, then machine ID ascending — the
// order every pass of Pick walks.
func bySlot(a, b slot) int {
	if a.n != b.n {
		return cmp.Compare(b.n, a.n)
	}
	return cmp.Compare(a.m, b.m)
}

// bind sizes the per-rack and per-domain buffers for topo.
func (p *Picker) bind(topo *cluster.Topology) {
	if p.topo == topo {
		return
	}
	racks, domains := 0, 0
	for m := 0; m < topo.NumMachines(); m++ {
		racks = max(racks, int(topo.Rack(cluster.MachineID(m)))+1)
		domains = max(domains, int(topo.Domain(cluster.MachineID(m)))+1)
	}
	p.topo = topo
	p.pool = p.pool[:0]
	p.rackFree = make([]int, racks)
	p.rackDomain = make([]cluster.DomainID, racks)
	p.anchorRack = make([]bool, racks)
	p.domainFree = make([]int, domains)
	p.anchorDomain = make([]bool, domains)
	for m := 0; m < topo.NumMachines(); m++ {
		p.rackDomain[topo.Rack(cluster.MachineID(m))] = topo.Domain(cluster.MachineID(m))
	}
}

// Load makes free the picker's pool, sorted once for every Pick until the
// next Load. free is only read; machines holding no GPUs are left out.
func (p *Picker) Load(topo *cluster.Topology, free cluster.Alloc) {
	p.bind(topo)
	pool := slices.Grow(p.pool[:0], len(free))
	for m, n := range free {
		if n > 0 {
			pool = append(pool, slot{m, n})
		}
	}
	slices.SortFunc(pool, bySlot)
	p.pool = pool
	clear(p.rackFree)
	clear(p.domainFree)
	for _, s := range pool {
		p.rackFree[topo.Rack(s.m)] += s.n
		p.domainFree[topo.Domain(s.m)] += s.n
	}
}

// Pick selects up to count GPUs from the loaded pool exactly as the package
// Pick does from the same free vector, writing them into dst (cleared first;
// allocated when nil) and returning it. anchor is only read, and the pool is
// left as Load or the last Take left it.
func (p *Picker) Pick(dst, anchor cluster.Alloc, count int) cluster.Alloc {
	dst = p.begin(dst, anchor, count)
	if p.need > 0 {
		p.pick(dst)
	}
	p.end()
	return dst
}

// PickConstrained is the package PickConstrained on the loaded pool, with
// Pick's dst and pool rules.
func (p *Picker) PickConstrained(dst, anchor cluster.Alloc, count int, c Constraint) cluster.Alloc {
	if c.IsZero() {
		return p.Pick(dst, anchor, count)
	}
	dst = p.begin(dst, anchor, count)
	if p.need > 0 {
		p.pickConstrained(dst, anchor, c)
	}
	p.end()
	return dst
}

// begin readies a pick: dst cleared (or made), the wanted count set, and
// the anchor's machines sorted with the racks and domains they touch marked.
func (p *Picker) begin(dst, anchor cluster.Alloc, count int) cluster.Alloc {
	if dst == nil {
		dst = cluster.NewAlloc()
	} else {
		clear(dst)
	}
	p.need = max(count, 0)
	ids := p.anchorIDs[:0]
	for m, n := range anchor {
		if n > 0 {
			ids = append(ids, slot{m, n})
			p.anchorRack[p.topo.Rack(m)] = true
			p.anchorDomain[p.topo.Domain(m)] = true
		}
	}
	slices.SortFunc(ids, bySlot)
	p.anchorIDs = ids
	return dst
}

// end gives back the slots the pick emptied and clears the anchor marks, so
// the pool and scratch are as begin found them.
func (p *Picker) end() {
	for _, e := range p.emptied {
		s := &p.pool[e.i]
		s.n = e.n
		p.rackFree[p.topo.Rack(s.m)] += e.n
		p.domainFree[p.topo.Domain(s.m)] += e.n
	}
	p.emptied = p.emptied[:0]
	for _, a := range p.anchorIDs {
		p.anchorRack[p.topo.Rack(a.m)] = false
		p.anchorDomain[p.topo.Domain(a.m)] = false
	}
}

// pick runs Pick's three passes until p.need GPUs are in dst or the pool is
// exhausted.
func (p *Picker) pick(dst cluster.Alloc) {
	topo := p.topo
	// Pass 1: machines the anchor already uses, largest anchor share first.
	for _, a := range p.anchorIDs {
		if i := p.index(a.m); i >= 0 && p.take(dst, i) {
			return
		}
	}

	// Pass 2: machines in racks the anchor already touches.
	if len(p.anchorIDs) > 0 {
		for i, s := range p.pool {
			if s.n > 0 && p.anchorRack[topo.Rack(s.m)] && p.take(dst, i) {
				return
			}
		}
	}

	// Pass 3: pack into as few machines as possible, filling one fabric
	// domain before spilling into the next. Domains the anchor already
	// touches come first, then domains by aggregate free GPUs; within a
	// domain, prefer the rack with the most aggregate free GPUs so
	// multi-machine spills stay rack-local. On single-domain (flat)
	// topologies the domain loop is a no-op and the order reduces to rack
	// packing.
	domains := p.domains[:0]
	for d, n := range p.domainFree {
		if n > 0 {
			domains = append(domains, cluster.DomainID(d))
		}
	}
	slices.SortFunc(domains, func(a, b cluster.DomainID) int {
		if p.anchorDomain[a] != p.anchorDomain[b] {
			if p.anchorDomain[a] {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(p.domainFree[b], p.domainFree[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	p.domains = domains
	racks := p.racks[:0]
	for r, n := range p.rackFree {
		if n > 0 {
			racks = append(racks, cluster.RackID(r))
		}
	}
	slices.SortFunc(racks, func(a, b cluster.RackID) int {
		if c := cmp.Compare(p.rackFree[b], p.rackFree[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	p.racks = racks
	for _, d := range domains {
		for _, r := range racks {
			if p.rackDomain[r] != d {
				continue
			}
			for i, s := range p.pool {
				if s.n > 0 && topo.Rack(s.m) == r && p.take(dst, i) {
					return
				}
			}
		}
	}
}

// pickConstrained runs PickConstrained's ladder: the same passes 1 and 2 as
// pick, then the rest in pool order, over machines c admits only. It skips
// a take that would leave a machine under c's per-machine floor, or that
// would spread the allocation (anchor included) past c's machine cap.
func (p *Picker) pickConstrained(dst, anchor cluster.Alloc, c Constraint) {
	topo := p.topo
	minPer := max(c.MinGPUsPerMachine, 1)
	used := len(p.anchorIDs) // machines holding anchor or picked GPUs
	take := func(i int) {
		s := p.pool[i]
		n := min(s.n, p.need)
		if n <= 0 || !c.Admits(topo, s.m) {
			return
		}
		base := anchor[s.m] + dst[s.m]
		if base+n < minPer {
			return
		}
		if base == 0 {
			if c.MaxMachines > 0 && used >= c.MaxMachines {
				return
			}
			used++
		}
		p.take(dst, i)
	}
	for _, a := range p.anchorIDs {
		if i := p.index(a.m); i >= 0 {
			take(i)
		}
	}
	if p.need > 0 && len(p.anchorIDs) > 0 {
		for i, s := range p.pool {
			if s.n > 0 && p.anchorRack[topo.Rack(s.m)] {
				take(i)
			}
		}
	}
	for i := range p.pool {
		if p.need == 0 {
			return
		}
		take(i)
	}
}

// take moves up to p.need GPUs of pool slot i into dst and reports whether
// the pick is complete. A slot it empties is zeroed for the rest of the pick
// and logged for Pick to restore; a slot it leaves partly used always
// completes the pick, so no pass ever sees a partial count.
func (p *Picker) take(dst cluster.Alloc, i int) bool {
	s := &p.pool[i]
	n := min(s.n, p.need)
	if n <= 0 {
		return false
	}
	dst[s.m] += n
	p.need -= n
	if n == s.n {
		p.emptied = append(p.emptied, emptied{i, n})
		s.n = 0
		p.rackFree[p.topo.Rack(s.m)] -= n
		p.domainFree[p.topo.Domain(s.m)] -= n
	}
	return p.need == 0
}

// Take removes alloc's GPUs from the pool, so later picks see only what is
// left. Machines it empties leave the pool, and the few it leaves partly
// used move to their new place in the order. alloc holding GPUs the pool
// does not is a caller bug and panics.
func (p *Picker) Take(alloc cluster.Alloc) {
	for m, n := range alloc {
		if n <= 0 {
			continue
		}
		i := p.index(m)
		if i < 0 || p.pool[i].n < n {
			panic("placement: Picker.Take removes GPUs the pool does not hold")
		}
		p.pool[i].n -= n
		p.rackFree[p.topo.Rack(m)] -= n
		p.domainFree[p.topo.Domain(m)] -= n
	}
	// Counts only fell, so an insertion sort moves each changed slot right
	// to its place in the nearly sorted pool; emptied slots end up last.
	pool := p.pool
	for i := 1; i < len(pool); i++ {
		for j := i; j > 0 && bySlot(pool[j], pool[j-1]) < 0; j-- {
			pool[j], pool[j-1] = pool[j-1], pool[j]
		}
	}
	for len(pool) > 0 && pool[len(pool)-1].n == 0 {
		pool = pool[:len(pool)-1]
	}
	p.pool = pool
}

// index returns m's position in the pool, or -1 when m is not pooled. The
// pool is scanned, not indexed by machine, so a Picker's memory follows the
// pools it holds rather than the cluster's size; lookups serve only anchor
// machines and Take.
func (p *Picker) index(m cluster.MachineID) int {
	for i, s := range p.pool {
		if s.m == m {
			return i
		}
	}
	return -1
}
