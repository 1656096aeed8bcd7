package gdp

// The parallel host backend: within one Step, the simulated processors are
// partitioned into conflict-affinity groups, each group's quanta run
// sequentially on one *host* goroutine against an epoch fork of the machine
// state (obj.Table.Fork over mem.Memory.Fork), and the forks commit in
// canonical order. Virtual time, fault behaviour, and the kernel event log
// are byte-identical to the serial backend by construction:
//
//   - Within a group, members execute sequentially in ascending processor
//     order — exactly the serial interleaving restricted to the group, so
//     intra-group communication (port ping-pong, dispatch races) is simply
//     correct, not a conflict.
//   - A fork never reads another group's epoch writes, so the only epochs
//     allowed to commit are those where the serial interleaving could not
//     have communicated across groups either — detected by intersecting
//     read/write footprints (descriptor slots exactly, memory pages refined
//     to byte-granular bitmaps for first-fit boundary pages). Disjointness
//     makes every inter-group interleaving equivalent; the canonical serial
//     one is re-established at commit by ordering trace emission and stats
//     accumulation by processor id.
//   - Anything a fork cannot reproduce speculatively — object destruction,
//     creation outside a reservation (slot and extent allocation order),
//     native Go bodies (they mutate host state outside the object world), a
//     system-level fault, a trace-ring overflow — aborts the epoch.
//     Creation against the executing CPU's reservation (obj.Reservation,
//     pre-granted slots and pre-charged arena bytes) is pure shadow writes
//     and commits with the epoch instead.
//
// A conflicting or aborted epoch is discarded wholesale and replayed with
// the serial backend; since speculation never touched real state, the
// replay IS the serial execution. Each cross-group conflict also feeds the
// decayed affinity map: processors that keep conflicting are co-scheduled
// into one group next epoch, so their traffic serialises locally while
// disjoint compute keeps committing in parallel. Parallelism is therefore
// purely a host wall-clock optimisation — the simulated machine cannot
// tell, whatever the grouping.
//
// Committed epochs no longer invalidate every execution cache: ForkCommit
// reports exactly the descriptor slots it changed (plus the objects that
// took cache-hazard AD stores), and scopedInvalidate kills only the caches
// whose pinned objects appear in that set. Memory-byte writes need no
// invalidation — cached windows are live views over the same backing
// array. See DESIGN.md §8 for the full soundness argument.

import (
	"math/bits"
	"sync"

	"repro/internal/domain"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/sro"
	"repro/internal/trace"
	"repro/internal/typedef"
	"repro/internal/vtime"
)

// forkLogCapacity sizes each fork's private trace ring. A quantum is a few
// thousand cycles and the cheapest traced operation costs ~4, so 32k events
// is far past any real epoch, even with several group members sharing the
// ring; overflow aborts the epoch rather than lose events.
const forkLogCapacity = 1 << 15

// maxParallelCPUs bounds the backend to the width of the footprint
// bitmasks; larger systems fall back to the serial backend.
const maxParallelCPUs = 64

// parStreakLimit is the number of consecutive discarded epochs that
// triggers the abort backoff (Config.ParallelCooldown serial steps). The
// pathological case is a workload whose every epoch communicates across
// groups faster than affinity can co-schedule it — then speculation can
// never commit and each step costs a fork setup plus the serial replay.
const parStreakLimit = 4

// Conflict-affinity tuning. Each cross-group conflict boosts the score of
// every processor pair spanning the two groups by affinityBoost (saturating
// at affinityMax); every parallel epoch decays every score by one. Two
// processors share a group while their score is positive, so a single
// conflict co-schedules them for affinityBoost epochs and sustained traffic
// pins them together for up to affinityMax.
const (
	affinityBoost = 16
	affinityMax   = 64
)

// specCtl is the kill switch of one speculation. It lives on the fork
// systems only; the real system's spec field is nil.
type specCtl struct {
	dead bool
}

// specDead reports whether this fork's speculation has been aborted,
// either explicitly or by a structural operation in the table/memory fork.
func (s *System) specDead() bool {
	return s.spec != nil && (s.spec.dead || s.Table.ForkAborted())
}

// addForkStats folds one committed epoch's driver-level stats, which the
// fork system accumulated live since begin() zeroed them, into the real
// system.
func (s *System) addForkStats(fs *System) {
	s.dispatches += fs.dispatches
	s.preemptions += fs.preemptions
	s.faultsSent += fs.faultsSent
	s.instructions += fs.instructions
	s.trCompiled += fs.trCompiled
	s.trFused += fs.trFused
	s.trEntries += fs.trEntries
	s.trInstrs += fs.trInstrs
	s.trDeopts += fs.trDeopts
	s.trExits += fs.trExits
	s.parForkCreates += fs.parForkCreates
}

// epochFork is one group's speculation apparatus, reused across epochs. Its
// shadow system, CPU copies (with their fork-local execution caches), trace
// ring, and epoch decode cache all persist; begin() resets in O(touched).
type epochFork struct {
	sys     *System    // shadow system over the fork table
	members []int      // real processor ids this epoch, ascending
	cpus    []*CPU     // epoch-local copies of the members' CPUs
	segs    []uint64   // log sequence after each member's quantum
	log     *trace.Log // private event ring, re-emitted on commit
	seq0    uint64     // log sequence at epoch start, for overflow detection
	tainted bool       // the last epoch this fork ran was discarded

	worked bool
	fault  *obj.Fault
}

// parallelEligible reports whether this step may run on the parallel
// backend. Deadline dispatching reads the system-wide clock from inside a
// quantum (undetectable cross-processor communication), and the Trace
// instruction callback is a shared host closure; both force serial.
func (s *System) parallelEligible() bool {
	return s.hostpar &&
		len(s.CPUs) > 1 && len(s.CPUs) <= maxParallelCPUs &&
		!s.deadline &&
		s.Trace == nil
}

// injectionImminent reports whether the installed fault injector could
// fire within one epoch of the given quantum. The instruction count a
// fork reaches is bounded by quantum divided by the cheapest instruction
// cost, summed over processors; speculating across the trigger instant
// would let forks race past it and see state the injection should have
// changed (or fire it against fork state the commit then discards). Such
// steps run serially instead, so the injection fires mid-quantum on the
// real machine, identically in every backend/cache corner. Injection-free
// stretches of a plan keep the parallel backend's full benefit.
func (s *System) injectionImminent(quantum vtime.Cycles) bool {
	if s.inj == nil {
		return false
	}
	next := s.inj.NextAt()
	if next == ^uint64(0) {
		return false
	}
	perCPU := uint64(quantum)/uint64(vtime.CostALU) + 1
	bound := uint64(len(s.CPUs)) * perCPU
	return next < s.instructions+bound
}

// buildForks constructs one epoch fork per processor (an epoch uses the
// first len(groups) of them). The fork system shares everything
// immutable-during-a-step with the real system (the native-body registry,
// the handler registry via the epoch domain manager, configuration) and
// owns fork views of everything mutable (table, memory, per-epoch stats,
// trace ring, execution caches).
func (s *System) buildForks() {
	s.parWinDeclines = s.winDeclines()
	s.forks = make([]*epochFork, len(s.CPUs))
	for i := range s.CPUs {
		ftab := s.Table.Fork()
		fsro := sro.NewManager(ftab)
		fs := &System{
			Table:        ftab,
			SROs:         fsro,
			Ports:        port.NewManager(ftab, fsro),
			Procs:        process.NewManager(ftab, fsro),
			TDOs:         typedef.NewManager(ftab),
			Heap:         s.Heap,
			Dispatch:     s.Dispatch,
			bodies:       s.bodies,
			contention:   s.contention,
			deadline:     s.deadline,
			deadlineBase: s.deadlineBase,
			xcOff:        s.xcOff,
			trOff:        s.trOff,
			structOff:    s.structOff,
			spec:         &specCtl{},
		}
		fs.Domains = domain.NewEpochManager(ftab, fsro, s.Domains)
		s.forks[i] = &epochFork{sys: fs}
	}
}

// begin readies the fork for a new epoch over the given group members:
// fresh CPU copies (keeping each slot's fork-local execution cache, marked
// stale so the first fast instruction re-primes against the new shadow),
// cleared footprints, and a private trace ring iff the real system is
// tracing. The epoch decode cache survives committed epochs — its entries
// were decoded from bytes that are now real — and resets only after a
// discarded one, whose decodes may alias speculative state.
func (fk *epochFork) begin(s *System, members []int, tr *trace.Log) {
	fs := fk.sys
	fk.members = members
	for len(fk.cpus) < len(members) {
		fk.cpus = append(fk.cpus, &CPU{})
	}
	if cap(fk.segs) < len(members) {
		fk.segs = make([]uint64, len(members))
	}
	fk.segs = fk.segs[:len(members)]
	for j, id := range members {
		c := fk.cpus[j]
		xc := c.xc
		*c = *s.CPUs[id]
		c.xc = xc // the fork cache stays with the fork; the real one with the real CPU
		if xc != nil {
			xc.invalidate()
		}
	}
	fs.busyThisStep = s.busyThisStep
	fs.dispatches, fs.preemptions, fs.faultsSent, fs.instructions = 0, 0, 0, 0
	fs.trCompiled, fs.trFused, fs.trEntries = 0, 0, 0
	fs.trInstrs, fs.trDeopts, fs.trExits = 0, 0, 0
	fs.parForkCreates = 0
	fs.spec.dead = false
	if fk.tainted {
		fs.Domains.ResetEpochCache()
		// Fork traces are exactly as clean as the fork decodes they were
		// compiled from; a discarded epoch may have decoded speculative
		// bytes, so the trace tables go with the decode cache.
		fs.dropTraces()
		fk.tainted = false
	}
	fs.Table.ForkReset()
	if tr != nil {
		if fk.log == nil {
			fk.log = trace.New(forkLogCapacity)
		}
		fk.log.Reset()
		fk.seq0 = fk.log.Seq()
		fs.Table.SetTracer(fk.log)
	} else {
		fk.log = nil
		fs.Table.SetTracer(nil)
	}
	fk.worked, fk.fault = false, nil
}

// run executes the group's quanta sequentially in ascending processor
// order — the serial backend's own order restricted to the group — and
// records the trace-ring high-water mark after each member so commit can
// re-emit every member's events at its canonical global position.
func (fk *epochFork) run(quantum vtime.Cycles) {
	for j := range fk.members {
		w, f := fk.sys.stepCPU(fk.cpus[j], quantum)
		fk.worked = fk.worked || w
		if fk.log != nil {
			fk.segs[j] = fk.log.Seq()
		}
		if f != nil {
			fk.fault = f
			return
		}
		if fk.sys.specDead() {
			return
		}
	}
}

// overflowed reports whether the fork's trace ring wrapped this epoch —
// events were lost, so faithful re-emission is impossible.
func (fk *epochFork) overflowed() bool {
	return fk.log != nil && fk.log.Seq()-fk.seq0 > forkLogCapacity
}

// stepParallel runs one step's quanta concurrently on host goroutines (one
// per affinity group) and commits, or falls back to serial replay. It is
// only called from Step, after the contention prologue and the
// reservation refills, so busyThisStep is already current.
func (s *System) stepParallel(quantum vtime.Cycles) (bool, *obj.Fault) {
	if len(s.forks) != len(s.CPUs) {
		s.buildForks()
	}
	s.regroup()
	groups := s.groups
	s.parEpochs++
	tr := s.Tracer()
	active := s.forks[:len(groups)]

	for gi, fk := range active {
		fk.begin(s, groups[gi], tr)
	}
	var wg sync.WaitGroup
	for _, fk := range active {
		wg.Add(1)
		go func(fk *epochFork) {
			defer wg.Done()
			fk.run(quantum)
		}(fk)
	}
	wg.Wait()

	aborted := false
	reason := obj.ForkAbortNone
	for _, fk := range active {
		if fk.fault != nil || fk.sys.specDead() || fk.overflowed() {
			if !aborted && fk.fault == nil && !fk.overflowed() {
				reason = fk.sys.Table.ForkAbortReasonIs()
			}
			aborted = true
		}
	}
	if aborted {
		s.parAborts++
		switch reason {
		case obj.ForkAbortStructural:
			s.parAbortsStruct++
		case obj.ForkAbortReservation:
			s.parAbortsRes++
		default:
			s.parAbortsOther++
		}
	} else if s.forkConflicts(active) {
		s.parConflicts++
		s.bumpAffinity()
		aborted = true
	}
	if aborted {
		// Discard everything and replay on the real state: speculation
		// never touched it, so the replay IS the serial execution.
		for _, fk := range active {
			fk.tainted = true
		}
		s.parReplays++
		s.parStreak++
		if s.parCooldown > 0 && s.parStreak >= parStreakLimit {
			s.parStreak = 0
			s.parCoolLeft = s.parCooldown
			s.parCooldowns++
		}
		return s.stepSerial(quantum)
	}
	s.parStreak = 0

	// Commit in canonical group order (groups are leader-ordered and
	// pairwise disjoint, so any order yields the same bytes), accumulating
	// the epoch's descriptor write set for scoped invalidation.
	worked := false
	writes := s.cfWrites[:0]
	for gi, fk := range active {
		writes = append(writes, fk.sys.Table.ForkCommit()...)
		for j, id := range groups[gi] {
			real := s.CPUs[id]
			xc := real.xc
			*real = *fk.cpus[j]
			real.xc = xc // keep the real cache; scoped invalidation decides its fate
		}
		s.addForkStats(fk.sys)
		fk.sys.Domains.MergeEpochCache(s.Domains)
		worked = worked || fk.worked
	}
	s.cfWrites = writes
	s.scopedInvalidate(writes)
	if tr != nil {
		s.emitEpochTrace(tr, active)
	}
	s.parCommits++

	if len(s.timers) > 0 {
		if f := s.fireTimers(s.Now()); f != nil {
			return worked, f
		}
	}
	return worked, nil
}

// scopedInvalidate kills exactly the live execution caches whose pinned
// objects (process, context, domain, code, or any resolve way) appear in
// the committed epoch's descriptor write set, and counts the rest as
// survivals. Memory-byte writes never appear here — cached windows alias
// live memory, so committed bytes are coherent by construction — and
// structural events never reach a commit (they abort the epoch and bump
// the generation globally on the serial replay instead).
//
// Compiled traces ride the same scope: a descriptor write landing on a
// code object drops that object's trace table, so the next prime rebuilds
// from a fresh decode. (A cache that pins a written code object dies via
// cacheTouches anyway; the table drop closes the gap for tables no live
// cache currently references.)
func (s *System) scopedInvalidate(written []obj.Index) {
	if s.traceTabs != nil {
		for _, idx := range written {
			delete(s.traceTabs, idx)
		}
	}
	gen := s.Table.CacheGen()
	for _, cpu := range s.CPUs {
		xc := cpu.xc
		if xc == nil || xc.gen != gen || xc.proc != cpu.proc || !cpu.proc.Valid() {
			continue // not live: will re-prime before next use anyway
		}
		if cacheTouches(xc, written) {
			xc.invalidate()
			s.parScopedInv++
		} else {
			s.parSurvivals++
		}
	}
}

// cacheTouches reports whether any committed descriptor write lands on an
// object the cache pins. Both sets are tiny (a cache pins at most 4 +
// resolveWays objects), so the nested scan beats building an index.
func cacheTouches(xc *execCache, written []obj.Index) bool {
	for _, idx := range written {
		if idx == xc.proc.Index || idx == xc.ctx.Index ||
			idx == xc.dom.Index || idx == xc.code.Index {
			return true
		}
		for _, e := range xc.res {
			if e.win != nil && e.ad.Index == idx {
				return true
			}
		}
	}
	return false
}

// emitEpochTrace replays every member's private event segment into the real
// log in ascending processor order — the serial backend's emission order.
// Within a group the segments were recorded in member order (run()), and
// across groups disjointness makes the serial order the canonical choice.
func (s *System) emitEpochTrace(tr *trace.Log, active []*epochFork) {
	for id := range s.CPUs {
		fk := active[s.groupOf[id]]
		if fk.log == nil {
			continue
		}
		j := 0
		for fk.members[j] != id {
			j++
		}
		lo := fk.seq0
		if j > 0 {
			lo = fk.segs[j-1]
		}
		for _, e := range fk.log.Events()[lo-fk.seq0 : fk.segs[j]-fk.seq0] {
			tr.Emit(e.Kind, e.Obj, e.Arg, e.Aux)
		}
	}
}

// affKey canonicalises a processor pair into one affinity-map key.
func affKey(a, b int) int {
	if a > b {
		a, b = b, a
	}
	return a*maxParallelCPUs + b
}

// regroup decays the affinity scores and rebuilds the epoch's processor
// partition: connected components of the positive-score pair graph, via
// union-find with the smallest member as each component's root. The
// resulting groups are leader-ordered with ascending members, so the
// partition is a pure function of the score set — identical across runs.
// A partition that differs from the previous epoch's counts as a regroup.
func (s *System) regroup() {
	if s.affinity == nil {
		s.affinity = make(map[int]int)
	}
	for k, v := range s.affinity {
		if v <= 1 {
			delete(s.affinity, k)
		} else {
			s.affinity[k] = v - 1
		}
	}
	n := len(s.CPUs)
	if cap(s.ufScratch) < n {
		s.ufScratch = make([]int, n)
		s.groupOf = make([]int, n)
	}
	uf := s.ufScratch[:n]
	for i := range uf {
		uf[i] = i
	}
	find := func(x int) int {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	for k := range s.affinity {
		a, b := k/maxParallelCPUs, k%maxParallelCPUs
		if a >= n || b >= n {
			continue
		}
		ra, rb := find(a), find(b)
		if ra == rb {
			continue
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		// Linking the larger root under the smaller keeps every root the
		// minimum of its component, so the final partition is independent
		// of the map's iteration order.
		uf[rb] = ra
	}
	groupOf := s.groupOf[:n]
	s.groups = s.groups[:0]
	for i := 0; i < n; i++ {
		if r := find(i); r == i {
			groupOf[i] = len(s.groups)
			s.groups = append(s.groups, []int{i})
		} else {
			gi := groupOf[r]
			groupOf[i] = gi
			s.groups[gi] = append(s.groups[gi], i)
		}
	}
	if len(s.prevGroupOf) == n {
		for i, g := range groupOf {
			if s.prevGroupOf[i] != g {
				s.parRegroups++
				break
			}
		}
	}
	s.prevGroupOf = append(s.prevGroupOf[:0], groupOf...)
}

// bumpAffinity records this epoch's cross-group conflicts: every processor
// pair spanning a conflicting group pair gets a saturating score boost.
// Scores only feed the grouping heuristic — which affects host scheduling,
// never simulated bytes — so the order pairs arrive in is immaterial
// (boost-and-saturate is commutative).
func (s *System) bumpAffinity() {
	for _, pr := range s.cfPairs {
		for _, a := range s.groups[pr[0]] {
			for _, b := range s.groups[pr[1]] {
				k := affKey(a, b)
				v := s.affinity[k] + affinityBoost
				if v > affinityMax {
					v = affinityMax
				}
				s.affinity[k] = v
			}
		}
	}
}

// touchers is the per-slot (or per-page) mask pair of the conflict
// detector: which groups read it, which wrote it.
type touchers struct{ readers, writers uint64 }

// forkConflicts reports whether any two groups' epoch footprints overlap in
// a way serial execution could have observed: a descriptor slot or memory
// byte written by one group and touched by any other. Conflicting group
// pairs are collected into s.cfPairs for the affinity map. Its scratch maps
// and the refinement id slice are pooled on the System — an epoch's
// conflict check runs once per Step, and allocating the maps fresh each
// time dominated the commit path's host cost.
func (s *System) forkConflicts(active []*epochFork) bool {
	if s.cfDescs == nil {
		s.cfDescs = make(map[obj.Index]touchers)
		s.cfPages = make(map[uint32]touchers)
	}
	descs, pages := s.cfDescs, s.cfPages
	clear(descs)
	clear(pages)
	s.cfPairs = s.cfPairs[:0]
	for i, fk := range active {
		bit := uint64(1) << i
		tab := fk.sys.Table
		for _, idx := range tab.ForkTouched() {
			t := descs[idx]
			t.readers |= bit
			descs[idx] = t
		}
		for _, idx := range tab.ForkDescWrites() {
			t := descs[idx]
			t.writers |= bit
			descs[idx] = t
		}
		r, w := tab.ForkPages()
		for _, p := range r {
			t := pages[p]
			t.readers |= bit
			pages[p] = t
		}
		for _, p := range w {
			t := pages[p]
			t.writers |= bit
			pages[p] = t
		}
	}
	conflicting := func(t touchers) bool {
		w := t.writers
		if w == 0 {
			return false
		}
		// Two writers, or a writer plus any other toucher.
		return w&(w-1) != 0 || (t.readers|t.writers)&^w != 0
	}
	// collect records every writer/other-toucher group pair of one slot.
	collect := func(t touchers) {
		all := t.readers | t.writers
		for wm := t.writers; wm != 0; wm &= wm - 1 {
			i := bits.TrailingZeros64(wm)
			for om := all &^ (uint64(1) << i); om != 0; om &= om - 1 {
				j := bits.TrailingZeros64(om)
				if j < i && t.writers&(uint64(1)<<j) != 0 {
					continue // writer-writer pair already collected as (j, i)
				}
				s.cfPairs = append(s.cfPairs, [2]int{i, j})
			}
		}
	}
	for _, t := range descs {
		if conflicting(t) {
			collect(t)
		}
	}
	for p, t := range pages {
		if !conflicting(t) {
			continue
		}
		// Page-level overlap: refine to bytes. First-fit allocation packs
		// unrelated objects into adjacent bytes, so groups working on
		// disjoint objects routinely share a boundary page without
		// sharing a byte.
		ids := s.cfIDs[:0]
		all := t.readers | t.writers
		for i := range active {
			if all&(1<<i) != 0 {
				ids = append(ids, i)
			}
		}
		s.cfIDs = ids
		for ai := 0; ai < len(ids); ai++ {
			ra, wa := active[ids[ai]].sys.Table.ForkPageFootprint(p)
			for bi := ai + 1; bi < len(ids); bi++ {
				rb, wb := active[ids[bi]].sys.Table.ForkPageFootprint(p)
				for k := range wa {
					if wa[k]&(rb[k]|wb[k]) != 0 || wb[k]&(ra[k]|wa[k]) != 0 {
						s.cfPairs = append(s.cfPairs, [2]int{ids[ai], ids[bi]})
						break
					}
				}
			}
		}
	}
	return len(s.cfPairs) > 0
}

// ParStats counts parallel-backend outcomes per epoch (one Step on the
// parallel path is one epoch). Replays = Conflicts + Aborts; Epochs =
// Commits + Replays; Aborts = AbortsStructural + AbortsReservation +
// AbortsOther.
type ParStats struct {
	Epochs    uint64 // steps attempted on the parallel backend
	Commits   uint64 // epochs whose forks committed
	Conflicts uint64 // epochs discarded for footprint overlap
	Aborts    uint64 // epochs discarded for structural ops/faults/daemons

	// The abort split: epochs killed by an inherently unreservable
	// structural operation (destroy, swap, non-generic create), by a
	// reservation running out of pre-granted capacity mid-epoch, and by
	// everything else (faults, native bodies, trace-ring overflow).
	AbortsStructural  uint64
	AbortsReservation uint64
	AbortsOther       uint64

	Replays   uint64 // serial replays (= Conflicts + Aborts)
	Cooldowns uint64 // abort backoffs entered (parStreakLimit discards in a row)

	// Footprint-scoped invalidation outcomes over committed epochs.
	ScopedInvalidations uint64 // live caches killed by a committed descriptor write
	CacheSurvivals      uint64 // live caches that survived a commit intact

	// Regroups counts epochs whose affinity partition differed from the
	// previous epoch's — conflict pressure reshaping the schedule.
	Regroups uint64

	// Deprecated: no effect; the epoch pipeline was removed. Kept so
	// perfbench/ compiles; remove with the next benchmark change. The
	// three counters always read zero.
	PipeLaunches uint64
	PipeCommits  uint64
	PipeDrops    uint64

	// ForkCreates counts objects created from CPU reservations — in-fork
	// committed or consumed serially.
	ForkCreates uint64

	// WindowDeclines counts execution-cache windows a fork refused
	// because the extent straddles a shadow chunk boundary (see
	// mem.Memory.Window); each one sends that access to the slow path.
	WindowDeclines uint64
}

// ParStats reports the parallel backend's counters; all zero when the
// backend is disabled.
func (s *System) ParStats() ParStats {
	return ParStats{
		Epochs:              s.parEpochs,
		Commits:             s.parCommits,
		Conflicts:           s.parConflicts,
		Aborts:              s.parAborts,
		AbortsStructural:    s.parAbortsStruct,
		AbortsReservation:   s.parAbortsRes,
		AbortsOther:         s.parAbortsOther,
		Replays:             s.parReplays,
		Cooldowns:           s.parCooldowns,
		ScopedInvalidations: s.parScopedInv,
		CacheSurvivals:      s.parSurvivals,
		Regroups:            s.parRegroups,
		ForkCreates:         s.parForkCreates,
		WindowDeclines:      s.winDeclines(),
	}
}

// winDeclines totals the fork window declines of every fork built so far.
func (s *System) winDeclines() uint64 {
	n := s.parWinDeclines
	for _, fk := range s.forks {
		n += fk.sys.Table.Memory().ForkWindowDeclines()
	}
	return n
}
