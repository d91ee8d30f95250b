//! The CDCL solver proper.
//!
//! [`Solver`] implements conflict-driven clause learning in the MiniSat
//! lineage with Glucose-style learnt-clause management. See the crate-level
//! documentation for the feature list.

use crate::clause::{ClauseBlock, ClauseDb, ClauseRef};
use crate::lit::{LBool, Lit, Var};
use genfv_obs::{Obs, QueryKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found; query it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions, if any) is unsatisfiable.
    /// If assumptions were used, [`Solver::last_core`] names the culprits.
    Unsat,
    /// A resource budget (conflict or propagation limit) expired first.
    Unknown,
}

impl SolveResult {
    /// Whether the result is [`SolveResult::Sat`].
    #[inline]
    pub fn is_sat(self) -> bool {
        self == SolveResult::Sat
    }

    /// Whether the result is [`SolveResult::Unsat`].
    #[inline]
    pub fn is_unsat(self) -> bool {
        self == SolveResult::Unsat
    }
}

/// Restart scheduling discipline.
///
/// Identical CNF explored under different restart schedules can show
/// 5-10× conflict swings on parity-style obligations; portfolio racing
/// exploits that by giving each worker a different policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RestartPolicy {
    /// Luby-sequence restarts (`restart_base` × the Luby series) — the
    /// MiniSat default, robust across workloads.
    Luby,
    /// Geometric restarts: the interval starts at `restart_base` conflicts
    /// and is multiplied by `factor` after every restart. Aggressive
    /// factors near 1.0 restart often; large factors approach no-restart.
    Geometric {
        /// Multiplier applied to the restart interval after each restart
        /// (clamped to at least 1.0).
        factor: f64,
    },
}

/// Multiplicative decay applied to clause activities each conflict.
const CLAUSE_DECAY: f64 = 0.999;

/// Learnt clauses with LBD at or below this value ("glue" clauses) are
/// never deleted by `Solver::reduce_db`; imported clauses get this LBD.
const KEEP_LBD: u32 = 2;

/// Tunable solver parameters.
///
/// The restart and reduction defaults follow MiniSat 2.2 / Glucose
/// folklore. The variable decay does not: `genfv` issues many short,
/// assumption-scoped queries on one long-lived solver (incremental BMC
/// and k-induction), and MiniSat's 0.95 keeps stale activity from earlier
/// queries steering the next one for too long. Glucose starts at a much
/// faster decay for the same reason. At 0.85 the `deep_cold` benchmark
/// runs about 25% fewer conflicts per job. Decays below 0.85 save no
/// further conflicts there but hurt short budgeted queries: at 0.8 the
/// 4-bit distributivity miter of the SAT-sweeping tests needs more than
/// the default 2000-conflict sweep budget (1196 conflicts at 0.95, 1637
/// at 0.85).
///
/// Phase saving is always on; clause-activity decay and the glue LBD
/// are fixed constants.
#[derive(Clone, Debug, PartialEq)]
pub struct SolverConfig {
    /// Multiplicative decay applied to variable activities each conflict
    /// (default 0.85, see above).
    pub var_decay: f64,
    /// Base unit (in conflicts) of the restart sequence.
    pub restart_base: u64,
    /// How restart intervals grow (Luby or geometric).
    pub restart_policy: RestartPolicy,
    /// Deterministic polarity scrambling. `Some(seed)` initialises the
    /// saved polarity of every *new* variable from a hash of
    /// `(seed, var)`, and [`Solver::reconfigure`] XORs the hash bit into
    /// every *existing* polarity when the seed changes — a cheap,
    /// reproducible way to steer clones of one clause database into
    /// different search regions (the step-query variance fix).
    pub phase_jitter_seed: Option<u64>,
    /// First learnt-DB reduction happens after this many conflicts.
    pub first_reduce: u64,
    /// Increment added to the reduction interval after each reduction.
    pub reduce_inc: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            var_decay: 0.85,
            restart_base: 100,
            restart_policy: RestartPolicy::Luby,
            phase_jitter_seed: None,
            first_reduce: 2000,
            reduce_inc: 300,
        }
    }
}

/// FNV-1a fold of one `u64` into a running hash (see
/// [`Solver::problem_hash`]).
#[inline]
fn fnv_fold(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64-style hash bit used for deterministic phase jitter.
fn jitter_bit(seed: u64, index: usize) -> bool {
    let mut z = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 1 == 1
}

/// Aggregate solver statistics, cumulative across `solve` calls, plus the
/// effort of the most recent query (the `last_*` fields) — incremental
/// sessions report per-query conflict counts from these.
///
/// # `last_*` semantics
///
/// The `last_conflicts` / `last_decisions` / `last_propagations` fields
/// are **reset at solve entry** and hold, after each
/// [`Solver::solve_with_assumptions`] call returns, exactly the effort
/// that call consumed — including calls that return early because the
/// formula is already level-0 UNSAT (all three read 0 then). They are
/// *not* running totals; read them through
/// [`SolverStats::last_effort`] instead of subtracting cumulative
/// counters by hand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses deleted by DB reduction.
    pub deleted_learnts: u64,
    /// Number of `solve`/`solve_with_assumptions` calls.
    pub solves: u64,
    /// Conflicts consumed by the most recent query alone.
    pub last_conflicts: u64,
    /// Decisions consumed by the most recent query alone.
    pub last_decisions: u64,
    /// Propagations consumed by the most recent query alone.
    pub last_propagations: u64,
}

impl SolverStats {
    /// The effort consumed by the most recent query (the `last_*`
    /// fields as one snapshot). Valid immediately after any solve call;
    /// see the [`SolverStats`] docs for the reset-at-entry contract.
    pub fn last_effort(&self) -> QueryEffort {
        QueryEffort {
            conflicts: self.last_conflicts,
            decisions: self.last_decisions,
            propagations: self.last_propagations,
        }
    }

    /// Cumulative effort across all queries so far, as a snapshot.
    /// `after.effort().since(before.effort())` measures a span of calls
    /// without hand-subtracting individual counters.
    pub fn effort(&self) -> QueryEffort {
        QueryEffort {
            conflicts: self.conflicts,
            decisions: self.decisions,
            propagations: self.propagations,
        }
    }
}

genfv_obs::impl_accumulate!(SolverStats {
    add: [decisions, propagations, conflicts, restarts, deleted_learnts, solves],
    last_if solves: [last_conflicts, last_decisions, last_propagations],
});

/// Solver effort as one value: conflicts, decisions, and propagations
/// consumed by a query (or between two snapshots). Replaces the ad-hoc
/// `(u64, u64, u64)` tuples and hand-rolled baseline subtraction that
/// callers used to do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryEffort {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
}

impl QueryEffort {
    /// The effort spent between `earlier` and `self` (saturating, so a
    /// stale baseline can never underflow).
    pub fn since(self, earlier: QueryEffort) -> QueryEffort {
        QueryEffort {
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
        }
    }
}

impl std::ops::Add for QueryEffort {
    type Output = QueryEffort;
    fn add(self, rhs: QueryEffort) -> QueryEffort {
        QueryEffort {
            conflicts: self.conflicts + rhs.conflicts,
            decisions: self.decisions + rhs.decisions,
            propagations: self.propagations + rhs.propagations,
        }
    }
}

impl std::ops::AddAssign for QueryEffort {
    fn add_assign(&mut self, rhs: QueryEffort) {
        *self = *self + rhs;
    }
}

genfv_obs::impl_accumulate!(QueryEffort { add: [conflicts, decisions, propagations] });

/// A watch-list entry: a clause and a blocker literal whose truth lets
/// propagation skip it. Packed into 8 bytes: the top bit of `cref` (free,
/// see [`ClauseRef::MAX_OFFSET`]) marks a binary clause, whose blocker is
/// always its other literal, so propagation decides it from the watcher
/// alone and touches the arena only to order a reason or conflict.
#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref: u32,
    blocker: Lit,
}

impl Watcher {
    const BINARY: u32 = 1 << 31;

    #[inline]
    fn new(cref: ClauseRef, blocker: Lit, binary: bool) -> Self {
        Watcher { cref: cref.raw() | if binary { Self::BINARY } else { 0 }, blocker }
    }

    #[inline]
    fn cref(self) -> ClauseRef {
        ClauseRef::from_raw(self.cref & !Self::BINARY)
    }

    #[inline]
    fn is_binary(self) -> bool {
        self.cref & Self::BINARY != 0
    }
}

const _: () = assert!(std::mem::size_of::<Watcher>() == 8);

/// Indexed max-heap over variable activities (the VSIDS order).
#[derive(Clone, Debug, Default)]
struct VarOrder {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    index: Vec<usize>,
}

impl VarOrder {
    const ABSENT: usize = usize::MAX;

    fn grow_to(&mut self, n_vars: usize) {
        self.index.resize(n_vars, Self::ABSENT);
    }

    fn contains(&self, v: Var) -> bool {
        self.index[v.index()] != Self::ABSENT
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.index[v.index()] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop_max(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.index[top.index()] = Self::ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.index[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bumped(&mut self, v: Var, act: &[f64]) {
        if let Some(&pos) = self.index.get(v.index()) {
            if pos != Self::ABSENT {
                self.sift_up(pos, act);
            }
        }
    }

    fn sift_up(&mut self, mut pos: usize, act: &[f64]) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if act[self.heap[pos].index()] <= act[self.heap[parent].index()] {
                break;
            }
            self.swap(pos, parent);
            pos = parent;
        }
    }

    fn sift_down(&mut self, mut pos: usize, act: &[f64]) {
        loop {
            let left = 2 * pos + 1;
            let right = left + 1;
            let mut best = pos;
            if left < self.heap.len() && act[self.heap[left].index()] > act[self.heap[best].index()]
            {
                best = left;
            }
            if right < self.heap.len()
                && act[self.heap[right].index()] > act[self.heap[best].index()]
            {
                best = right;
            }
            if best == pos {
                break;
            }
            self.swap(pos, best);
            pos = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.index[self.heap[a].index()] = a;
        self.index[self.heap[b].index()] = b;
    }
}

/// A conflict-driven clause-learning SAT solver.
///
/// See the [crate documentation](crate) for an overview and example.
///
/// `Solver` is `Clone`: a clone is an independent solver over the *same*
/// clause database (problem clauses, learnt clauses, activities, saved
/// phases). Cloning a loaded solver is how the portfolio layer races
/// diverse configurations on one formula without re-encoding it — see
/// [`Solver::clone_with_config`].
#[derive(Clone, Debug)]
pub struct Solver {
    config: SolverConfig,
    db: ClauseDb,
    /// Current value per literal (indexed by [`Lit::code`]), so reading a
    /// literal's value is one load with no sign fix-up.
    vals: Vec<LBool>,
    /// Saved polarity per variable (phase saving).
    polarity: Vec<bool>,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason clause for each assigned variable (UNDEF for decisions).
    reason: Vec<ClauseRef>,
    /// Watch lists indexed by literal code.
    watches: Vec<Vec<Watcher>>,
    /// Assignment trail.
    trail: Vec<Lit>,
    /// Trail indices at which each decision level starts.
    trail_lim: Vec<usize>,
    /// Propagation queue head (index into `trail`).
    qhead: usize,
    order: VarOrder,
    var_inc: f64,
    cla_inc: f64,
    /// Scratch "seen" flags for conflict analysis.
    seen: Vec<bool>,
    /// Scratch stacks for clause minimisation.
    analyze_stack: Vec<Lit>,
    analyze_toclear: Vec<Lit>,
    /// The clause being learnt, reused across conflicts.
    learnt: Vec<Lit>,
    /// Per-decision-level stamps for counting a learnt clause's LBD.
    level_stamp: Vec<u64>,
    /// The stamp of the current LBD count.
    lbd_stamp: u64,
    /// False when the clause set is already unsatisfiable at level 0.
    ok: bool,
    /// Model captured at the last SAT answer, per literal like `vals`.
    model: Vec<LBool>,
    /// Subset of the last assumptions responsible for UNSAT.
    core: Vec<Lit>,
    stats: SolverStats,
    /// Conflicts remaining before the next restart.
    restart_budget: u64,
    /// Luby sequence position.
    luby_index: u64,
    /// Conflict count at which the next DB reduction triggers.
    next_reduce: u64,
    reductions: u64,
    /// Optional per-call conflict budget (None = unlimited).
    conflict_budget: Option<u64>,
    /// Running FNV-1a hash over every problem clause / template block
    /// added so far, folded *before* level-0 simplification so two
    /// solvers that received the same addition sequence hash identically
    /// even when learnt units made their simplified clause sets diverge.
    /// `(num_vars, problem_hash)` identifies a solver's problem-clause
    /// prefix; the persistent clause pool keys exported base-direction
    /// clauses on it.
    problem_hash: u64,
    /// Cooperative cancellation: when the flag is set, the current solve
    /// call returns [`SolveResult::Unknown`] at its next conflict. Shared
    /// between portfolio workers so the first winner stops the losers.
    interrupt: Option<Arc<AtomicBool>>,
    /// Observability handle (spans + per-solve profiling). Defaults to
    /// off (one branch per solve); clones share the parent's handle so
    /// portfolio workers record into the same trace.
    obs: Obs,
    /// What kind of query the next solve call answers, for span naming
    /// and histogram keying. Sessions update this per query.
    obs_kind: QueryKind,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates a solver with default configuration.
    pub fn new() -> Self {
        Solver::with_config(SolverConfig::default())
    }

    /// Creates a solver with an explicit configuration.
    pub fn with_config(config: SolverConfig) -> Self {
        let next_reduce = config.first_reduce;
        Solver {
            config,
            db: ClauseDb::new(),
            vals: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            watches: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: VarOrder::default(),
            var_inc: 1.0,
            cla_inc: 1.0,
            seen: Vec::new(),
            analyze_stack: Vec::new(),
            analyze_toclear: Vec::new(),
            learnt: Vec::new(),
            level_stamp: Vec::new(),
            lbd_stamp: 0,
            ok: true,
            model: Vec::new(),
            core: Vec::new(),
            stats: SolverStats::default(),
            restart_budget: 0,
            luby_index: 0,
            next_reduce,
            reductions: 0,
            conflict_budget: None,
            problem_hash: 0xcbf2_9ce4_8422_2325,
            interrupt: None,
            obs: Obs::off(),
            obs_kind: QueryKind::default(),
        }
    }

    /// Creates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.num_vars());
        let polarity = match self.config.phase_jitter_seed {
            Some(seed) => jitter_bit(seed, v.index()),
            None => false,
        };
        self.vals.extend([LBool::Undef, LBool::Undef]);
        self.polarity.push(polarity);
        self.activity.push(0.0);
        self.level.push(0);
        self.reason.push(ClauseRef::UNDEF);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.seen.push(false);
        self.order.grow_to(self.num_vars());
        self.order.insert(v, &self.activity);
        v
    }

    /// Creates `n` fresh variables at once and returns the index of the
    /// first — the window allocator behind [`Solver::load_template`].
    pub fn new_vars(&mut self, n: usize) -> usize {
        let base = self.num_vars();
        self.vals.reserve(2 * n);
        self.polarity.reserve(n);
        self.activity.reserve(n);
        self.level.reserve(n);
        self.reason.reserve(n);
        self.watches.reserve(2 * n);
        self.seen.reserve(n);
        for _ in 0..n {
            self.new_var();
        }
        base
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of live problem clauses.
    pub fn num_clauses(&self) -> usize {
        self.db.live_problem()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Limits the *next* solve call to at most `conflicts` conflicts; the
    /// call returns [`SolveResult::Unknown`] if the budget expires. The
    /// budget is consumed by the next call and then cleared.
    pub fn set_conflict_budget(&mut self, conflicts: u64) {
        self.conflict_budget = Some(conflicts);
    }

    /// The active configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Installs an observability handle: every subsequent solve call
    /// opens a `solve.<kind>` span and reports its per-query effort,
    /// and template loads report their clause counts. Passing
    /// `Obs::off()` (the default) disables all of it at one branch per
    /// call.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The installed observability handle (off by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Labels subsequent solve calls with a [`QueryKind`] (span name
    /// `solve.<kind>`, histogram key). Sessions set this per query;
    /// portfolio workers set it per race stage.
    pub fn set_query_kind(&mut self, kind: QueryKind) {
        self.obs_kind = kind;
    }

    /// The [`QueryKind`] the next solve call will be labelled with.
    pub fn query_kind(&self) -> QueryKind {
        self.obs_kind
    }

    /// Installs (or clears) a cooperative cancellation flag: while the
    /// flag reads `true`, any in-flight solve call returns
    /// [`SolveResult::Unknown`] at its next conflict. The portfolio layer
    /// shares one flag across all workers racing a query so the first
    /// winner stops the losers.
    pub fn set_interrupt(&mut self, flag: Option<Arc<AtomicBool>>) {
        self.interrupt = flag;
    }

    /// Swaps the configuration of a live solver. All clause-database
    /// state (problem clauses, learnt clauses, activities, phases)
    /// survives; only the search heuristics change. If the new
    /// configuration carries a [`SolverConfig::phase_jitter_seed`]
    /// different from the current one, the jitter hash bit is XORed into
    /// every saved polarity — a deterministic scramble that steers the
    /// next search into a different region of the same formula.
    pub fn reconfigure(&mut self, config: SolverConfig) {
        if let Some(seed) = config.phase_jitter_seed {
            if self.config.phase_jitter_seed != Some(seed) {
                for (v, p) in self.polarity.iter_mut().enumerate() {
                    *p ^= jitter_bit(seed, v);
                }
            }
        }
        self.config = config;
    }

    /// Clones the loaded clause database into an independent solver with
    /// a different configuration — the portfolio's per-worker setup step.
    /// The clause arena is one flat `Vec` (compacted at level 0, so dead
    /// learnt clauses are not copied) and clones as a single memcpy; the
    /// watch lists and per-variable arrays copy alongside. No
    /// re-encoding, and the clone's learnt clauses / saved phases start
    /// exactly where the parent's are.
    pub fn clone_with_config(&self, config: SolverConfig) -> Solver {
        let mut clone = self.clone();
        clone.interrupt = None; // cancellation wiring is per-worker, not inherited
        clone.reconfigure(config);
        // No capacity trimming needed here: `Vec::clone` allocates
        // exactly `len`, so the clone is already tight — the parent's
        // watch-list and arena slack is never inherited. See
        // [`Solver::shrink_to_fit`] for the in-place case.
        clone
    }

    /// A position marker into the sequence of learnt clauses. Clauses
    /// learnt after the mark (e.g. during a portfolio race) can be
    /// enumerated with [`Solver::export_glue_since`], on this solver or
    /// on a clone taken after the mark, across any number of arena
    /// compactions.
    pub fn clause_db_mark(&self) -> usize {
        self.db.mark()
    }

    /// Copies out every live learnt clause allocated at or after `mark`
    /// whose literal-block distance is at most `max_lbd` (the "glue"
    /// clauses worth sharing between portfolio workers), up to `limit`
    /// clauses.
    pub fn export_glue_since(&self, mark: usize, max_lbd: u32, limit: usize) -> Vec<Vec<Lit>> {
        self.db
            .learnt_since(mark)
            .filter(|&c| self.db.lbd(c) <= max_lbd)
            .take(limit)
            .map(|c| self.db.lits(c).to_vec())
            .collect()
    }

    /// Imports a clause learnt by another solver over the *same* variable
    /// numbering (a clone from the same parent). The clause is recorded
    /// as a glue learnt clause (LBD = `KEEP_LBD`, so database reduction
    /// never deletes it). Sound whenever the clause is a logical
    /// consequence of the shared problem clauses — which CDCL-learnt
    /// clauses always are, independent of the assumptions in force when
    /// they were derived.
    ///
    /// Returns `false` if the clause set is now unsatisfiable at level 0.
    pub fn import_learnt(&mut self, lits: &[Lit]) -> bool {
        self.add_clause_with(lits.iter().copied(), true, KEEP_LBD)
    }

    fn restart_interval(&self) -> u64 {
        match self.config.restart_policy {
            RestartPolicy::Luby => luby(self.luby_index) * self.config.restart_base,
            RestartPolicy::Geometric { factor } => {
                let f = factor.max(1.0).powi(self.luby_index.min(512) as i32);
                ((self.config.restart_base.max(1) as f64) * f).min(1e18) as u64
            }
        }
    }

    #[inline]
    fn interrupted(&self) -> bool {
        self.interrupt.as_ref().is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// Adds a clause (disjunction of `lits`).
    ///
    /// Returns `false` if the clause set is now known to be unsatisfiable at
    /// decision level 0 (further solving is pointless but harmless).
    ///
    /// Duplicated literals are merged and tautologies (`x ∨ ¬x`) are dropped.
    pub fn add_clause<I>(&mut self, lits: I) -> bool
    where
        I: IntoIterator<Item = Lit>,
    {
        self.add_clause_with(lits, false, 0)
    }

    /// Shared implementation of [`Solver::add_clause`] (problem clauses)
    /// and [`Solver::import_learnt`] (clauses learnt by a sibling clone).
    fn add_clause_with<I>(&mut self, lits: I, learnt: bool, lbd: u32) -> bool
    where
        I: IntoIterator<Item = Lit>,
    {
        debug_assert_eq!(self.decision_level(), 0, "clauses must be added at level 0");
        if !self.ok {
            return false;
        }
        let mut ls: Vec<Lit> = lits.into_iter().collect();
        ls.sort_unstable();
        ls.dedup();
        if !learnt {
            // Fold the canonical (sorted, deduplicated) clause into the
            // problem hash before any value-dependent simplification:
            // solvers that received the same addition sequence must hash
            // identically even when imported learnt units made their
            // *simplified* clause sets diverge.
            let mut h = fnv_fold(self.problem_hash, ls.len() as u64);
            for &l in &ls {
                h = fnv_fold(h, l.code() as u64);
            }
            self.problem_hash = h;
        }
        // Tautology / level-0 simplification.
        let mut simplified: Vec<Lit> = Vec::with_capacity(ls.len());
        let mut i = 0;
        while i < ls.len() {
            let l = ls[i];
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: x and ¬x adjacent after sort
            }
            match self.lit_value(l) {
                LBool::True => return true, // satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => simplified.push(l),
            }
            i += 1;
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(simplified[0], ClauseRef::UNDEF);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                let cref = self.db.alloc(simplified, learnt, lbd);
                self.attach(cref);
                true
            }
        }
    }

    /// Instantiates a relocatable [`ClauseBlock`]: allocates a fresh
    /// window of `block.num_vars()` solver variables and stamps every
    /// clause of the block with a single per-literal offset add
    /// (`code + 2·base`) — no sorting, no deduplication, no per-clause
    /// simplification walk. Returns `(base, ok)` where `base` is the index
    /// of the window's first variable and `ok` mirrors
    /// [`Solver::add_clause`]'s contract (`false` once the clause set is
    /// unsatisfiable at level 0).
    ///
    /// The block's unit facts are enqueued *after* every clause is
    /// attached, then resolved by one propagation pass; if propagation
    /// conflicts, the solver is marked unsatisfiable. When units were
    /// present, stamped clauses they satisfied at level 0 are swept out
    /// again through [`Solver::remove_clause`] — they can never propagate
    /// and would only slow the watch lists down.
    ///
    /// # Panics
    /// Must be called at decision level 0 (debug-asserted), like clause
    /// addition.
    pub fn load_template(&mut self, block: &ClauseBlock) -> (usize, bool) {
        debug_assert_eq!(self.decision_level(), 0, "templates load at level 0");
        // A cheap block summary keeps the problem hash O(1) per stamp
        // while still distinguishing different templates and positions.
        let mut h = fnv_fold(self.problem_hash, block.num_vars() as u64);
        h = fnv_fold(h, block.num_clauses() as u64);
        h = fnv_fold(h, block.num_lits() as u64);
        h = fnv_fold(h, block.units().len() as u64);
        self.problem_hash = h;
        self.obs.record_template_load(block.num_clauses() as u64);
        let base = self.new_vars(block.num_vars() as usize);
        if !self.ok {
            return (base, false);
        }
        let offset = 2 * base;
        let mut stamped: Vec<ClauseRef> = Vec::with_capacity(block.num_clauses());
        for clause in block.clauses() {
            let mapped = clause.iter().map(|l| Lit::from_code(l.code() + offset));
            let cref = self.db.alloc(mapped, false, 0);
            self.attach(cref);
            stamped.push(cref);
        }
        let mut had_units = false;
        for &u in block.units() {
            let l = Lit::from_code(u.code() + offset);
            match self.lit_value(l) {
                LBool::True => {}
                LBool::False => {
                    self.ok = false;
                    return (base, false);
                }
                LBool::Undef => {
                    self.unchecked_enqueue(l, ClauseRef::UNDEF);
                    had_units = true;
                }
            }
        }
        if had_units {
            self.ok = self.propagate().is_none();
            if !self.ok {
                return (base, false);
            }
            for cref in stamped {
                let satisfied =
                    self.db.lits(cref).iter().any(|&l| self.lit_value(l) == LBool::True);
                if satisfied && !self.is_locked(cref) {
                    self.remove_clause(cref);
                }
            }
            self.maybe_compact();
        }
        (base, true)
    }

    /// Detaches `cref` from its two watch lists and marks it deleted.
    /// Each detach is a single found-index scan ended by `swap_remove`
    /// (early exit at the hit) instead of a full-list `retain` walk. The
    /// clause's words are reclaimed by the next level-0 compaction.
    pub fn remove_clause(&mut self, cref: ClauseRef) {
        self.detach(cref);
        self.db.delete(cref);
    }

    /// Solves the current formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On [`SolveResult::Unsat`], [`Solver::last_core`] returns the subset of
    /// `assumptions` that participated in the refutation.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        self.core.clear();
        // `value` answers only for the model of *this* call.
        self.model.clear();
        // `last_*` contract: reset at solve entry, so after *any* return
        // path they hold exactly this call's effort (see `SolverStats`).
        let start_decisions = self.stats.decisions;
        let start_propagations = self.stats.propagations;
        let _span = self.obs.span(self.obs_kind.solve_span());
        let obs_t0 = self.obs.now_us();
        if !self.ok {
            self.stats.last_conflicts = 0;
            self.stats.last_decisions = 0;
            self.stats.last_propagations = 0;
            self.record_solve_obs(obs_t0);
            return SolveResult::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);

        let budget = self.conflict_budget.take();
        let start_conflicts = self.stats.conflicts;
        self.luby_index = 0;
        self.restart_budget = self.restart_interval();

        let result = loop {
            if let Some(confl) = self.propagate() {
                // Conflict.
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    break SolveResult::Unsat;
                }
                let (bt_level, lbd) = self.analyze(confl);
                self.cancel_until(bt_level);
                self.record_learnt(lbd);
                self.decay_activities();

                if let Some(max) = budget {
                    if self.stats.conflicts - start_conflicts >= max {
                        self.cancel_until(0);
                        break SolveResult::Unknown;
                    }
                }
                if self.interrupted() {
                    self.cancel_until(0);
                    break SolveResult::Unknown;
                }
                if self.restart_budget > 0 {
                    self.restart_budget -= 1;
                }
            } else {
                // No conflict.
                if self.restart_budget == 0 {
                    self.stats.restarts += 1;
                    self.luby_index += 1;
                    self.restart_budget = self.restart_interval();
                    self.cancel_until(0);
                    self.maybe_compact();
                    continue;
                }
                if self.stats.conflicts >= self.next_reduce
                    && self.db.live_learnt() > self.num_clauses().max(100)
                {
                    self.reduce_db();
                }
                // Extend with assumptions, then decide.
                match self.pick_next(assumptions) {
                    Decide::Assumed => continue,
                    Decide::Decision(lit) => {
                        self.stats.decisions += 1;
                        self.new_decision_level();
                        self.unchecked_enqueue(lit, ClauseRef::UNDEF);
                    }
                    Decide::AssumptionConflict(p) => {
                        self.analyze_final(p);
                        break SolveResult::Unsat;
                    }
                    Decide::AllAssigned => {
                        self.model.clone_from(&self.vals);
                        break SolveResult::Sat;
                    }
                }
            }
        };
        self.cancel_until(0);
        self.maybe_compact();
        self.stats.last_conflicts = self.stats.conflicts - start_conflicts;
        self.stats.last_decisions = self.stats.decisions - start_decisions;
        self.stats.last_propagations = self.stats.propagations - start_propagations;
        self.record_solve_obs(obs_t0);
        result
    }

    /// Per-solve profiling hook: feed this call's effort deltas and the
    /// learnt-DB size into the per-kind metric histograms.
    fn record_solve_obs(&self, obs_t0: u64) {
        if self.obs.is_enabled() {
            self.obs.record_solve(
                self.obs_kind,
                self.obs.now_us().saturating_sub(obs_t0),
                self.stats.last_conflicts,
                self.stats.last_decisions,
                self.stats.last_propagations,
                self.db.live_learnt() as u64,
            );
        }
    }

    /// The value of `lit` in the most recent satisfying model.
    ///
    /// Returns `None` if the variable was irrelevant (left unassigned) or if
    /// the last solve did not end in [`SolveResult::Sat`].
    pub fn value(&self, lit: Lit) -> Option<bool> {
        self.model.get(lit.code()).copied().unwrap_or(LBool::Undef).to_option()
    }

    /// The subset of the last call's assumptions that caused UNSAT
    /// (a "core over assumptions"). Empty if the formula is unsatisfiable
    /// even without assumptions.
    pub fn last_core(&self) -> &[Lit] {
        &self.core
    }

    /// Overwrites the assumption core reported by [`Solver::last_core`].
    ///
    /// The cube-and-conquer scheduler proves a query UNSAT by refuting
    /// every cube and merging the per-cube cores (restricted to the
    /// original assumptions); the merged core is then installed on the
    /// surviving solver so callers see the usual core-over-assumptions
    /// contract.
    pub fn set_last_core(&mut self, core: Vec<Lit>) {
        self.core = core;
    }

    /// Running FNV-1a hash over the problem clauses added so far (clauses
    /// in canonical order, folded before level-0 simplification, plus a
    /// summary per loaded template block). Together with
    /// [`Solver::num_vars`] this identifies the solver's problem-clause
    /// prefix: two solvers with equal `(num_vars, problem_hash)` received
    /// the same additions in the same order (w.h.p.), so clauses learnt
    /// by one are sound in the other.
    pub fn problem_hash(&self) -> u64 {
        self.problem_hash
    }

    /// The VSIDS activity of a variable (for cube-variable selection).
    pub fn activity(&self, v: Var) -> f64 {
        self.activity[v.index()]
    }

    /// Whether `v` is currently unassigned at decision level 0.
    pub fn is_unassigned(&self, v: Var) -> bool {
        self.vals[Lit::pos(v).code()] == LBool::Undef
    }

    /// Failed-literal probe: pushes a fresh decision level, assumes `lit`,
    /// and unit-propagates. Returns the number of literals the assumption
    /// forced (itself included), or `None` if propagation conflicts — a
    /// failed literal, meaning `!lit` is implied. The trail is restored
    /// before returning either way; the caller stays at its level.
    ///
    /// Used by the cube splitter's lookahead scoring. Must be called with
    /// no conflicting assignment pending and only on unassigned literals.
    pub fn probe_lit(&mut self, lit: Lit) -> Option<usize> {
        debug_assert_eq!(self.lit_value(lit), LBool::Undef);
        let level = self.decision_level();
        let mark = self.trail.len();
        self.new_decision_level();
        self.unchecked_enqueue(lit, ClauseRef::UNDEF);
        let conflict = self.propagate().is_some();
        let forced = self.trail.len() - mark;
        self.cancel_until(level);
        if conflict {
            None
        } else {
            Some(forced)
        }
    }

    /// Installs `assumptions` as pseudo-decisions (one level each, like
    /// the solve loop) and propagates. Returns `false` if an assumption
    /// is falsified or propagation conflicts — the caller must then
    /// [`Solver::backtrack_to_root`] and fall back to a plain solve.
    /// On `true`, the solver is left at the elevated level so the cube
    /// splitter can probe candidate literals *under* the assumptions.
    pub(crate) fn push_assumptions(&mut self, assumptions: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        for &p in assumptions {
            match self.lit_value(p) {
                LBool::True => self.new_decision_level(),
                LBool::False => return false,
                LBool::Undef => {
                    self.new_decision_level();
                    self.unchecked_enqueue(p, ClauseRef::UNDEF);
                    if self.propagate().is_some() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Undoes [`Solver::push_assumptions`] (and any probe levels on top).
    pub(crate) fn backtrack_to_root(&mut self) {
        self.cancel_until(0);
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    #[inline]
    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.vals[l.code()]
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn attach(&mut self, cref: ClauseRef) {
        let lits = self.db.lits(cref);
        let (l0, l1, binary) = (lits[0], lits[1], lits.len() == 2);
        self.watches[(!l0).code()].push(Watcher::new(cref, l1, binary));
        self.watches[(!l1).code()].push(Watcher::new(cref, l0, binary));
    }

    fn unchecked_enqueue(&mut self, p: Lit, from: ClauseRef) {
        debug_assert_eq!(self.lit_value(p), LBool::Undef);
        self.vals[p.code()] = LBool::True;
        self.vals[(!p).code()] = LBool::False;
        let v = p.var().index();
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = from;
        self.trail.push(p);
    }

    /// Unit propagation. Returns the conflicting clause, if any.
    ///
    /// A clause that becomes a reason or a conflict leaves here with its
    /// falsified watched literal at position 1, so a reason's implied
    /// literal sits at position 0: `analyze`, `lit_redundant`,
    /// `analyze_final` and `is_locked` read reasons that way. Binary
    /// clauses are reordered only then; otherwise their watchers never
    /// touch the arena.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;

            // Take the watch list out to sidestep aliasing; put back after.
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut conflict: Option<ClauseRef> = None;
            let mut i = 0;
            let mut j = 0;

            'watches: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Fast path: blocker already true.
                let blocker_value = self.vals[w.blocker.code()];
                if blocker_value == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref();
                if w.is_binary() {
                    // The blocker is the other literal: unit or conflict.
                    ws[j] = w;
                    j += 1;
                    let lits = self.db.lits_mut(cref);
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    if blocker_value == LBool::False {
                        conflict = Some(cref);
                        break;
                    }
                    self.unchecked_enqueue(w.blocker, cref);
                    continue;
                }
                // Normalise: watched literal being falsified must be lits[1].
                let lits = self.db.lits_mut(cref);
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                let first_value = self.vals[first.code()];
                let w_new = Watcher::new(cref, first, false);
                if first != w.blocker && first_value == LBool::True {
                    ws[j] = w_new;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let lk = lits[k];
                    if self.vals[lk.code()] != LBool::False {
                        lits.swap(1, k);
                        self.watches[(!lk).code()].push(w_new);
                        continue 'watches; // watcher migrated; do not keep
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[j] = w_new;
                j += 1;
                if first_value == LBool::False {
                    conflict = Some(cref);
                    break;
                }
                self.unchecked_enqueue(first, cref);
            }
            if conflict.is_some() {
                // Keep the watchers not visited yet.
                while i < ws.len() {
                    ws[j] = ws[i];
                    i += 1;
                    j += 1;
                }
                self.qhead = self.trail.len();
            }
            ws.truncate(j);
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Leaves the learnt clause in
    /// `self.learnt` with the asserting literal first and returns
    /// `(backtrack_level, lbd)`.
    fn analyze(&mut self, confl: ClauseRef) -> (usize, u32) {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::UNDEF);
        let mut path_count = 0u32;
        let mut p = Lit::UNDEF;
        let mut index = self.trail.len();
        let mut confl = confl;
        let level_now = self.decision_level();

        loop {
            debug_assert_ne!(confl, ClauseRef::UNDEF);
            if self.db.is_learnt(confl) && self.db.bump_activity(confl, self.cla_inc) > 1e20 {
                self.rescale_clause_activities();
            }
            let start = if p == Lit::UNDEF { 0 } else { 1 };
            for &q in &self.db.lits(confl)[start..] {
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    bump_var_activity(
                        &mut self.activity,
                        &mut self.var_inc,
                        &mut self.order,
                        q.var(),
                    );
                    self.seen[v] = true;
                    if self.level[v] as usize >= level_now {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal on the trail to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            p = self.trail[index];
            confl = self.reason[p.var().index()];
            self.seen[p.var().index()] = false;
            path_count -= 1;
            if path_count == 0 {
                break;
            }
        }
        learnt[0] = !p;

        // Conflict-clause minimisation (recursive, with reason expansion),
        // compacting the kept literals in place.
        self.analyze_toclear.clear();
        self.analyze_toclear.extend_from_slice(&learnt);
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            if self.reason[l.var().index()] == ClauseRef::UNDEF || !self.lit_redundant(l) {
                learnt[kept] = l;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        for &l in &self.analyze_toclear {
            self.seen[l.var().index()] = false;
        }

        // Find backtrack level & put a literal of that level in position 1.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };

        // LBD = number of distinct decision levels in the clause, counted
        // by stamping each level (all are at most the current one).
        self.lbd_stamp += 1;
        if self.level_stamp.len() <= level_now {
            self.level_stamp.resize(level_now + 1, 0);
        }
        let mut lbd = 0;
        for l in &learnt {
            let stamp = &mut self.level_stamp[self.level[l.var().index()] as usize];
            if *stamp != self.lbd_stamp {
                *stamp = self.lbd_stamp;
                lbd += 1;
            }
        }

        self.learnt = learnt;
        (bt_level, lbd)
    }

    /// Is `l` implied by the rest of the current learnt clause (self-subsumed)?
    fn lit_redundant(&mut self, l: Lit) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(l);
        let top = self.analyze_toclear.len();
        while let Some(q) = self.analyze_stack.pop() {
            let reason = self.reason[q.var().index()];
            debug_assert_ne!(reason, ClauseRef::UNDEF);
            for &p in &self.db.lits(reason)[1..] {
                let v = p.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    if self.reason[v] != ClauseRef::UNDEF {
                        self.seen[v] = true;
                        self.analyze_stack.push(p);
                        self.analyze_toclear.push(p);
                    } else {
                        // Hit a decision not already in the clause: not redundant.
                        for &cl in &self.analyze_toclear[top..] {
                            self.seen[cl.var().index()] = false;
                        }
                        self.analyze_toclear.truncate(top);
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Computes the assumption core when assumption `failed` is already
    /// false under the current (assumption-only) trail. Decisions start
    /// only once every assumption is placed, so each reasonless literal
    /// above level 0 here is an assumption and joins the core as is.
    fn analyze_final(&mut self, failed: Lit) {
        self.core.clear();
        self.core.push(failed);
        if self.decision_level() == 0 {
            return;
        }
        let p = failed;
        self.seen[p.var().index()] = true;
        let bottom = self.trail_lim[0];
        for i in (bottom..self.trail.len()).rev() {
            let x = self.trail[i];
            let v = x.var().index();
            if self.seen[v] {
                let reason = self.reason[v];
                if reason == ClauseRef::UNDEF {
                    debug_assert!(self.level[v] > 0);
                    if x != p {
                        self.core.push(x);
                    }
                } else {
                    for &q in &self.db.lits(reason)[1..] {
                        if self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
                self.seen[v] = false;
            }
        }
        self.seen[p.var().index()] = false;
    }

    /// Stores the clause [`Solver::analyze`] left in `self.learnt` and
    /// asserts its first literal.
    fn record_learnt(&mut self, lbd: u32) {
        let asserting = self.learnt[0];
        if self.learnt.len() == 1 {
            self.unchecked_enqueue(asserting, ClauseRef::UNDEF);
        } else {
            let cref = self.db.alloc(self.learnt.iter().copied(), true, lbd);
            self.attach(cref);
            self.db.bump_activity(cref, self.cla_inc);
            self.unchecked_enqueue(asserting, cref);
        }
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let bottom = self.trail_lim[level];
        for i in (bottom..self.trail.len()).rev() {
            let l = self.trail[i];
            self.vals[l.code()] = LBool::Undef;
            self.vals[(!l).code()] = LBool::Undef;
            self.polarity[l.var().index()] = l.is_pos();
            self.order.insert(l.var(), &self.activity);
        }
        self.trail.truncate(bottom);
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    fn pick_next(&mut self, assumptions: &[Lit]) -> Decide {
        // Install assumptions as pseudo-decisions first.
        while self.decision_level() < assumptions.len() {
            let p = assumptions[self.decision_level()];
            match self.lit_value(p) {
                LBool::True => {
                    // Already satisfied: dedicate an empty level to keep the
                    // level/assumption correspondence intact.
                    self.new_decision_level();
                }
                LBool::False => return Decide::AssumptionConflict(p),
                LBool::Undef => {
                    self.new_decision_level();
                    self.unchecked_enqueue(p, ClauseRef::UNDEF);
                    return Decide::Assumed;
                }
            }
        }
        // Regular VSIDS decision.
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.vals[Lit::pos(v).code()] == LBool::Undef {
                let lit = Lit::new(v, !self.polarity[v.index()]);
                return Decide::Decision(lit);
            }
        }
        Decide::AllAssigned
    }

    fn decay_activities(&mut self) {
        self.var_inc /= self.config.var_decay;
        self.cla_inc /= CLAUSE_DECAY;
    }

    fn rescale_clause_activities(&mut self) {
        self.db.rescale_activities(1e-20);
        self.cla_inc *= 1e-20;
    }

    /// Is `cref` currently the reason for its first literal's assignment?
    fn is_locked(&self, cref: ClauseRef) -> bool {
        let l0 = self.db.lits(cref)[0];
        self.reason[l0.var().index()] == cref && self.lit_value(l0) == LBool::True
    }

    /// Deletes roughly half of the learnt clauses, worst (highest-LBD,
    /// least-active) first; glue clauses (LBD at most `KEEP_LBD`), binary
    /// clauses and locked clauses survive.
    fn reduce_db(&mut self) {
        self.reductions += 1;
        self.next_reduce = self.stats.conflicts
            + self.config.first_reduce
            + self.reductions * self.config.reduce_inc;

        let db = &self.db;
        let mut refs: Vec<ClauseRef> = db.learnt_refs().collect();
        refs.sort_by(|&a, &b| {
            db.lbd(b).cmp(&db.lbd(a)).then(
                db.activity(a).partial_cmp(&db.activity(b)).unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let target = refs.len() / 2;
        let mut deleted = 0usize;
        for cref in refs {
            if deleted >= target {
                break;
            }
            if self.db.lbd(cref) <= KEEP_LBD
                || self.db.lits(cref).len() == 2
                || self.is_locked(cref)
            {
                continue;
            }
            self.remove_clause(cref);
            deleted += 1;
        }
        self.stats.deleted_learnts += deleted as u64;
    }

    /// Compacts the clause arena once deleted clauses hold a fifth of it,
    /// relocating every watcher and every reason on the trail. Runs at
    /// decision level 0 only, where no conflict analysis holds a handle;
    /// reasons of unassigned variables are never read, so they may stay
    /// stale.
    fn maybe_compact(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.db.wants_compaction() {
            return;
        }
        let reloc = self.db.compact();
        for ws in &mut self.watches {
            for w in ws.iter_mut() {
                let moved = reloc.get(w.cref()).expect("watched clauses are live");
                *w = Watcher::new(moved, w.blocker, w.is_binary());
            }
        }
        for &l in &self.trail {
            let reason = &mut self.reason[l.var().index()];
            if *reason != ClauseRef::UNDEF {
                *reason = reloc.get(*reason).unwrap_or(ClauseRef::UNDEF);
            }
        }
    }

    fn detach(&mut self, cref: ClauseRef) {
        let lits = self.db.lits(cref);
        let (l0, l1) = (lits[0], lits[1]);
        Self::unwatch(&mut self.watches[(!l0).code()], cref);
        Self::unwatch(&mut self.watches[(!l1).code()], cref);
    }

    /// Removes one watcher for `cref` by found-index `swap_remove`: the
    /// scan stops at the first hit and moves a single element, where the
    /// previous `retain` walked (and compacted) the entire list twice per
    /// detach. Watcher order is irrelevant to propagation correctness.
    fn unwatch(ws: &mut Vec<Watcher>, cref: ClauseRef) {
        if let Some(pos) = ws.iter().position(|w| w.cref() == cref) {
            ws.swap_remove(pos);
        }
    }

    /// Trims excess capacity from the watch lists, the clause arena, and
    /// the scratch buffers of a *long-lived* solver whose live data
    /// shrank in place (learnt-DB reductions, [`Solver::remove_clause`]
    /// sweeps, watch migration). Clones never need this: `Vec::clone`
    /// allocates exactly `len`, so [`Solver::clone_with_config`] workers
    /// start tight by construction.
    pub fn shrink_to_fit(&mut self) {
        for ws in &mut self.watches {
            ws.shrink_to_fit();
        }
        self.watches.shrink_to_fit();
        self.db.shrink_to_fit();
        self.trail.shrink_to_fit();
        self.analyze_stack.shrink_to_fit();
        self.analyze_toclear.shrink_to_fit();
        self.core.shrink_to_fit();
    }
}

/// Bumps `v`'s VSIDS activity, rescaling every activity on overflow. Takes
/// the three fields it touches so conflict analysis can call it while it
/// reads a clause out of the arena.
fn bump_var_activity(activity: &mut [f64], var_inc: &mut f64, order: &mut VarOrder, v: Var) {
    activity[v.index()] += *var_inc;
    if activity[v.index()] > 1e100 {
        for a in activity.iter_mut() {
            *a *= 1e-100;
        }
        *var_inc *= 1e-100;
    }
    order.bumped(v, activity);
}

enum Decide {
    /// An assumption literal was enqueued; propagate before deciding more.
    Assumed,
    /// A regular decision literal.
    Decision(Lit),
    /// The carried assumption literal is already falsified.
    AssumptionConflict(Lit),
    /// Every variable is assigned: the formula is satisfied.
    AllAssigned,
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index i, and its size.
    let mut size = 1u64;
    let mut seq = 0u64;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(solver.new_var())).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause([v[0]]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(v[0]), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause([v[0]]);
        s.add_clause([!v[0]]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause([v[0]]);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[1], v[2]]);
        s.add_clause([!v[2], v[3]]);
        assert!(s.solve().is_sat());
        for &l in &v {
            assert_eq!(s.value(l), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: var p_{i,h} = pigeon i in hole h.
        let mut s = Solver::new();
        let mut p = [[Lit::UNDEF; 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = Lit::pos(s.new_var());
            }
        }
        for row in &p {
            s.add_clause([row[0], row[1]]);
        }
        for (i, row_i) in p.iter().enumerate() {
            for row_j in &p[i + 1..] {
                for (&a, &b) in row_i.iter().zip(row_j) {
                    s.add_clause([!a, !b]);
                }
            }
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn xor_chain_sat_with_parity() {
        // x0 ⊕ x1 = 1, x1 ⊕ x2 = 1, x0 ⊕ x2 = 0 is satisfiable.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor1 = |s: &mut Solver, a: Lit, b: Lit| {
            s.add_clause([a, b]);
            s.add_clause([!a, !b]);
        };
        let xor0 = |s: &mut Solver, a: Lit, b: Lit| {
            s.add_clause([a, !b]);
            s.add_clause([!a, b]);
        };
        xor1(&mut s, v[0], v[1]);
        xor1(&mut s, v[1], v[2]);
        xor0(&mut s, v[0], v[2]);
        assert!(s.solve().is_sat());
        let m: Vec<bool> = v.iter().map(|&l| s.value(l).unwrap()).collect();
        assert_ne!(m[0], m[1]);
        assert_ne!(m[1], m[2]);
        assert_eq!(m[0], m[2]);
    }

    #[test]
    fn xor_chain_unsat_odd_parity() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor1 = |s: &mut Solver, a: Lit, b: Lit| {
            s.add_clause([a, b]);
            s.add_clause([!a, !b]);
        };
        xor1(&mut s, v[0], v[1]);
        xor1(&mut s, v[1], v[2]);
        xor1(&mut s, v[0], v[2]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn assumptions_sat_and_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([!v[0], v[1]]);
        assert!(s.solve_with_assumptions(&[v[0]]).is_sat());
        assert_eq!(s.value(v[1]), Some(true));
        // Incremental: same solver, contradictory assumptions.
        assert!(s.solve_with_assumptions(&[v[0], !v[1]]).is_unsat());
        // And satisfiable again without assumptions.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumption_core_is_minimal_here() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        // a ∧ b → ⊥ via: (¬a ∨ c), (¬b ∨ ¬c). d is irrelevant.
        s.add_clause([!v[0], v[2]]);
        s.add_clause([!v[1], !v[2]]);
        let asm = [v[3], v[0], v[1]];
        assert!(s.solve_with_assumptions(&asm).is_unsat());
        let core = s.last_core().to_vec();
        assert!(core.contains(&v[0]) || core.contains(&!v[0]));
        // d must not be in the core.
        assert!(!core.iter().any(|l| l.var() == v[3].var()));
    }

    #[test]
    fn last_effort_resets_at_solve_entry() {
        // Pin the `last_*` contract: reset on entry, per-call deltas on
        // exit, zeros on the early level-0-UNSAT path.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        // A query that forces at least one real conflict.
        let xor1 = |s: &mut Solver, a: Lit, b: Lit| {
            s.add_clause([a, b]);
            s.add_clause([!a, !b]);
        };
        xor1(&mut s, v[0], v[1]);
        xor1(&mut s, v[1], v[2]);
        assert!(s.solve_with_assumptions(&[v[0], v[1]]).is_unsat());
        let first = s.stats().last_effort();
        assert!(first.propagations > 0, "a refuted query must have propagated");

        // A trivially SAT follow-up must *replace* the previous deltas,
        // not accumulate onto them.
        assert!(s.solve().is_sat());
        let second = s.stats().last_effort();
        assert_eq!(second.conflicts, 0, "trivial re-solve needs no conflicts");
        assert!(second.propagations < first.propagations + second.propagations + 1);
        assert_eq!(s.stats().last_effort(), second, "snapshot is stable between solves");

        // Cumulative snapshots subtract via `since`, matching the sum of
        // the per-call deltas.
        let total = s.stats().effort();
        assert_eq!(total.since(total), QueryEffort::default());
        assert_eq!(total.since(QueryEffort::default()), total);

        // Level-0 UNSAT: the early return still resets the deltas.
        s.add_clause([v[2]]);
        s.add_clause([!v[2]]);
        assert!(s.solve().is_unsat());
        assert_eq!(s.stats().last_effort(), QueryEffort::default());
    }

    #[test]
    fn solver_obs_records_solve_spans_and_metrics() {
        use genfv_obs::{Counter, ObsConfig, Phase};
        let obs = Obs::new(ObsConfig::Deterministic);
        let mut s = Solver::new();
        s.set_obs(obs.clone());
        s.set_query_kind(QueryKind::Base);
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        assert!(s.solve().is_sat());
        s.set_query_kind(QueryKind::Step);
        assert!(s.solve_with_assumptions(&[!v[0]]).is_sat());

        let events = obs.take_events();
        let names: Vec<_> =
            events.iter().filter(|e| e.phase == Phase::Begin).map(|e| e.name).collect();
        assert_eq!(names, ["solve.base", "solve.step"]);
        let metrics = obs.metrics().expect("enabled handle has metrics");
        assert_eq!(metrics.counter(Counter::Solves), 2);
        assert_eq!(metrics.latency(QueryKind::Base).count, 1);
        assert_eq!(metrics.latency(QueryKind::Step).count, 1);
        assert_eq!(metrics.latency(QueryKind::Probe).count, 0);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[0], v[1]]);
        s.add_clause([v[0], !v[0]]); // tautology: dropped
        assert!(s.solve().is_sat());
    }

    #[test]
    fn add_clause_after_solve_incremental() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1]]);
        assert!(s.solve().is_sat());
        s.add_clause([!v[0]]);
        s.add_clause([!v[1]]);
        assert!(s.solve().is_unsat());
        assert!(s.solve_with_assumptions(&[v[2]]).is_unsat());
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        // A hard instance: pigeonhole 8 into 7 with a 1-conflict budget.
        let n = 8usize;
        let mut s = Solver::new();
        let mut p = vec![vec![Lit::UNDEF; n - 1]; n];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = Lit::pos(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(row.clone());
        }
        for (i, row_i) in p.iter().enumerate() {
            for row_j in &p[i + 1..] {
                for (&a, &b) in row_i.iter().zip(row_j) {
                    s.add_clause([!a, !b]);
                }
            }
        }
        s.set_conflict_budget(1);
        assert_eq!(s.solve(), SolveResult::Unknown);
        // Without budget it completes (this is PHP(8,7): small enough).
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        s.solve();
        s.solve();
        assert_eq!(s.stats().solves, 2);
    }

    /// PHP(n, n-1) — a reliably hard-but-finishable UNSAT family.
    fn pigeonhole(s: &mut Solver, n: usize) {
        let mut p = vec![vec![Lit::UNDEF; n - 1]; n];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = Lit::pos(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(row.clone());
        }
        for (i, row_i) in p.iter().enumerate() {
            for row_j in &p[i + 1..] {
                for (&a, &b) in row_i.iter().zip(row_j) {
                    s.add_clause([!a, !b]);
                }
            }
        }
    }

    #[test]
    fn cloned_solver_is_independent_and_equivalent() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 6);
        let mut c = s.clone();
        assert!(s.solve().is_unsat());
        // The clone was taken before the parent's run: it still has to do
        // its own search, and reaches the same answer.
        assert!(c.solve().is_unsat());
        assert_eq!(s.stats().conflicts, c.stats().conflicts, "identical config, identical search");
    }

    #[test]
    fn clone_with_config_diverges_but_agrees() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 6);
        let jittered = SolverConfig {
            var_decay: 0.95,
            restart_base: 32,
            restart_policy: RestartPolicy::Geometric { factor: 1.5 },
            phase_jitter_seed: Some(7),
            ..SolverConfig::default()
        };
        let mut c = s.clone_with_config(jittered.clone());
        assert_eq!(c.config(), &jittered);
        assert!(s.solve().is_unsat());
        assert!(c.solve().is_unsat(), "different heuristics, same verdict");
    }

    #[test]
    fn phase_jitter_is_deterministic() {
        let mk = |seed| {
            let mut s = Solver::with_config(SolverConfig {
                phase_jitter_seed: Some(seed),
                ..SolverConfig::default()
            });
            let v = lits(&mut s, 8);
            s.add_clause(v.clone());
            assert!(s.solve().is_sat());
            v.iter().map(|&l| s.value(l)).collect::<Vec<_>>()
        };
        assert_eq!(mk(3), mk(3), "same seed, same model");
    }

    #[test]
    fn geometric_restarts_solve_correctly() {
        let mut s = Solver::with_config(SolverConfig {
            restart_base: 10,
            restart_policy: RestartPolicy::Geometric { factor: 1.2 },
            ..SolverConfig::default()
        });
        pigeonhole(&mut s, 6);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn interrupt_flag_stops_the_search() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 8);
        let flag = Arc::new(AtomicBool::new(true));
        s.set_interrupt(Some(flag.clone()));
        assert_eq!(s.solve(), SolveResult::Unknown, "pre-set flag cancels at first conflict");
        flag.store(false, Ordering::Relaxed);
        assert!(s.solve().is_unsat(), "cleared flag lets the search finish");
    }

    #[test]
    fn glue_export_import_roundtrip() {
        let mut a = Solver::new();
        pigeonhole(&mut a, 7);
        let mut b = a.clone();
        let mark = a.clause_db_mark();
        assert!(a.solve().is_unsat());
        let glue = a.export_glue_since(mark, 4, 1024);
        assert!(!glue.is_empty(), "a hard instance learns shareable clauses");
        for c in &glue {
            assert!(b.import_learnt(c));
        }
        // The sibling still answers correctly with the imported clauses.
        assert!(b.solve().is_unsat());
    }

    #[test]
    fn imported_glue_survives_reduction_pressure() {
        let mut a = Solver::new();
        pigeonhole(&mut a, 7);
        let mark = a.clause_db_mark();
        assert!(a.solve().is_unsat());
        let glue = a.export_glue_since(mark, 2, 16);
        let mut b = Solver::new();
        pigeonhole(&mut b, 7);
        let before = b.clause_db_mark();
        for c in &glue {
            b.import_learnt(c);
        }
        // Imported clauses are recorded as glue learnts (LBD = KEEP_LBD).
        let imported: Vec<_> = b.db.learnt_since(before).collect();
        assert_eq!(imported.len(), glue.len());
        assert!(imported.iter().all(|&c| b.db.lbd(c) <= KEEP_LBD));
    }

    /// A small template: local vars {0,1,2} with x2 ⇔ x0 ∧ x1.
    fn and_block() -> ClauseBlock {
        let mut b = ClauseBlock::new(3);
        let x0 = Lit::pos(Var::from_index(0));
        let x1 = Lit::pos(Var::from_index(1));
        let x2 = Lit::pos(Var::from_index(2));
        b.push_clause(&[!x2, x0]);
        b.push_clause(&[!x2, x1]);
        b.push_clause(&[x2, !x0, !x1]);
        b
    }

    #[test]
    fn load_template_stamps_independent_windows() {
        let mut s = Solver::new();
        let block = and_block();
        let (b0, ok0) = s.load_template(&block);
        let (b1, ok1) = s.load_template(&block);
        assert!(ok0 && ok1);
        assert_eq!(b0, 0);
        assert_eq!(b1, 3, "windows are disjoint and contiguous");
        let at = |base: usize, v: usize| Lit::pos(Var::from_index(base + v));
        // Window 0: force the AND output true — inputs must follow.
        assert!(s.solve_with_assumptions(&[at(b0, 2)]).is_sat());
        assert_eq!(s.value(at(b0, 0)), Some(true));
        assert_eq!(s.value(at(b0, 1)), Some(true));
        // Window 1 is an independent copy: its inputs stay free.
        assert!(s.solve_with_assumptions(&[at(b0, 2), !at(b1, 0)]).is_sat());
        assert_eq!(s.value(at(b1, 2)), Some(false));
    }

    #[test]
    fn load_template_units_propagate_and_conflict() {
        let mut b = and_block();
        let x2 = Lit::pos(Var::from_index(2));
        b.push_unit(x2);
        let mut s = Solver::new();
        let (base, ok) = s.load_template(&b);
        assert!(ok);
        // The unit forced the output, which propagates both inputs.
        assert!(s.solve().is_sat());
        assert_eq!(s.value(Lit::pos(Var::from_index(base))), Some(true));
        // A block whose units contradict each other poisons the solver.
        let mut c = ClauseBlock::new(1);
        let x0 = Lit::pos(Var::from_index(0));
        c.push_unit(x0);
        c.push_unit(!x0);
        let (_, ok) = s.load_template(&c);
        assert!(!ok);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn load_template_sweeps_unit_satisfied_clauses() {
        let mut b = and_block();
        let x0 = Lit::pos(Var::from_index(0));
        b.push_unit(!x0);
        let mut s = Solver::new();
        let before = s.num_clauses();
        let (base, ok) = s.load_template(&b);
        assert!(ok);
        // ¬x0 satisfies (x2 ∨ ¬x0 ∨ ¬x1) and propagates ¬x2 through
        // (¬x2 ∨ x0); the remaining attached clauses are only the ones
        // that can still propagate.
        assert!(s.num_clauses() < before + 3, "satisfied stamped clauses were swept");
        assert!(s.solve().is_sat());
        assert_eq!(s.value(Lit::pos(Var::from_index(base + 2))), Some(false));
    }

    #[test]
    fn remove_clause_detaches_from_watch_lists() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        let cref = s.db.alloc([v[0], v[1]], false, 0);
        s.attach(cref);
        assert!(s.solve_with_assumptions(&[!v[0], !v[1]]).is_unsat());
        s.remove_clause(cref);
        assert!(s.db.is_deleted(cref));
        // With the only clause gone, both negations are satisfiable —
        // and propagation never touches the dead watchers.
        assert!(s.solve_with_assumptions(&[!v[0], !v[1]]).is_sat());
        assert_eq!(s.db.arena_words(), 0, "the dead clause was compacted away");
    }

    #[test]
    fn arena_stays_within_a_multiple_of_its_live_words() {
        // Reduction every few conflicts deletes learnt clauses over and
        // over; level-0 compaction must hand their words back.
        let mut s = Solver::with_config(SolverConfig {
            first_reduce: 20,
            reduce_inc: 5,
            ..SolverConfig::default()
        });
        pigeonhole(&mut s, 8);
        for _ in 0..40 {
            s.set_conflict_budget(250);
            let result = s.solve();
            assert!(
                s.db.arena_words() <= 2 * s.db.live_words(),
                "arena {} words for {} live",
                s.db.arena_words(),
                s.db.live_words()
            );
            if result.is_unsat() {
                break;
            }
        }
        assert!(s.stats().deleted_learnts > 1000, "reduction ran many times");
    }

    #[test]
    fn shrink_to_fit_preserves_behaviour() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 6);
        let mut c = s.clone_with_config(SolverConfig::default());
        c.shrink_to_fit();
        assert!(s.solve().is_unsat());
        assert!(c.solve().is_unsat());
        assert_eq!(s.stats().conflicts, c.stats().conflicts, "shrink changes no search state");
    }

    #[test]
    fn problem_hash_tracks_additions_not_simplification() {
        let mut a = Solver::new();
        let mut b = Solver::new();
        let va = lits(&mut a, 3);
        let vb = lits(&mut b, 3);
        assert_eq!(a.problem_hash(), b.problem_hash(), "empty solvers agree");
        a.add_clause([va[0], va[1]]);
        b.add_clause([vb[0], vb[1]]);
        assert_eq!(a.problem_hash(), b.problem_hash());
        // A learnt import changes simplification state but not the hash…
        let h = b.problem_hash();
        b.import_learnt(&[vb[2]]);
        assert_eq!(b.problem_hash(), h, "learnt clauses never touch the problem hash");
        // …so the *next* identical problem clause still folds identically
        // even though b simplifies it against the learnt unit.
        a.add_clause([va[1], va[2]]);
        b.add_clause([vb[1], vb[2]]);
        assert_eq!(a.problem_hash(), b.problem_hash());
        // Different additions diverge.
        a.add_clause([!va[0]]);
        b.add_clause([!vb[1]]);
        assert_ne!(a.problem_hash(), b.problem_hash());
    }

    #[test]
    fn probe_lit_counts_propagations_and_detects_failed_literals() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        // v0 → v1 → v2, and v3 → ⊥ via (¬v3 ∨ v0)(¬v3 ∨ ¬v0).
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[1], v[2]]);
        s.add_clause([!v[3], v[0]]);
        s.add_clause([!v[3], !v[2]]);
        assert_eq!(s.probe_lit(v[0]), Some(4), "v0 forces v1, v2, and ¬v3");
        assert_eq!(s.probe_lit(v[1]), Some(3), "v1 forces v2 and ¬v3");
        assert_eq!(s.probe_lit(v[3]), None, "v3 is a failed literal");
        // The trail was fully restored: everything is still free.
        for &l in &v {
            assert!(s.is_unassigned(l.var()));
        }
        assert!(s.solve().is_sat());
    }

    #[test]
    fn set_last_core_overrides_the_reported_core() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        s.set_last_core(vec![v[0]]);
        assert_eq!(s.last_core(), &[v[0]]);
    }

    #[test]
    fn models_respect_polarity_queries() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause([!v[0]]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(v[0]), Some(false));
        assert_eq!(s.value(!v[0]), Some(true));
    }

    #[test]
    fn unsat_solve_clears_the_previous_model() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.solve_with_assumptions(&[v[0]]).is_sat());
        assert_eq!(s.value(v[0]), Some(true));
        s.add_clause([!v[0]]);
        assert!(s.solve_with_assumptions(&[v[0]]).is_unsat());
        assert_eq!(s.value(v[0]), None, "no model survives an UNSAT answer");
        assert_eq!(s.value(!v[0]), None);
    }
}
