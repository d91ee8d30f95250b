//! Clause storage.
//!
//! Clauses live in one flat arena ([`ClauseDb`]) and are referred to by
//! [`ClauseRef`] handles, which are word offsets into it. Each clause is
//! an inline header followed by its literals, so reading a clause touches
//! one contiguous run of memory and cloning the database is a single
//! copy of the arena. Deletion is lazy; the solver compacts the arena at
//! decision level 0, moving the live clauses together in allocation order.

use crate::lit::Lit;
use std::fmt;

/// A handle to a clause stored in a [`ClauseDb`]: the word offset of its
/// header. Handles stay valid until the next compaction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClauseRef(u32);

impl ClauseRef {
    /// Sentinel meaning "no clause" (used as a reason for decisions).
    pub const UNDEF: ClauseRef = ClauseRef(u32::MAX);

    /// Largest arena offset a handle may take: the top bit is left free
    /// so the solver can pack a flag next to a handle in one word.
    pub(crate) const MAX_OFFSET: u32 = (1 << 31) - 1;

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    #[inline]
    pub(crate) fn from_raw(raw: u32) -> ClauseRef {
        ClauseRef(raw)
    }
}

impl fmt::Debug for ClauseRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ClauseRef::UNDEF {
            write!(f, "c⊥")
        } else {
            write!(f, "c{}", self.0)
        }
    }
}

/// Header layout: every clause starts with `HEADER` words, stored as
/// [`Lit`] codes so the arena stays one safe `Vec<Lit>`.
const H_FLAGS: usize = 0; // len << 2 | DELETED | LEARNT
const H_LBD: usize = 1; // literal-block distance; compaction's forwarding slot
const H_ACT_LO: usize = 2; // activity (f64 bits), low half
const H_ACT_HI: usize = 3; // activity (f64 bits), high half
const H_ORD: usize = 4; // learnt ordinal, the unit of [`ClauseDb::mark`]
const HEADER: usize = 5;

const LEARNT: u32 = 1;
const DELETED: u32 = 2;
const LEN_SHIFT: u32 = 2;

#[inline]
fn word(x: u32) -> Lit {
    Lit::from_code(x as usize)
}

#[inline]
fn raw(l: Lit) -> u32 {
    l.code() as u32
}

/// Flat arena of clauses addressed by [`ClauseRef`].
///
/// ```
/// use genfv_sat::clause::ClauseDb;
/// use genfv_sat::{Lit, Var};
///
/// let mut db = ClauseDb::new();
/// let a = Lit::pos(Var::from_index(0));
/// let b = Lit::pos(Var::from_index(1));
/// let cref = db.alloc([a, b], false, 0);
/// assert_eq!(db.lits(cref), &[a, b]);
/// let mark = db.mark();
/// let learnt = db.alloc([!a, b], true, 2);
/// assert_eq!(db.learnt_since(mark).collect::<Vec<_>>(), vec![learnt]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClauseDb {
    arena: Vec<Lit>,
    /// Learnt clauses in allocation order, deleted ones included until
    /// the next compaction.
    learnts: Vec<ClauseRef>,
    live_learnt: usize,
    live_problem: usize,
    /// Words held by deleted clauses.
    wasted: usize,
    /// Learnt clauses ever allocated (the next learnt's ordinal).
    learnt_allocs: u32,
}

impl ClauseDb {
    /// Creates an empty clause database.
    pub fn new() -> Self {
        ClauseDb::default()
    }

    /// Allocates a clause of at least two literals and returns its handle.
    ///
    /// # Panics
    /// Panics if the arena outgrows [`ClauseRef`] offsets (2³¹ words) or
    /// a learnt clause would exceed 2³² learnt allocations.
    pub fn alloc<I>(&mut self, lits: I, learnt: bool, lbd: u32) -> ClauseRef
    where
        I: IntoIterator<Item = Lit>,
    {
        let at = self.arena.len();
        let cref = ClauseRef(
            u32::try_from(at)
                .ok()
                .filter(|&o| o <= ClauseRef::MAX_OFFSET)
                .expect("clause arena exceeds 2^31 words"),
        );
        let ord = if learnt {
            let ord = self.learnt_allocs;
            self.learnt_allocs = ord.checked_add(1).expect("more than 2^32 learnt clauses");
            self.learnts.push(cref);
            self.live_learnt += 1;
            ord
        } else {
            self.live_problem += 1;
            0
        };
        self.arena.extend([word(learnt as u32), word(lbd), word(0), word(0), word(ord)]);
        self.arena.extend(lits);
        let len = self.arena.len() - at - HEADER;
        debug_assert!(len >= 2, "unit/empty clauses are not stored");
        assert!(len < 1 << (32 - LEN_SHIFT), "clause too long");
        self.arena[at + H_FLAGS] = word((len as u32) << LEN_SHIFT | learnt as u32);
        cref
    }

    #[inline]
    fn flags(&self, cref: ClauseRef) -> u32 {
        raw(self.arena[cref.index() + H_FLAGS])
    }

    /// The literals of a clause.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        let start = cref.index() + HEADER;
        let len = (self.flags(cref) >> LEN_SHIFT) as usize;
        &self.arena[start..start + len]
    }

    /// Mutable access to the literals of a clause (watch normalisation
    /// reorders them in place).
    #[inline]
    pub(crate) fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let start = cref.index() + HEADER;
        let len = (self.flags(cref) >> LEN_SHIFT) as usize;
        &mut self.arena[start..start + len]
    }

    /// Whether the clause was learnt (eligible for reduction) rather than
    /// added as a problem clause.
    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.flags(cref) & LEARNT != 0
    }

    /// Whether the clause has been deleted.
    #[inline]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.flags(cref) & DELETED != 0
    }

    /// The literal-block distance recorded for the clause; lower is better.
    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        raw(self.arena[cref.index() + H_LBD])
    }

    /// The clause's activity for learnt-clause reduction.
    #[inline]
    pub(crate) fn activity(&self, cref: ClauseRef) -> f64 {
        let h = cref.index();
        let lo = raw(self.arena[h + H_ACT_LO]) as u64;
        let hi = raw(self.arena[h + H_ACT_HI]) as u64;
        f64::from_bits(hi << 32 | lo)
    }

    #[inline]
    fn set_activity(&mut self, cref: ClauseRef, act: f64) {
        let bits = act.to_bits();
        let h = cref.index();
        self.arena[h + H_ACT_LO] = word(bits as u32);
        self.arena[h + H_ACT_HI] = word((bits >> 32) as u32);
    }

    /// Adds `inc` to a clause's activity and returns the new value.
    #[inline]
    pub(crate) fn bump_activity(&mut self, cref: ClauseRef, inc: f64) -> f64 {
        let act = self.activity(cref) + inc;
        self.set_activity(cref, act);
        act
    }

    /// Multiplies the activity of every live learnt clause by `factor`.
    pub(crate) fn rescale_activities(&mut self, factor: f64) {
        for i in 0..self.learnts.len() {
            let cref = self.learnts[i];
            if !self.is_deleted(cref) {
                let act = self.activity(cref) * factor;
                self.set_activity(cref, act);
            }
        }
    }

    /// Marks a clause deleted. Its words stay in the arena until the next
    /// compaction; the solver detaches watchers itself.
    pub fn delete(&mut self, cref: ClauseRef) {
        let flags = self.flags(cref);
        if flags & DELETED != 0 {
            return;
        }
        if flags & LEARNT != 0 {
            self.live_learnt -= 1;
        } else {
            self.live_problem -= 1;
        }
        self.wasted += HEADER + (flags >> LEN_SHIFT) as usize;
        self.arena[cref.index() + H_FLAGS] = word(flags | DELETED);
    }

    /// Number of live learnt clauses.
    #[inline]
    pub fn live_learnt(&self) -> usize {
        self.live_learnt
    }

    /// Number of live problem clauses.
    #[inline]
    pub fn live_problem(&self) -> usize {
        self.live_problem
    }

    /// Iterates over handles of all live learnt clauses, oldest first.
    pub fn learnt_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        self.learnts.iter().copied().filter(|&c| !self.is_deleted(c))
    }

    /// A position in the sequence of learnt clauses, for
    /// [`ClauseDb::learnt_since`]. Marks survive compaction, and a clone
    /// answers a mark taken on its parent.
    pub fn mark(&self) -> usize {
        self.learnt_allocs as usize
    }

    /// Iterates over the live learnt clauses allocated after `mark` was
    /// taken, oldest first.
    pub fn learnt_since(&self, mark: usize) -> impl Iterator<Item = ClauseRef> + '_ {
        let ord = |c: ClauseRef| raw(self.arena[c.index() + H_ORD]) as usize;
        let start = self.learnts.partition_point(|&c| ord(c) < mark);
        self.learnts[start..].iter().copied().filter(|&c| !self.is_deleted(c))
    }

    /// Words the arena holds, live and deleted.
    #[inline]
    pub fn arena_words(&self) -> usize {
        self.arena.len()
    }

    /// Words held by live clauses.
    #[inline]
    pub fn live_words(&self) -> usize {
        self.arena.len() - self.wasted
    }

    /// Whether deleted clauses hold enough of the arena (a fifth) that
    /// compacting it pays.
    #[inline]
    pub(crate) fn wants_compaction(&self) -> bool {
        self.wasted * 5 > self.arena.len()
    }

    /// Moves the live clauses into a fresh arena, in allocation order, and
    /// drops the deleted ones. Every handle into the old arena is stale
    /// afterwards; map it through the returned [`Relocation`].
    pub(crate) fn compact(&mut self) -> Relocation {
        let mut to = Vec::with_capacity(self.live_words());
        let mut at = 0;
        while at < self.arena.len() {
            let flags = raw(self.arena[at + H_FLAGS]);
            let size = HEADER + (flags >> LEN_SHIFT) as usize;
            if flags & DELETED == 0 {
                let moved = to.len();
                to.extend_from_slice(&self.arena[at..at + size]);
                // The old header now forwards to the new offset.
                self.arena[at + H_LBD] = word(moved as u32);
            }
            at += size;
        }
        let reloc = Relocation { old: std::mem::replace(&mut self.arena, to) };
        self.learnts.retain_mut(|c| match reloc.get(*c) {
            Some(moved) => {
                *c = moved;
                true
            }
            None => false,
        });
        self.wasted = 0;
        reloc
    }

    /// Trims excess capacity from the arena and the learnt index.
    pub fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.learnts.shrink_to_fit();
    }
}

/// Where [`ClauseDb::compact`] moved each clause: the old arena, whose
/// live headers hold their new offsets.
pub(crate) struct Relocation {
    old: Vec<Lit>,
}

impl Relocation {
    /// The new handle of a clause that survived, or `None` if it was
    /// deleted.
    pub(crate) fn get(&self, cref: ClauseRef) -> Option<ClauseRef> {
        let h = cref.index();
        if raw(self.old[h + H_FLAGS]) & DELETED != 0 {
            None
        } else {
            Some(ClauseRef(raw(self.old[h + H_LBD])))
        }
    }
}

/// A relocatable block of clauses over a private variable space
/// `0..num_vars`.
///
/// Literals inside the block are ordinary [`Lit`]s whose variables are
/// interpreted *block-locally*: variable `i` names the `i`-th slot of the
/// block, not the `i`-th solver variable. [`crate::Solver::load_template`]
/// instantiates a block by allocating a fresh window of solver variables
/// and adding `2 × base` to every literal code — the MiniSat encoding
/// (`code = 2·var + sign`) makes renaming a whole clause arena a single
/// offset add per literal, with the sign bit carried along for free.
///
/// Blocks are expected to be *pre-normalised* by their producer (the
/// template blaster in `genfv-ir`): no duplicate literals, no tautologies,
/// no constants. Instantiation therefore skips the per-clause
/// simplification walk of [`crate::Solver::add_clause`] entirely.
///
/// ```
/// use genfv_sat::{ClauseBlock, Lit, Solver, Var};
///
/// let mut block = ClauseBlock::new(2);
/// let a = Lit::pos(Var::from_index(0));
/// let b = Lit::pos(Var::from_index(1));
/// block.push_clause(&[a, b]);
/// block.push_unit(!a);
/// let mut s = Solver::new();
/// let (base, ok) = s.load_template(&block);
/// assert!(ok);
/// assert!(s.solve().is_sat());
/// // The stamped copy of `b` lives at the window offset.
/// let b0 = Lit::from_code(b.code() + 2 * base);
/// assert_eq!(s.value(b0), Some(true));
/// ```
#[derive(Clone, Debug)]
pub struct ClauseBlock {
    num_vars: u32,
    /// Flat literal arena; clause `i` occupies `lits[bounds[i]..bounds[i+1]]`.
    lits: Vec<Lit>,
    /// Clause boundaries into `lits`; always starts with 0.
    bounds: Vec<u32>,
    /// Unit facts, enqueued (and propagated) at instantiation time.
    units: Vec<Lit>,
}

/// An empty block over zero variables (every method relies on the
/// leading 0 in `bounds`, so a derived all-empty default would be
/// malformed).
impl Default for ClauseBlock {
    fn default() -> Self {
        ClauseBlock::new(0)
    }
}

impl ClauseBlock {
    /// Creates an empty block over `num_vars` local variables.
    pub fn new(num_vars: u32) -> Self {
        ClauseBlock { num_vars, lits: Vec::new(), bounds: vec![0], units: Vec::new() }
    }

    /// Number of local variables the block is defined over.
    #[inline]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of stored (non-unit) clauses.
    #[inline]
    pub fn num_clauses(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total number of literals across all stored clauses.
    #[inline]
    pub fn num_lits(&self) -> usize {
        self.lits.len()
    }

    /// The unit facts of the block.
    #[inline]
    pub fn units(&self) -> &[Lit] {
        &self.units
    }

    /// Appends a clause of block-local literals (`len >= 2`; see the type
    /// docs for the normalisation contract).
    ///
    /// # Panics
    /// Panics (debug) if the clause is shorter than 2 literals or names a
    /// variable outside `0..num_vars`.
    pub fn push_clause(&mut self, lits: &[Lit]) {
        debug_assert!(lits.len() >= 2, "unit/empty clauses go through push_unit");
        debug_assert!(lits.iter().all(|l| (l.var().index() as u32) < self.num_vars));
        self.lits.extend_from_slice(lits);
        self.bounds.push(self.lits.len() as u32);
    }

    /// Appends a unit fact over a block-local literal.
    pub fn push_unit(&mut self, lit: Lit) {
        debug_assert!((lit.var().index() as u32) < self.num_vars);
        self.units.push(lit);
    }

    /// Iterates over the stored clauses as literal slices.
    pub fn clauses(&self) -> impl Iterator<Item = &[Lit]> {
        self.bounds.windows(2).map(move |w| &self.lits[w[0] as usize..w[1] as usize])
    }

    /// Trims excess capacity (blocks are built once and then read-only).
    pub fn shrink_to_fit(&mut self) {
        self.lits.shrink_to_fit();
        self.bounds.shrink_to_fit();
        self.units.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn l(i: usize) -> Lit {
        Lit::pos(Var::from_index(i))
    }

    #[test]
    fn alloc_and_read_back() {
        let mut db = ClauseDb::new();
        let c1 = db.alloc([l(0), l(1)], false, 0);
        let c2 = db.alloc([l(1), l(2), l(3)], true, 2);
        assert_eq!(db.lits(c1), &[l(0), l(1)]);
        assert_eq!(db.lits(c2).len(), 3);
        assert!(db.is_learnt(c2));
        assert!(!db.is_learnt(c1));
        assert_eq!(db.lbd(c2), 2);
        assert_eq!(db.live_problem(), 1);
        assert_eq!(db.live_learnt(), 1);
    }

    #[test]
    fn delete_is_idempotent_and_updates_counts() {
        let mut db = ClauseDb::new();
        let c = db.alloc([l(0), l(1)], true, 1);
        db.delete(c);
        db.delete(c);
        assert!(db.is_deleted(c));
        assert_eq!(db.live_learnt(), 0);
        assert_eq!(db.live_words(), 0, "a deleted clause's words count as waste once");
    }

    #[test]
    fn learnt_refs_skips_deleted() {
        let mut db = ClauseDb::new();
        let _p = db.alloc([l(0), l(1)], false, 0);
        let a = db.alloc([l(0), l(2)], true, 1);
        let b = db.alloc([l(1), l(2)], true, 1);
        db.delete(a);
        let live: Vec<_> = db.learnt_refs().collect();
        assert_eq!(live, vec![b]);
    }

    #[test]
    fn activity_bump_and_rescale() {
        let mut db = ClauseDb::new();
        let c = db.alloc([l(0), l(1)], true, 1);
        assert_eq!(db.bump_activity(c, 1.0), 1.0);
        db.rescale_activities(0.5);
        assert!((db.activity(c) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn compaction_keeps_live_clauses_in_order() {
        let mut db = ClauseDb::new();
        let p = db.alloc([l(0), l(1), l(2)], false, 0);
        let dead = db.alloc([l(1), l(3)], true, 3);
        let kept = db.alloc([l(2), l(4)], true, 2);
        db.bump_activity(kept, 7.0);
        db.delete(dead);
        assert!(db.wants_compaction());
        let reloc = db.compact();
        assert_eq!(reloc.get(dead), None);
        let (p2, kept2) = (reloc.get(p).unwrap(), reloc.get(kept).unwrap());
        assert!(p2 < kept2);
        assert_eq!(db.lits(p2), &[l(0), l(1), l(2)]);
        assert_eq!(db.lits(kept2), &[l(2), l(4)]);
        assert_eq!((db.lbd(kept2), db.activity(kept2)), (2, 7.0));
        assert_eq!(db.learnt_refs().collect::<Vec<_>>(), vec![kept2]);
        assert_eq!(db.arena_words(), db.live_words());
    }

    #[test]
    fn marks_survive_compaction() {
        let mut db = ClauseDb::new();
        let old = db.alloc([l(0), l(1)], true, 1);
        let mark = db.mark();
        let dead = db.alloc([l(1), l(2)], true, 1);
        let fresh = db.alloc([l(2), l(3)], true, 1);
        db.delete(old);
        db.delete(dead);
        let reloc = db.compact();
        let fresh = reloc.get(fresh).unwrap();
        assert_eq!(db.learnt_since(mark).collect::<Vec<_>>(), vec![fresh]);
        assert_eq!(db.learnt_since(db.mark()).count(), 0);
    }
}
