//! Houdini-style joint inductive filtering.
//!
//! Individually non-inductive candidates can still be *mutually* inductive
//! (each one's step case needs the others as hypotheses). The classic
//! Houdini algorithm finds the unique maximal inductive subset of a
//! candidate conjunction: repeatedly drop every candidate falsified in
//! some step-case model until the remainder is inductive. Combined with a
//! base-case check per candidate, every survivor is a proven invariant
//! and may be used as a lemma.
//!
//! The base case needs **cycle 0 only**. A set whose members all hold at
//! reset and which is jointly 1-inductive (under the proven lemmas, which
//! hold in every reachable state) holds in every reachable state, so all
//! its members are invariants. A candidate violated at any cycle is
//! therefore in no such set, and the greatest jointly-inductive subset of
//! the candidates clean at cycle 0 equals that of the candidates clean to
//! any deeper bound — a deeper BMC base case only costs unrolling. A
//! cycle-0 query that runs out of budget establishes nothing, so its
//! candidate is dropped, as an `Unknown` step obligation is.
//!
//! ## Incremental architecture
//!
//! The whole run — every per-candidate base case and every strengthening
//! iteration — executes on **one** [`genfv_mc::ProofSession`], i.e. one
//! bit-blast and one persistent solver:
//!
//! * each candidate's frame-0 hypothesis hangs off a *selector literal*
//!   (`sel → cand@0`); the iteration assumes the selectors of the alive
//!   set, and dropping a falsified candidate just retires its selector —
//!   no re-bit-blast, and the solver keeps everything it has learnt;
//! * each iteration checks **all** frame-1 obligations in a single query
//!   through a violation-witness literal (`w → ⋁ ¬candᵢ@1`): UNSAT means
//!   the alive set is inductive (fixpoint, and the assumption core names
//!   the hypotheses that carried the proof); SAT yields a model whose
//!   false obligations are exactly the candidates to drop;
//! * the cycle-0 base cases are **deferred** until the step fixpoint
//!   stabilises and run only for its survivors; a base drop re-enters the
//!   fixpoint. The classic base-first formulation and this order converge
//!   to the same set — the greatest jointly-inductive subset of the
//!   base-clean candidates — but the deferred order never pays a base
//!   query for a candidate the fixpoint kills anyway.
//!
//! [`houdini_on_session`] runs on a caller's session, so the batch
//! validator ([`validate_batch_with_stats`]) hands Houdini the session its
//! induction attempts already loaded: every pool member's base case is
//! then a clean-depth skip. [`houdini()`] is the standalone wrapper that
//! builds its own session. Houdini's share of the session counters is
//! returned in [`HoudiniResult::session`].

use crate::design::PreparedDesign;
use crate::validate::{
    induct_on_session, label_on_session, validate_candidate, Candidate, ValidateConfig,
    ValidationOutcome,
};
use genfv_ir::{Context, ExprRef, TransitionSystem};
use genfv_mc::{
    bmc_rebuild, BmcResult, EngineMode, ProofSession, Property, SessionStats, Unroller,
};
use genfv_sat::SolveResult;
use genfv_sva::PropertyCompiler;

/// Result of a Houdini run.
#[derive(Clone, Debug, Default)]
pub struct HoudiniResult {
    /// Indices (into the input slice) of candidates in the maximal
    /// mutually-inductive subset.
    pub accepted: Vec<usize>,
    /// Number of strengthening iterations performed.
    pub iterations: usize,
    /// Solver queries Houdini itself issued (assumption-based, on the one
    /// session) — not the queries a shared session answered before it.
    pub solver_calls: usize,
    /// Houdini's share of the session counters: the difference between
    /// the session's statistics after and before the run (see
    /// [`SessionStats::since`]). [`houdini()`] owns its session and
    /// reports its totals instead, so there `session.bitblasts` is 1 for
    /// any run with candidates, however many iterations the fixpoint
    /// takes.
    pub session: SessionStats,
    /// Indices (into the input slice) of the hypotheses whose selectors
    /// appeared in the assumption core of the final fixpoint-establishing
    /// UNSAT sweep — the candidates that actually *carried* the joint
    /// induction proof. A subset of `accepted`; empty when the pool died
    /// entirely or the run used [`EngineMode::RebuildPerQuery`] (the
    /// reference engine does not track cores).
    pub carried: Vec<usize>,
}

/// Compiles every candidate onto one clone of the design (they may share
/// monitor state, which is read-only over design signals and feeds
/// nothing back, so one candidate's monitors cannot influence another's
/// verdict). Compilation must finish before any session exists so
/// monitor state unrolls with the frames.
fn compile_onto_clone(
    design: &PreparedDesign,
    candidates: &[Candidate],
) -> (Context, TransitionSystem, Vec<Result<ExprRef, String>>) {
    let mut ctx = design.ctx.clone();
    let mut ts = design.ts.clone();
    let exprs = {
        let mut pc = PropertyCompiler::new(&mut ctx, &mut ts);
        candidates
            .iter()
            .map(|cand| pc.compile(&cand.assertion).map(|c| c.ok).map_err(|e| e.to_string()))
            .collect()
    };
    (ctx, ts, exprs)
}

/// Runs Houdini over `candidates` on a clone of the design.
///
/// `proven_lemmas` are assumed throughout. Candidates that fail to compile
/// or whose cycle-0 base case is not established clean are dropped. The
/// returned indices refer to the input slice.
pub fn houdini(
    design: &PreparedDesign,
    proven_lemmas: &[ExprRef],
    candidates: &[Candidate],
    config: &ValidateConfig,
) -> HoudiniResult {
    if candidates.is_empty() {
        return HoudiniResult::default();
    }
    if config.engine == EngineMode::RebuildPerQuery {
        return houdini_rebuild(design, proven_lemmas, candidates, config);
    }
    let (ctx, ts, compiled) = compile_onto_clone(design, candidates);
    let (indices, exprs): (Vec<usize>, Vec<ExprRef>) =
        compiled.iter().enumerate().filter_map(|(i, e)| Some((i, *e.as_ref().ok()?))).unzip();

    // The one bit-blast of this run.
    let mut session = ProofSession::new(&ctx, &ts, config.check.clone());
    session.add_lemmas(proven_lemmas);
    let mut result = houdini_on_session(&mut session, &exprs);
    result.accepted.iter_mut().chain(result.carried.iter_mut()).for_each(|i| *i = indices[*i]);
    result.session = *session.stats();
    result
}

/// Runs Houdini over the compiled candidates `exprs` on an existing
/// session (whose design contains them and whose lemmas are installed).
///
/// Base cases the session already discharged — e.g. by the validation
/// gauntlet's induction attempts — are clean-depth skips. The returned
/// indices refer to `exprs`; the counters are Houdini's share of the
/// session's.
pub fn houdini_on_session(session: &mut ProofSession<'_>, exprs: &[ExprRef]) -> HoudiniResult {
    let mut result = HoudiniResult::default();
    let before = *session.stats();

    // Work order: the 2-frame step fixpoint runs *first* over every
    // candidate, and the cycle-0 base cases are only checked for fixpoint
    // survivors; any base drop re-enters the fixpoint. This converges to
    // the classic base-first answer — the final set is the greatest
    // jointly-inductive subset of the base-clean candidates, every
    // intermediate fixpoint contains it, and base verdicts are
    // per-candidate — while skipping base queries for candidates that die
    // in the fixpoint anyway.
    let mut alive: Vec<usize> = (0..exprs.len()).collect();

    // Selector-guarded hypotheses at frame 0, batched obligations at
    // frame 1.
    let mut selectors: Vec<Option<genfv_sat::Lit>> = Vec::with_capacity(exprs.len());
    let mut obligations: Vec<genfv_sat::Lit> = Vec::with_capacity(exprs.len());
    for &e in exprs {
        let sel = session.new_selector();
        session.guard_fact(sel, 0, e);
        selectors.push(Some(sel));
        obligations.push(session.literal(1, e));
    }
    let mut base_checked: Vec<bool> = vec![false; exprs.len()];

    'outer: loop {
        result.iterations += 1;
        if alive.is_empty() {
            break;
        }
        let batch: Vec<(usize, ExprRef)> = alive.iter().map(|&i| (1, exprs[i])).collect();
        let witness = session.new_violation_witness(&batch);
        let mut assumptions: Vec<genfv_sat::Lit> =
            alive.iter().map(|&i| selectors[i].expect("alive has selector")).collect();
        assumptions.push(witness);
        let res = session.solve_under(false, 1, &assumptions);
        // Each witness is for one iteration only; retire it so later
        // models are not forced to satisfy a stale disjunction.
        session.retire_selector(witness);
        match res {
            SolveResult::Unsat => {
                // Fixpoint w.r.t. the step case: every obligation holds
                // under the alive hypotheses. The assumption core names
                // the hypotheses that actually carried the proof — record
                // them (the final fixpoint's core is what gets reported).
                let core = session.last_core().to_vec();
                result.carried = alive
                    .iter()
                    .copied()
                    .filter(|&i| selectors[i].is_some_and(|s| core.contains(&s)))
                    .collect();
                // Now pay for the deferred base cases; any drop re-enters
                // the fixpoint.
                if !base_check_survivors(
                    session,
                    &mut alive,
                    &mut selectors,
                    &mut base_checked,
                    exprs,
                ) {
                    break 'outer;
                }
            }
            SolveResult::Sat => {
                // Drop every candidate falsified at frame 1 in this model
                // (standard Houdini acceleration) by flipping selectors.
                let model_false: Vec<usize> = alive
                    .iter()
                    .copied()
                    .filter(|&i| session.value(obligations[i]) == Some(false))
                    .collect();
                debug_assert!(!model_false.is_empty());
                for &i in &model_false {
                    session.retire_selector(selectors[i].take().expect("alive"));
                }
                alive.retain(|i| !model_false.contains(i));
            }
            SolveResult::Unknown => {
                // Budget pressure: fall back to per-candidate obligations
                // for this iteration, dropping any that stay unknown —
                // the rebuild loop's conservative behaviour.
                let mut dropped_any = false;
                let snapshot = alive.clone();
                for &i in &snapshot {
                    if !alive.contains(&i) {
                        continue;
                    }
                    let mut asm: Vec<genfv_sat::Lit> =
                        alive.iter().map(|&j| selectors[j].expect("alive has selector")).collect();
                    asm.push(!obligations[i]);
                    match session.solve_under(false, 1, &asm) {
                        SolveResult::Unsat => {}
                        SolveResult::Sat => {
                            let model_false: Vec<usize> = alive
                                .iter()
                                .copied()
                                .filter(|&j| session.value(obligations[j]) == Some(false))
                                .collect();
                            for &j in &model_false {
                                session.retire_selector(selectors[j].take().expect("alive"));
                            }
                            alive.retain(|j| !model_false.contains(j));
                            dropped_any = true;
                        }
                        SolveResult::Unknown => {
                            session.retire_selector(selectors[i].take().expect("alive"));
                            alive.retain(|&j| j != i);
                            dropped_any = true;
                        }
                    }
                }
                if !dropped_any
                    && !base_check_survivors(
                        session,
                        &mut alive,
                        &mut selectors,
                        &mut base_checked,
                        exprs,
                    )
                {
                    // The fixpoint closed through per-candidate queries,
                    // not a recorded batched sweep: any earlier core was
                    // computed under a since-shrunk hypothesis set.
                    result.carried.clear();
                    break 'outer;
                }
            }
        }
    }

    result.accepted = alive;
    // A base-case drop after the last recorded fixpoint can invalidate
    // core members; keep `carried` a subset of the survivors.
    result.carried.retain(|i| result.accepted.contains(i));
    result.session = session.stats().since(&before);
    result.solver_calls = result.session.solver_calls as usize;
    result
}

/// The pre-incremental Houdini loop, preserved as the rebuild-per-query
/// reference: a fresh [`Unroller`] (full re-bit-blast, brand-new solver)
/// per strengthening iteration, a standalone BMC run per candidate base
/// case, lemmas asserted rather than activated, and one solver query per
/// alive candidate per sweep. Houdini's fixpoint (the unique maximal
/// mutually-inductive subset) is canonical, so this must accept exactly
/// the sets the incremental engine accepts — the corpus differential test
/// pins that.
fn houdini_rebuild(
    design: &PreparedDesign,
    proven_lemmas: &[ExprRef],
    candidates: &[Candidate],
    config: &ValidateConfig,
) -> HoudiniResult {
    let mut result = HoudiniResult::default();
    let (ctx, ts, compiled) = compile_onto_clone(design, candidates);
    let exprs: Vec<Option<ExprRef>> = compiled.into_iter().map(Result::ok).collect();

    // Base case: a full BMC run (fresh unroller) per candidate.
    let mut alive: Vec<usize> = Vec::new();
    for (i, expr) in exprs.iter().enumerate() {
        let Some(e) = expr else { continue };
        let prop = Property::new(candidates[i].name.clone(), *e);
        result.solver_calls += 1;
        match bmc_rebuild(&ctx, &ts, &prop, proven_lemmas, config.bmc_depth, &config.check) {
            BmcResult::Clean { .. } => alive.push(i),
            BmcResult::Falsified { .. } => {}
        }
    }

    // Step fixpoint at k = 1 with a fresh unroller per iteration.
    loop {
        result.iterations += 1;
        if alive.is_empty() {
            break;
        }
        let mut unroller = Unroller::new(&ctx, &ts, false);
        unroller.ensure_frame(1);
        for &l in proven_lemmas {
            let l0 = unroller.lit_at(0, l);
            unroller.blaster_mut().assert_lit(l0);
            let l1 = unroller.lit_at(1, l);
            unroller.blaster_mut().assert_lit(l1);
        }
        let lits0: Vec<_> = alive
            .iter()
            .map(|&i| unroller.lit_at(0, exprs[i].expect("alive implies compiled")))
            .collect();
        let lits1: Vec<_> = alive
            .iter()
            .map(|&i| unroller.lit_at(1, exprs[i].expect("alive implies compiled")))
            .collect();

        let mut dropped_any = false;
        let mut still_alive = alive.clone();
        for (pos, _) in alive.iter().enumerate() {
            if !still_alive.contains(&alive[pos]) {
                continue;
            }
            let mut assumptions = Vec::with_capacity(lits0.len() + 1);
            for (p, &l0) in lits0.iter().enumerate() {
                if still_alive.contains(&alive[p]) {
                    assumptions.push(l0);
                }
            }
            assumptions.push(!lits1[pos]);
            if let Some(b) = config.check.conflict_budget {
                unroller.blaster_mut().solver_mut().set_conflict_budget(b);
            }
            result.solver_calls += 1;
            match unroller.blaster_mut().solve_with_assumptions(&assumptions) {
                SolveResult::Sat => {
                    let model_false: Vec<usize> = alive
                        .iter()
                        .enumerate()
                        .filter(|&(p, _)| {
                            still_alive.contains(&alive[p])
                                && unroller.blaster().solver().value(lits1[p]) == Some(false)
                        })
                        .map(|(_, &i)| i)
                        .collect();
                    still_alive.retain(|i| !model_false.contains(i));
                    dropped_any = true;
                }
                SolveResult::Unsat => {}
                SolveResult::Unknown => {
                    still_alive.retain(|&i| i != alive[pos]);
                    dropped_any = true;
                }
            }
        }
        alive = still_alive;
        if !dropped_any {
            break;
        }
    }

    result.accepted = alive;
    result
}

/// Runs the cycle-0 base case for every alive candidate that has not had
/// one yet (on the session's persistent base solver), retiring and
/// removing each candidate whose cycle 0 is not established clean: a
/// violation, or an `Unknown` (budget) answer. Returns whether anything
/// was dropped (in which case the step fixpoint must re-run without the
/// dropped hypotheses).
fn base_check_survivors(
    session: &mut ProofSession<'_>,
    alive: &mut Vec<usize>,
    selectors: &mut [Option<genfv_sat::Lit>],
    base_checked: &mut [bool],
    exprs: &[ExprRef],
) -> bool {
    let mut dropped = false;
    let snapshot = alive.clone();
    for &i in &snapshot {
        if base_checked[i] {
            continue;
        }
        base_checked[i] = true;
        if session.any_violation(exprs[i], 0) || session.clean_depth(exprs[i]).is_none() {
            session.retire_selector(selectors[i].take().expect("alive has selector"));
            alive.retain(|&j| j != i);
            dropped = true;
        }
    }
    dropped
}

/// Convenience: validates a batch with individual induction first, then
/// Houdini over the stragglers. Returns `(accepted_indices, outcomes)`.
pub fn validate_batch(
    design: &PreparedDesign,
    proven_lemmas: &[ExprRef],
    candidates: &[Candidate],
    config: &ValidateConfig,
    use_houdini: bool,
) -> (Vec<usize>, Vec<ValidationOutcome>) {
    let (accepted, outcomes, _) =
        validate_batch_with_stats(design, proven_lemmas, candidates, config, use_houdini);
    (accepted, outcomes)
}

/// [`validate_batch`] plus the solver-reuse statistics of the session
/// that answered it.
///
/// The whole batch runs on **one** [`ProofSession`]: every candidate is
/// compiled onto one design clone and bit-blasted once. Each compiled
/// candidate first gets its induction attempt (in input order); Houdini
/// ([`houdini_on_session`]) then runs over the proven and step-failed
/// candidates, whose cycle-0 base cases are clean-depth skips by then;
/// and only the candidates neither proves get the BMC labelling ladder
/// (see [`crate::validate`]). Individual outcomes (earliest violating
/// cycle, least proving `k`, not-inductive-alone) do not depend on which
/// candidates share the session, and the Houdini fixpoint is canonical.
/// [`EngineMode::RebuildPerQuery`] and `CheckConfig::simple_path` (whose
/// distinct-state constraints quantify over every register, batch-mates'
/// monitors included) keep one clone per candidate through
/// [`validate_candidate`].
pub fn validate_batch_with_stats(
    design: &PreparedDesign,
    proven_lemmas: &[ExprRef],
    candidates: &[Candidate],
    config: &ValidateConfig,
    use_houdini: bool,
) -> (Vec<usize>, Vec<ValidationOutcome>, SessionStats) {
    if candidates.is_empty() {
        return (Vec::new(), Vec::new(), SessionStats::default());
    }
    if config.engine == EngineMode::RebuildPerQuery || config.check.simple_path {
        let mut outcomes: Vec<ValidationOutcome> = candidates
            .iter()
            .map(|c| validate_candidate(design, proven_lemmas, c, config))
            .collect();
        let mut stats = SessionStats::default();
        let accepted = accept_with_houdini(&mut outcomes, use_houdini, |pool| {
            let _span = config.check.obs.span("flow.houdini");
            let pool: Vec<Candidate> = pool.iter().map(|&i| candidates[i].clone()).collect();
            let hres = houdini(design, proven_lemmas, &pool, config);
            stats = hres.session;
            hres.accepted
        });
        return (accepted, outcomes, stats);
    }

    let (ctx, ts, compiled) = compile_onto_clone(design, candidates);
    let mut session = ProofSession::new(&ctx, &ts, config.check.clone());
    session.add_lemmas(proven_lemmas);
    let mut outcomes: Vec<ValidationOutcome> = compiled
        .iter()
        .zip(candidates)
        .map(|(res, cand)| match res {
            Err(e) => ValidationOutcome::CompileRejected(e.clone()),
            Ok(ok) => induct_on_session(&mut session, &Property::new(cand.name.clone(), *ok)),
        })
        .collect();
    let accepted = accept_with_houdini(&mut outcomes, use_houdini, |pool| {
        let _span = config.check.obs.span("flow.houdini");
        let exprs: Vec<ExprRef> =
            pool.iter().map(|&i| *compiled[i].as_ref().expect("pool members compiled")).collect();
        houdini_on_session(&mut session, &exprs).accepted
    });
    let outcomes = outcomes
        .into_iter()
        .zip(&compiled)
        .map(|(outcome, res)| match res {
            Ok(ok) => label_on_session(&mut session, *ok, outcome, config.bmc_depth),
            Err(_) => outcome,
        })
        .collect();
    (accepted, outcomes, *session.stats())
}

/// Collects the individually proven candidates and, when `use_houdini`
/// and some candidates are parked ([`ValidationOutcome::NotInductiveAlone`],
/// provisional or labelled), runs `houdini` over the pool of proven ∪
/// parked (by index into `outcomes`): mutual induction may need the
/// proven ones as hypotheses,
/// and individually inductive members always survive Houdini, so this
/// cannot lose accepted candidates. Joint survivors are upgraded to
/// `ProvenInductive { k: 1 }`. Returns the sorted accepted indices.
fn accept_with_houdini(
    outcomes: &mut [ValidationOutcome],
    use_houdini: bool,
    houdini: impl FnOnce(&[usize]) -> Vec<usize>,
) -> Vec<usize> {
    let mut accepted: Vec<usize> =
        (0..outcomes.len()).filter(|&i| outcomes[i].is_proven()).collect();
    let parked: Vec<usize> = (0..outcomes.len())
        .filter(|&i| outcomes[i] == ValidationOutcome::NotInductiveAlone)
        .collect();
    if use_houdini && !parked.is_empty() {
        let pool: Vec<usize> = accepted.iter().chain(&parked).copied().collect();
        for pool_idx in houdini(&pool) {
            let orig = pool[pool_idx];
            if !outcomes[orig].is_proven() {
                accepted.push(orig);
                outcomes[orig] = ValidationOutcome::ProvenInductive { k: 1 };
            }
        }
    }
    accepted.sort_unstable();
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use genfv_mc::CheckConfig;
    use genfv_sva::parse_assertion;

    fn cand(text: &str) -> Candidate {
        Candidate {
            name: format!("c_{}", text.len()),
            text: text.to_string(),
            assertion: parse_assertion(text).unwrap(),
        }
    }

    /// Two counters where neither bound is inductive alone but the pair is:
    /// a and b increment in lockstep mod 4 using each other's values.
    fn mutually_inductive_design() -> PreparedDesign {
        let rtl = r#"
module pair (input clk, rst, output logic [3:0] a, b);
  always_ff @(posedge clk) begin
    if (rst) begin a <= 4'd0; b <= 4'd0; end
    else begin a <= b + 4'd1; b <= a + 4'd1; end
  end
endmodule
"#;
        PreparedDesign::new("pair", rtl, "mutual counters", &[]).unwrap()
    }

    #[test]
    fn houdini_keeps_mutually_inductive_pair() {
        let d = mutually_inductive_design();
        // a == b is inductive alone here; craft a genuinely mutual pair:
        // p1: a == b, p2: &a |-> &b. p2 needs p1.
        let cands = vec![cand("a == b"), cand("&a |-> &b")];
        let res = houdini(&d, &[], &cands, &Default::default());
        assert_eq!(res.accepted, vec![0, 1], "both survive jointly");
    }

    #[test]
    fn houdini_drops_false_members() {
        let d = mutually_inductive_design();
        let cands = vec![
            cand("a == b"),
            cand("a != b"),   // false from reset: base case kills it
            cand("a < 4'd3"), // false eventually
        ];
        let res = houdini(&d, &[], &cands, &Default::default());
        assert_eq!(res.accepted, vec![0]);
    }

    #[test]
    fn houdini_drops_non_inductive_junk_but_keeps_core() {
        let d = mutually_inductive_design();
        let cands = vec![
            cand("&a |-> &b"), // needs a==b, which is absent: dropped
        ];
        let res = houdini(&d, &[], &cands, &Default::default());
        assert!(res.accepted.is_empty(), "alone it is not inductive: {res:?}");
    }

    #[test]
    fn validate_batch_combines_individual_and_houdini() {
        let d = mutually_inductive_design();
        let cands = vec![
            cand("a == b"),          // proves alone
            cand("&a |-> &b"),       // proves only via Houdini with #0
            cand("a == b_typo_sig"), // compile reject
            cand("a != b"),          // false
        ];
        let (accepted, outcomes) = validate_batch(&d, &[], &cands, &Default::default(), true);
        assert_eq!(accepted, vec![0, 1]);
        assert!(matches!(outcomes[2], ValidationOutcome::CompileRejected(_)));
        assert!(matches!(outcomes[3], ValidationOutcome::FalseByBmc { .. }));
    }

    #[test]
    fn incremental_houdini_bitblasts_once() {
        let d = mutually_inductive_design();
        // A mix that exercises the base case, a strengthening drop, and
        // the UNSAT fixpoint — every phase on the one session.
        let cands = vec![cand("a == b"), cand("&a |-> &b"), cand("a < 4'd3")];
        let res = houdini(&d, &[], &cands, &Default::default());
        let s = res.session;
        assert_eq!(s.bitblasts, 1, "the whole run must bit-blast exactly once");
        assert!(s.solver_calls >= 2, "base cases + at least one sweep");
        assert_eq!(
            s.rebuilds_avoided,
            s.solver_calls - 1,
            "every query after the first reuses the loaded solver"
        );
        assert_eq!(res.solver_calls as u64, s.solver_calls);
        assert!(s.selectors_created >= 2, "hypothesis selectors + witnesses");
        assert!(s.clauses_retained > 0, "clause capital carried between queries");
        assert_eq!(res.accepted, vec![0, 1]);
    }

    const SYNC: &str = r#"
module sync_counters (input clk, rst, output logic [7:0] count1, count2);
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      count1 <= 8'b0;
      count2 <= 8'b0;
    end else begin
      count1++;
      count2++;
    end
  end
endmodule
"#;

    fn sync_design() -> PreparedDesign {
        PreparedDesign::new("sync_counters", SYNC, "lockstep counters", &[]).unwrap()
    }

    fn named(text: &str) -> Candidate {
        Candidate { name: text.to_string(), ..cand(text) }
    }

    #[test]
    fn validate_batch_bitblasts_once() {
        let d = sync_design();
        let cands = vec![
            named("count1 <= count2"),    // parked: inductive only jointly
            named("count2 <= count1"),    // with this one
            named("count1 != count2"),    // false
            named("count1 == phantom"),   // compile reject
            named("&count1 |-> &count2"), // parked: needs the pair
        ];
        let (accepted, outcomes, stats) =
            validate_batch_with_stats(&d, &[], &cands, &Default::default(), true);
        assert_eq!(accepted, vec![0, 1, 4], "{outcomes:?}");
        assert_eq!(stats.bitblasts, 1, "individual checks and Houdini share one session");
        assert!(stats.rebuilds_avoided > 0);
    }

    #[test]
    fn batch_matches_per_candidate_validation() {
        let d = sync_design();
        let cands = vec![
            named("count1 == count2"),
            named("count1 != count2"),
            named("count1 == phantom"),
            named("&count1 |-> &count2"),
            named("count2 == count1"),
            named("count1 < 8'd5"),
        ];
        let config = ValidateConfig::default();
        let (_, batch) = validate_batch(&d, &[], &cands, &config, false);
        let alone: Vec<ValidationOutcome> =
            cands.iter().map(|c| crate::validate_candidate(&d, &[], c, &config)).collect();
        assert_eq!(batch, alone);
    }

    #[test]
    fn batch_empty_and_single_inputs() {
        let d = sync_design();
        let config = ValidateConfig::default();
        let (accepted, outcomes, stats) = validate_batch_with_stats(&d, &[], &[], &config, true);
        assert!(accepted.is_empty() && outcomes.is_empty());
        assert_eq!(stats.bitblasts, 0, "no candidates, no session");
        let (accepted, outcomes) =
            validate_batch(&d, &[], &[named("count1 == count2")], &config, true);
        assert_eq!(accepted, vec![0]);
        assert_eq!(outcomes, vec![ValidationOutcome::ProvenInductive { k: 1 }]);
    }

    #[test]
    fn houdini_on_shared_session_reports_its_own_share() {
        let d = mutually_inductive_design();
        let cands = vec![cand("a == b"), cand("&a |-> &b")];
        let (ctx, ts, compiled) = compile_onto_clone(&d, &cands);
        let exprs: Vec<ExprRef> = compiled.into_iter().map(Result::unwrap).collect();
        let config = ValidateConfig::default();
        let mut session = ProofSession::new(&ctx, &ts, config.check.clone());
        for (i, &e) in exprs.iter().enumerate() {
            crate::validate::check_on_session(
                &mut session,
                &Property::new(cands[i].name.clone(), e),
                &config,
            );
        }
        let before = *session.stats();
        let res = houdini_on_session(&mut session, &exprs);
        let after = *session.stats();
        assert_eq!(res.accepted, vec![0, 1]);
        assert_eq!(res.session.bitblasts, 0, "the session was loaded before Houdini ran");
        assert_eq!(res.solver_calls as u64, after.solver_calls - before.solver_calls);
        assert_eq!(res.session.conflicts, after.conflicts - before.conflicts);
        assert_eq!(
            res.solver_calls, res.iterations,
            "one step sweep per iteration: every base case was a clean-depth skip"
        );
    }

    #[test]
    fn proven_candidate_runs_no_bmc_ladder() {
        let d = sync_design();
        let config = ValidateConfig::default();
        // Induction proves it at k = 1 from one base and one step query;
        // no labelling ladder follows.
        let (accepted, outcomes, stats) =
            validate_batch_with_stats(&d, &[], &[named("count1 == count2")], &config, true);
        assert_eq!(accepted, vec![0]);
        assert_eq!(outcomes, vec![ValidationOutcome::ProvenInductive { k: 1 }]);
        assert_eq!(stats.solver_calls, 2);
        // Not inductive alone: base 0..=3 and step 1..=4 of the induction
        // attempt, one Houdini sweep, then the ladder over cycles 4..=10.
        let (accepted, outcomes, stats) =
            validate_batch_with_stats(&d, &[], &[named("&count1 |-> &count2")], &config, true);
        assert!(accepted.is_empty());
        assert_eq!(outcomes, vec![ValidationOutcome::NotInductiveAlone]);
        assert_eq!(stats.solver_calls, 16);
    }

    #[test]
    fn deferred_labels_match_the_bmc_first_reference() {
        // `count1 < 8'd5` fails only at cycle 5, past max_k = 4, so its
        // induction attempt ends in a step failure and it enters Houdini's
        // pool before its ladder labels it false.
        let d = sync_design();
        let cands =
            vec![named("count1 <= count2"), named("count2 <= count1"), named("count1 < 8'd5")];
        let incremental = ValidateConfig::default();
        let rebuild = ValidateConfig::default().with_engine(EngineMode::RebuildPerQuery);
        let (acc_i, out_i) = validate_batch(&d, &[], &cands, &incremental, true);
        let (acc_r, out_r) = validate_batch(&d, &[], &cands, &rebuild, true);
        assert_eq!(out_i, out_r);
        assert_eq!(acc_i, acc_r);
        assert_eq!(acc_i, vec![0, 1]);
        assert_eq!(out_i[2], ValidationOutcome::FalseByBmc { at: 5 });
    }

    #[test]
    fn budget_expired_base_case_is_not_clean() {
        // `r` has a free initial value, so `r * r != 57` can fail at
        // cycle 0 (r = 0x15 or one of its odd-square twins) and holds from
        // cycle 1 on. Under a one-conflict budget the cycle-0 query is
        // `Unknown`, which must drop the candidate, not accept it.
        let rtl = "module hold (input clk, input [7:0] d, output logic [7:0] r, \
                   output logic [7:0] q); always_ff @(posedge clk) begin r <= 8'd0; \
                   q <= d; end endmodule";
        let d = PreparedDesign::new("hold", rtl, "free initial value", &[]).unwrap();
        let cands = vec![cand("r * r != 8'd57")];
        let plain = ValidateConfig::default();
        assert!(houdini(&d, &[], &cands, &plain).accepted.is_empty());
        let budgeted = plain
            .clone()
            .with_check(CheckConfig { conflict_budget: Some(1), ..plain.check.clone() });
        let res = houdini(&d, &[], &cands, &budgeted);
        assert!(res.accepted.is_empty(), "{res:?}");
    }

    #[test]
    fn validate_batch_without_houdini_parks_stragglers() {
        let d = mutually_inductive_design();
        let cands = vec![cand("a == b"), cand("&a |-> &b")];
        let (accepted, outcomes) = validate_batch(&d, &[], &cands, &Default::default(), false);
        assert_eq!(accepted, vec![0]);
        assert_eq!(outcomes[1], ValidationOutcome::NotInductiveAlone);
    }
}
