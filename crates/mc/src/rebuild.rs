//! Rebuild-per-query reference engine.
//!
//! This module preserves the pre-session architecture: every check builds
//! fresh [`Unroller`]s (a full re-bit-blast plus brand-new solvers that
//! must re-learn everything) and asserts lemmas permanently. It exists for
//! two reasons:
//!
//! * **differential testing** — [`ProofSession`](crate::ProofSession) must
//!   return identical verdicts, depths, and counterexamples; the
//!   `session_differential` suite in `genfv-designs` pins that across the
//!   corpus;
//! * **benchmarking** — the `e8_incremental_sessions` bench binary runs
//!   the Flow-2 repair loop against both engines and reports the speedup
//!   in `BENCH_incremental.json`.
//!
//! Production code paths should use [`ProofSession`](crate::ProofSession)
//! (or the thin wrappers in [`crate::engine`], which delegate to it).
//! Select this engine through [`EngineMode::RebuildPerQuery`].

use crate::engine::{BmcResult, CheckConfig, CheckStats, Property, ProveResult};
use crate::trace::{read_symbol_cycles, Trace, TraceKind};
use crate::unroll::Unroller;
use genfv_ir::{Context, ExprRef, TransitionSystem};
use genfv_sat::SolveResult;
use std::time::Instant;

/// Which engine architecture answers solver queries.
///
/// The verdicts are identical either way (pinned by the differential
/// suite); only the work profile differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// One persistent [`ProofSession`](crate::ProofSession) per design
    /// (one bit-blast, assumption-scoped queries, retained learnt
    /// clauses). The production default.
    #[default]
    Incremental,
    /// Fresh unrollers and solvers per logical check — the reference
    /// architecture in this module.
    RebuildPerQuery,
}

fn snapshot(bb: &genfv_ir::BitBlaster) -> (u64, u64, u64) {
    let s = bb.solver().stats();
    (s.conflicts, s.decisions, s.propagations)
}

fn add_delta(stats: &mut CheckStats, bb: &genfv_ir::BitBlaster, before: (u64, u64, u64)) {
    let s = bb.solver().stats();
    stats.conflicts += s.conflicts - before.0;
    stats.decisions += s.decisions - before.1;
    stats.propagations += s.propagations - before.2;
    stats.solver_calls += 1;
}

/// Bounded model checking with a fresh unroller for the whole run and
/// permanently asserted lemmas — the pre-session [`crate::engine::bmc`].
pub fn bmc_rebuild(
    ctx: &Context,
    ts: &TransitionSystem,
    property: &Property,
    lemmas: &[ExprRef],
    depth: usize,
    config: &CheckConfig,
) -> BmcResult {
    let start = Instant::now();
    let mut stats = CheckStats::default();
    let mut unroller = Unroller::new(ctx, ts, true);
    for k in 0..=depth {
        unroller.ensure_frame(k);
        for &lemma in lemmas {
            let l = unroller.lit_at(k, lemma);
            unroller.blaster_mut().assert_lit(l);
        }
        let bad = {
            let ok = unroller.lit_at(k, property.ok);
            !ok
        };
        if let Some(b) = config.conflict_budget {
            unroller.blaster_mut().solver_mut().set_conflict_budget(b);
        }
        let before = snapshot(unroller.blaster());
        let res = unroller.blaster_mut().solve_with_assumptions(&[bad]);
        add_delta(&mut stats, unroller.blaster(), before);
        match res {
            SolveResult::Sat => {
                let cycles =
                    read_symbol_cycles(ctx, ts, unroller.blaster(), &unroller.frames()[..=k]);
                let trace = Trace::from_symbol_cycles(
                    ctx,
                    ts,
                    &property.name,
                    TraceKind::CounterexampleFromReset,
                    &cycles,
                );
                stats.duration = start.elapsed();
                return BmcResult::Falsified { at: k, trace, stats };
            }
            SolveResult::Unsat => {}
            SolveResult::Unknown => {
                // Budget exhausted: report what we know (clean so far).
                // At k = 0 nothing is known, yet this still reads
                // `Clean { depth: 0 }`: `BmcResult` has no "unknown"
                // shape, and changing it is left to a later change.
                stats.duration = start.elapsed();
                return BmcResult::Clean { depth: k.saturating_sub(1), stats };
            }
        }
    }
    stats.duration = start.elapsed();
    BmcResult::Clean { depth, stats }
}

/// K-induction with two fresh unrollers (base and step) per proof attempt
/// and permanently asserted lemmas — the pre-session
/// [`crate::engine::KInduction::prove`].
pub fn prove_rebuild(
    ctx: &Context,
    ts: &TransitionSystem,
    property: &Property,
    lemmas: &[ExprRef],
    config: &CheckConfig,
) -> ProveResult {
    let start = Instant::now();
    let mut stats = CheckStats::default();

    let mut base = Unroller::new(ctx, ts, true);
    let mut step = Unroller::new(ctx, ts, false);
    let mut last_step_cex: Option<(usize, Trace)> = None;

    // Frame 0 of both directions carries the lemmas.
    base.ensure_frame(0);
    step.ensure_frame(0);
    for &lemma in lemmas {
        let l = base.lit_at(0, lemma);
        base.blaster_mut().assert_lit(l);
        let l = step.lit_at(0, lemma);
        step.blaster_mut().assert_lit(l);
    }

    for k in 1..=config.max_k {
        // --- base case: no violation in cycles 0..k from reset -------
        base.ensure_frame(k - 1);
        for &lemma in lemmas {
            let l = base.lit_at(k - 1, lemma);
            base.blaster_mut().assert_lit(l);
        }
        let bad_base = {
            let ok = base.lit_at(k - 1, property.ok);
            !ok
        };
        if let Some(b) = config.conflict_budget {
            base.blaster_mut().solver_mut().set_conflict_budget(b);
        }
        let before = snapshot(base.blaster());
        let res = base.blaster_mut().solve_with_assumptions(&[bad_base]);
        add_delta(&mut stats, base.blaster(), before);
        match res {
            SolveResult::Sat => {
                let cycles = read_symbol_cycles(ctx, ts, base.blaster(), &base.frames()[..k]);
                let trace = Trace::from_symbol_cycles(
                    ctx,
                    ts,
                    &property.name,
                    TraceKind::CounterexampleFromReset,
                    &cycles,
                );
                stats.duration = start.elapsed();
                return ProveResult::Falsified { at: k - 1, trace, stats };
            }
            SolveResult::Unsat => {}
            SolveResult::Unknown => {
                stats.duration = start.elapsed();
                return ProveResult::Unknown {
                    reason: format!("base-case budget exhausted at k={k}"),
                    stats,
                };
            }
        }

        // --- step case ------------------------------------------------
        step.ensure_frame(k);
        for &lemma in lemmas {
            let l = step.lit_at(k, lemma);
            step.blaster_mut().assert_lit(l);
        }
        // Property assumed at frames 0..k (asserted permanently — sound
        // because deeper iterations only extend the window).
        let ok_prev = step.lit_at(k - 1, property.ok);
        step.blaster_mut().assert_lit(ok_prev);
        if config.simple_path {
            step.assert_simple_path(k);
        }
        let bad_step = {
            let ok = step.lit_at(k, property.ok);
            !ok
        };
        if let Some(b) = config.conflict_budget {
            step.blaster_mut().solver_mut().set_conflict_budget(b);
        }
        let before = snapshot(step.blaster());
        let res = step.blaster_mut().solve_with_assumptions(&[bad_step]);
        add_delta(&mut stats, step.blaster(), before);
        match res {
            SolveResult::Unsat => {
                stats.duration = start.elapsed();
                return ProveResult::Proven { k, stats };
            }
            SolveResult::Sat => {
                let cycles = read_symbol_cycles(ctx, ts, step.blaster(), step.frames());
                let trace = Trace::from_symbol_cycles(
                    ctx,
                    ts,
                    &property.name,
                    TraceKind::InductionStep,
                    &cycles,
                );
                last_step_cex = Some((k, trace));
            }
            SolveResult::Unknown => {
                stats.duration = start.elapsed();
                return ProveResult::Unknown {
                    reason: format!("step-case budget exhausted at k={k}"),
                    stats,
                };
            }
        }
    }

    stats.duration = start.elapsed();
    match last_step_cex {
        Some((k, trace)) => ProveResult::StepFailure { k, trace, stats },
        None => ProveResult::Unknown {
            reason: "no induction depth attempted (max_k = 0?)".to_string(),
            stats,
        },
    }
}

/// Chained assume-guarantee over a property batch with rebuild-per-attempt
/// engines — the pre-session [`crate::engine::KInduction::prove_all`].
pub fn prove_all_rebuild(
    ctx: &Context,
    ts: &TransitionSystem,
    properties: &[Property],
    lemmas: &[ExprRef],
    config: &CheckConfig,
) -> Vec<ProveResult> {
    let mut results = Vec::with_capacity(properties.len());
    let mut assumed: Vec<ExprRef> = lemmas.to_vec();
    for prop in properties {
        let res = prove_rebuild(ctx, ts, prop, &assumed, config);
        if res.is_proven() {
            assumed.push(prop.ok);
        }
        results.push(res);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use genfv_ir::Context;

    fn counter(ctx: &mut Context) -> TransitionSystem {
        let c = ctx.symbol("count", 4);
        let one = ctx.constant(1, 4);
        let zero = ctx.constant(0, 4);
        let next = ctx.add(c, one);
        let mut ts = TransitionSystem::new("counter");
        ts.add_state(c, Some(zero), next);
        ts.add_signal("count", c);
        ts
    }

    #[test]
    fn rebuild_and_session_agree_on_a_counter() {
        let mut ctx = Context::new();
        let ts = counter(&mut ctx);
        let c = ctx.find_symbol("count").unwrap();
        let five = ctx.constant(5, 4);
        let lt5 = ctx.ult(c, five);
        let falsifiable = Property::new("lt5", lt5);
        let cc = ctx.eq(c, c);
        let tauto = Property::new("tauto", cc);
        let config = CheckConfig::default();

        let r = bmc_rebuild(&ctx, &ts, &falsifiable, &[], 8, &config);
        let i = crate::engine::bmc(&ctx, &ts, &falsifiable, &[], 8, &config);
        match (&r, &i) {
            (
                BmcResult::Falsified { at: ra, trace: rt, .. },
                BmcResult::Falsified { at: ia, trace: it, .. },
            ) => {
                assert_eq!(ra, ia);
                assert_eq!(rt.steps.len(), it.steps.len());
            }
            other => panic!("divergent BMC verdicts: {other:?}"),
        }

        let r = prove_rebuild(&ctx, &ts, &tauto, &[], &config);
        let prover = crate::engine::KInduction::new(&ctx, &ts, config);
        let i = prover.prove(&tauto, &[]);
        match (&r, &i) {
            (ProveResult::Proven { k: rk, .. }, ProveResult::Proven { k: ik, .. }) => {
                assert_eq!(rk, ik)
            }
            other => panic!("divergent prove verdicts: {other:?}"),
        }
    }
}
