//! Search-effort regression: deep unaided k-induction on `fifo_counters`.
//!
//! Plain k-induction to `max_k = 12` on one persistent [`ProofSession`]
//! is the shape of the `deep_cold` benchmark's jobs: many short,
//! assumption-scoped BMC and step queries on one long-lived solver. The
//! solver's search is deterministic, so the summed conflict count of the
//! whole run is a fixed number for a given solver; a heuristic change
//! that makes these queries harder shows up here as a count above the
//! ceiling, long before it shows up as benchmark noise.

use genfv_mc::{CheckConfig, ProofSession, ProveResult};

/// Ceiling on the summed conflicts of both targets. The solver's default
/// variable decay of 0.85 needs 7,236; MiniSat's 0.95 needed 12,011.
const MAX_CONFLICTS: u64 = 9000;

#[test]
fn deep_fifo_induction_stays_within_conflict_ceiling() {
    let design = genfv_designs::by_name("fifo_counters").unwrap().prepare().unwrap();
    let config = CheckConfig { max_k: 12, ..Default::default() };
    let mut session = ProofSession::new(&design.ctx, &design.ts, config);
    let mut verdicts = Vec::new();
    let mut conflicts = 0;
    for target in &design.targets {
        let result = session.prove(&target.prop);
        conflicts += result.stats().conflicts;
        verdicts.push(match result {
            ProveResult::Proven { k, .. } => format!("Proven@{k}"),
            ProveResult::StepFailure { k, .. } => format!("StepFailure@{k}"),
            other => panic!("{}: unexpected verdict {other:?}", target.name),
        });
    }
    assert_eq!(verdicts, ["Proven@1", "StepFailure@12"]);
    assert!(
        conflicts <= MAX_CONFLICTS,
        "deep induction took {conflicts} conflicts (ceiling {MAX_CONFLICTS})"
    );
}
