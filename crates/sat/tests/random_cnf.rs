//! Property-based differential testing of the CDCL solver against a
//! brute-force exhaustive-search reference on random small CNFs, plus
//! structured incremental-solving scenarios.

use genfv_sat::{ClauseBlock, Lit, SolveResult, Solver, SolverConfig, Var};
use proptest::prelude::*;

/// Satisfiability by exhaustive search: assignments are tried in variable
/// order, and a partial assignment is abandoned once it falsifies a clause
/// all of whose variables it covers. No propagation, no learning: it shares
/// nothing with the solver under test.
fn brute_force_sat(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
    // Each clause is decided at its highest variable.
    let mut decided_at: Vec<Vec<&[Lit]>> = vec![Vec::new(); num_vars];
    for c in clauses {
        match c.iter().map(|l| l.var().index()).max() {
            Some(v) => decided_at[v].push(c),
            None => return false, // the empty clause
        }
    }
    fn search(assignment: &mut Vec<bool>, decided_at: &[Vec<&[Lit]>]) -> bool {
        let v = assignment.len();
        if v == decided_at.len() {
            return true;
        }
        for value in [false, true] {
            assignment.push(value);
            let consistent = decided_at[v]
                .iter()
                .all(|c| c.iter().any(|l| assignment[l.var().index()] != l.is_neg()));
            if consistent && search(assignment, decided_at) {
                return true;
            }
            assignment.pop();
        }
        false
    }
    search(&mut Vec::with_capacity(num_vars), &decided_at)
}

/// Whether `clauses` entail `clause`: no model of them falsifies it.
fn implied(num_vars: usize, clauses: &[Vec<Lit>], clause: &[Lit]) -> bool {
    let mut with_negation = clauses.to_vec();
    with_negation.extend(clause.iter().map(|&l| vec![!l]));
    !brute_force_sat(num_vars, &with_negation)
}

/// Checks that a model returned by the solver actually satisfies the CNF.
fn model_satisfies(solver: &Solver, clauses: &[Vec<Lit>]) -> bool {
    clauses.iter().all(|clause| {
        clause.iter().any(|&l| {
            solver.value(l) == Some(true)
                || solver.value(l).is_none() && {
                    // Unassigned variables are unconstrained; any value works, so a
                    // clause containing one is satisfiable by extension. The solver
                    // only leaves a var unassigned if no clause forced it, in which
                    // case some other literal in this clause must already be true —
                    // except for clauses made entirely of don't-cares. Treat
                    // unassigned positively to accept such extensions.
                    true
                }
        })
    })
}

fn arb_cnf(max_vars: usize, max_clauses: usize) -> impl Strategy<Value = (usize, Vec<Vec<Lit>>)> {
    (2..=max_vars).prop_flat_map(move |nv| {
        let clause = proptest::collection::vec((0..nv, any::<bool>()), 1..=4).prop_map(
            move |lits| -> Vec<Lit> {
                lits.into_iter().map(|(v, neg)| Lit::new(Var::from_index(v), neg)).collect()
            },
        );
        proptest::collection::vec(clause, 1..=max_clauses).prop_map(move |cs| (nv, cs))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solver_agrees_with_brute_force((num_vars, clauses) in arb_cnf(8, 24)) {
        let expected = brute_force_sat(num_vars, &clauses);
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        let got = s.solve();
        prop_assert_eq!(got.is_sat(), expected, "cnf: {:?}", clauses);
        if got.is_sat() {
            prop_assert!(model_satisfies(&s, &clauses));
        }
    }

    #[test]
    fn incremental_assumption_solving_is_consistent(
        (num_vars, clauses) in arb_cnf(8, 16),
        asm_bits in proptest::collection::vec(any::<bool>(), 3),
    ) {
        // Solving with assumptions must equal solving the CNF plus the
        // assumptions as unit clauses.
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        let asm: Vec<Lit> = asm_bits
            .iter()
            .enumerate()
            .take(num_vars)
            .map(|(i, &neg)| Lit::new(Var::from_index(i), neg))
            .collect();
        let with_asm = s.solve_with_assumptions(&asm);

        let mut clauses2 = clauses.clone();
        for &a in &asm {
            clauses2.push(vec![a]);
        }
        let expected = brute_force_sat(num_vars, &clauses2);
        prop_assert_eq!(with_asm.is_sat(), expected);

        // The solver must remain usable and consistent afterwards.
        let plain = s.solve();
        prop_assert_eq!(plain.is_sat(), brute_force_sat(num_vars, &clauses));
    }

    #[test]
    fn unsat_core_is_sound(
        (num_vars, clauses) in arb_cnf(6, 12),
        asm_bits in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let mut s = Solver::new();
        for _ in 0..num_vars {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        let asm: Vec<Lit> = asm_bits
            .iter()
            .enumerate()
            .take(num_vars)
            .map(|(i, &neg)| Lit::new(Var::from_index(i), neg))
            .collect();
        if s.solve_with_assumptions(&asm) == SolveResult::Unsat {
            let core: Vec<Lit> = s.last_core().to_vec();
            // Core literals must come from the assumptions (possibly negated
            // convention: we return original polarity).
            for l in &core {
                prop_assert!(asm.contains(l), "core lit {l:?} not among assumptions");
            }
            // Re-solving under just the core must still be UNSAT (soundness
            // of the core) — unless the formula itself is UNSAT.
            if !core.is_empty() {
                let r = s.solve_with_assumptions(&core);
                prop_assert_eq!(r, SolveResult::Unsat);
            } else {
                prop_assert_eq!(s.solve(), SolveResult::Unsat);
            }
        }
    }
}

#[test]
fn php_family_unsat() {
    // Pigeonhole principle instances PHP(n+1, n) are classically hard
    // UNSAT instances that exercise learning and restarts.
    for n in 2..=6usize {
        let mut s = Solver::new();
        let mut p = vec![vec![Lit::UNDEF; n]; n + 1];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = Lit::pos(s.new_var());
            }
        }
        for row in &p {
            s.add_clause(row.clone());
        }
        for h in 0..n {
            for (i, row_i) in p.iter().enumerate() {
                for row_j in p.iter().skip(i + 1) {
                    s.add_clause([!row_i[h], !row_j[h]]);
                }
            }
        }
        assert!(s.solve().is_unsat(), "PHP({},{}) must be UNSAT", n + 1, n);
    }
}

#[test]
fn graph_coloring_k3_on_cycles() {
    // Odd cycles are not 2-colourable but are 3-colourable.
    for len in [3usize, 5, 7, 9] {
        for colors in [2usize, 3] {
            let mut s = Solver::new();
            let mut node = vec![vec![Lit::UNDEF; colors]; len];
            for row in node.iter_mut() {
                for cell in row.iter_mut() {
                    *cell = Lit::pos(s.new_var());
                }
            }
            for row in &node {
                s.add_clause(row.clone());
                for c1 in 0..colors {
                    for c2 in (c1 + 1)..colors {
                        s.add_clause([!row[c1], !row[c2]]);
                    }
                }
            }
            for i in 0..len {
                let j = (i + 1) % len;
                for (&a, &b) in node[i].iter().zip(&node[j]) {
                    s.add_clause([!a, !b]);
                }
            }
            let result = s.solve();
            if colors == 2 {
                assert!(result.is_unsat(), "odd cycle len {len} 2-colourable?");
            } else {
                assert!(result.is_sat(), "cycle len {len} must be 3-colourable");
            }
        }
    }
}

#[test]
fn incremental_strengthening_monotone() {
    // Adding clauses can only shrink the solution set: once UNSAT, always
    // UNSAT under further additions.
    let mut s = Solver::new();
    let v: Vec<Lit> = (0..6).map(|_| Lit::pos(s.new_var())).collect();
    s.add_clause([v[0], v[1]]);
    assert!(s.solve().is_sat());
    s.add_clause([!v[0]]);
    assert!(s.solve().is_sat());
    s.add_clause([!v[1]]);
    assert!(s.solve().is_unsat());
    s.add_clause([v[2], v[3]]);
    assert!(s.solve().is_unsat());
}

/// Pigeons and holes of the compaction scenario's base formula: with 6,
/// most generated scenarios reach the learnt-database size at which
/// reduction starts.
const PIGEONS: usize = 6;

/// One step of a compaction scenario: `kind` picks the operation, `lits`
/// its operands (variable picks are taken modulo the live variable count).
type Step = (u8, Vec<(usize, bool)>);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let lits = proptest::collection::vec((0..64usize, any::<bool>()), 1..=4);
    proptest::collection::vec((0u8..6, lits), 20..=50)
}

/// Variable-activity decays the compaction scenario draws from: the
/// portfolio's worker ladder, which holds the default (0.85) and
/// MiniSat's 0.95. Heuristics steer the search only; verdicts and cores
/// must not depend on them.
const VAR_DECAYS: [f64; 5] = [0.75, 0.85, 0.92, 0.95, 0.99];

/// Runs `steps` against a solver that decays variable activities by
/// `var_decay` and reduces its learnt database every few conflicts, so
/// reductions and level-0 arena compactions fall between the steps, and
/// checks every answer against brute force. The base
/// formula places `PIGEONS` pigeons in as many holes; a query that blocks
/// a hole is unsatisfiable and costs real conflicts, which is what fills
/// the learnt database. Other steps add a clause, stamp a template whose
/// unit makes the solver remove the stamped clauses it satisfies, clone
/// the solver, or solve under random assumptions (checking model or
/// core). A mark taken a third of the way in must, at the end, export
/// exactly the live learnt clauses allocated after it, each implied by the
/// formula. Returns the learnt clauses deleted.
fn run_compaction_scenario(steps: &[Step], var_decay: f64) -> u64 {
    let mut s = Solver::with_config(SolverConfig {
        var_decay,
        first_reduce: 20,
        reduce_inc: 5,
        ..SolverConfig::default()
    });
    s.new_vars(PIGEONS * PIGEONS);
    let x = |pigeon: usize, hole: usize| Lit::pos(Var::from_index(pigeon * PIGEONS + hole));
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for p in 0..PIGEONS {
        clauses.push((0..PIGEONS).map(|h| x(p, h)).collect());
    }
    for h in 0..PIGEONS {
        for p in 0..PIGEONS {
            for q in p + 1..PIGEONS {
                clauses.push(vec![!x(p, h), !x(q, h)]);
            }
        }
    }
    for c in &clauses {
        s.add_clause(c.iter().copied());
    }
    let sorted = |mut c: Vec<Lit>| {
        c.sort_unstable();
        c
    };
    let export = |s: &Solver, mark: usize| -> Vec<Vec<Lit>> {
        s.export_glue_since(mark, u32::MAX, usize::MAX).into_iter().map(sorted).collect()
    };
    let mut mark: Option<(usize, Vec<Vec<Lit>>)> = None;
    for (i, (kind, picks)) in steps.iter().enumerate() {
        if i == steps.len() / 3 {
            let m = s.clause_db_mark();
            assert!(export(&s, m).is_empty(), "a fresh mark exports nothing");
            mark = Some((m, export(&s, 0)));
        }
        let n = s.num_vars();
        let mut lits: Vec<Lit> =
            picks.iter().map(|&(v, neg)| Lit::new(Var::from_index(v % n), neg)).collect();
        match kind {
            0 if lits.len() >= 2 => {
                s.add_clause(lits.iter().copied());
                clauses.push(lits);
            }
            1 => {
                // x2 <-> x0 & x1 over a fresh window, plus one unit fact.
                let local = |i: usize, neg: bool| Lit::new(Var::from_index(i), neg);
                let mut block = ClauseBlock::new(3);
                block.push_clause(&[local(2, true), local(0, false)]);
                block.push_clause(&[local(2, true), local(1, false)]);
                block.push_clause(&[local(2, false), local(0, true), local(1, true)]);
                let (v, neg) = picks[0];
                block.push_unit(local(v % 3, neg));
                let (base, _) = s.load_template(&block);
                let shift = |l: &Lit| Lit::from_code(l.code() + 2 * base);
                clauses.extend(block.clauses().map(|c| c.iter().map(shift).collect()));
                clauses.extend(block.units().iter().map(|u| vec![shift(u)]));
            }
            2 => s = s.clone_with_config(s.config().clone()),
            _ => {
                if *kind == 3 {
                    let hole = picks[0].0 % PIGEONS;
                    lits.extend((0..PIGEONS).map(|p| !x(p, hole)));
                }
                let result = s.solve_with_assumptions(&lits);
                let mut constrained = clauses.clone();
                constrained.extend(lits.iter().map(|&a| vec![a]));
                assert_eq!(result.is_sat(), brute_force_sat(n, &constrained), "step {i}");
                if result.is_sat() {
                    assert!(constrained
                        .iter()
                        .all(|c| c.iter().any(|&l| s.value(l) == Some(true))));
                } else {
                    let core = s.last_core().to_vec();
                    assert!(core.iter().all(|l| lits.contains(l)), "core outside assumptions");
                    let mut refuted = clauses.clone();
                    refuted.extend(core.iter().map(|&a| vec![a]));
                    assert!(!brute_force_sat(n, &refuted), "core does not refute");
                }
            }
        }
    }
    if let Some((m, before)) = mark {
        let all = export(&s, 0);
        let since = export(&s, m);
        assert!(all.ends_with(&since), "post-mark clauses are the newest learnt clauses");
        // The rest were learnt before the mark: survivors, in order.
        let mut older = before.iter();
        for c in &all[..all.len() - since.len()] {
            assert!(older.any(|b| b == c), "clause {c:?} was not live at the mark");
        }
        for c in &since {
            assert!(implied(s.num_vars(), &clauses, c), "learnt clause {c:?} is not implied");
        }
    }
    s.stats().deleted_learnts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn compaction_keeps_verdicts_cores_and_marks(
        steps in arb_steps(),
        decay in (0..VAR_DECAYS.len()).prop_map(|i| VAR_DECAYS[i]),
    ) {
        run_compaction_scenario(&steps, decay);
    }
}

#[test]
fn compaction_scenario_reaches_reduction() {
    // Blocking each hole in turn refutes six pigeonhole instances, enough
    // conflicts for several reductions; a mark falls after the second.
    let steps: Vec<Step> = (0..2 * PIGEONS).map(|h| (3, vec![(h, true)])).collect();
    let deleted = run_compaction_scenario(&steps, SolverConfig::default().var_decay);
    assert!(deleted > 0, "the scenario must reduce the learnt database");
}
