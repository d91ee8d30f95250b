//! The generator's answers, checked without the solver: every workload's
//! designs prepare, and each bug fails exactly at its constructed cycle on
//! a from-reset replay of the unoptimized design on the simulator.

use crate::designs::{Answer, Design, Rng};
use crate::{Plan, Workload, MIN_JOBS};
use genfv_core::PreparedDesign;
use genfv_ir::{BitVecValue, Context, ExprRef, Simulator, TransitionSystem};
use genfv_sva::PropertyCompiler;

const WORKLOADS: [Workload; 3] = [Workload::GenaiCold, Workload::DeepCold, Workload::RepeatWarm];

/// Every design a few seeds of each workload submit, warm-up included.
fn sample_designs() -> Vec<Design> {
    let mut out = Vec::new();
    for workload in WORKLOADS {
        for seed in [0, 1, 0xdead_beef] {
            let plan = Plan::new(workload, seed);
            out.extend(plan.warmup().into_iter().map(|j| (*j.design).clone()));
            out.extend((0..MIN_JOBS).map(|i| (*plan.job(i).design).clone()));
        }
    }
    out
}

/// The design as elaborated (no optimization) with its targets compiled.
struct Replay {
    ctx: Context,
    ts: TransitionSystem,
    oks: Vec<ExprRef>,
}

impl Replay {
    fn new(d: &Design) -> Self {
        let modules = genfv_hdl::parse_source(&d.rtl).expect("parses");
        let mut ctx = Context::new();
        let mut ts = genfv_hdl::elaborate(&mut ctx, &modules[0]).expect("elaborates");
        let oks = d
            .targets
            .iter()
            .map(|(_, sva)| {
                let a = genfv_sva::parse_assertion(sva).expect("SVA parses");
                PropertyCompiler::new(&mut ctx, &mut ts).compile(&a).expect("SVA compiles").ok
            })
            .collect();
        Replay { ctx, ts, oks }
    }

    fn input(&self, name: &str) -> ExprRef {
        *self
            .ts
            .inputs()
            .iter()
            .find(|&&s| self.ctx.symbol_name(s) == Some(name))
            .unwrap_or_else(|| panic!("no input {name}"))
    }

    /// The first cycle within `cycles` at which target `t` fails, from
    /// reset, with `drive` setting the inputs of each cycle.
    fn first_violation(
        &self,
        t: usize,
        cycles: usize,
        mut drive: impl FnMut(&mut Simulator<'_>, usize),
    ) -> Option<usize> {
        let mut sim = Simulator::new(&self.ctx, &self.ts);
        sim.reset();
        for cycle in 0..=cycles {
            drive(&mut sim, cycle);
            if !sim.peek(self.oks[t]).to_bool() {
                return Some(cycle);
            }
            sim.step();
        }
        None
    }
}

#[test]
fn every_generated_design_prepares() {
    for d in sample_designs() {
        let prepared = PreparedDesign::new(&d.name, &d.rtl, &d.spec, &d.targets)
            .unwrap_or_else(|e| panic!("{}: {e}\n{}", d.name, d.rtl));
        assert_eq!(prepared.targets.len(), d.answers.len(), "{}", d.name);
    }
}

#[test]
fn bugs_fail_at_their_constructed_cycle_on_replay() {
    let mut bugs = 0;
    for d in sample_designs() {
        let replay = Replay::new(&d);
        for (t, answer) in d.answers.iter().enumerate() {
            let Answer::FailsAt(cycle) = *answer else { continue };
            bugs += 1;
            let held: Vec<(ExprRef, u64)> =
                d.bug_inputs.iter().map(|&(name, v)| (replay.input(name), v)).collect();
            let got = replay.first_violation(t, cycle + 4, |sim, _| {
                for &(sym, v) in &held {
                    sim.set(sym, BitVecValue::from_u64(v, 1));
                }
            });
            assert_eq!(got, Some(cycle), "{}.{}\n{}", d.name, d.targets[t].0, d.rtl);
        }
    }
    assert!(bugs > 40, "only {bugs} bug targets sampled");
}

/// Random stimulus with reset held low: a target that holds never fails,
/// and a bug never fails before its constructed cycle.
#[test]
fn random_replays_respect_every_answer() {
    for d in sample_designs().iter().step_by(3) {
        let replay = Replay::new(d);
        let rst = replay.input("rst");
        for (t, answer) in d.answers.iter().enumerate() {
            for run in 0..4u64 {
                let mut rng = Rng::derive(run, t as u64);
                let got = replay.first_violation(t, 48, |sim, _| {
                    sim.randomize_inputs(rng.next_u64());
                    sim.set(rst, BitVecValue::from_u64(0, 1));
                });
                match (*answer, got) {
                    (Answer::Holds, None) => {}
                    (Answer::FailsAt(c), Some(at)) if at >= c => {}
                    (Answer::FailsAt(_), None) => {}
                    _ => panic!("{}.{}: {answer:?} but failed at {got:?}", d.name, d.targets[t].0),
                }
            }
        }
    }
}

#[test]
fn same_seed_same_inputs() {
    for workload in WORKLOADS {
        let (a, b) = (Plan::new(workload, 42), Plan::new(workload, 42));
        for i in 0..32 {
            let (x, y) = (a.job(i), b.job(i));
            assert_eq!(x.design.rtl, y.design.rtl);
            assert_eq!(x.mode, y.mode);
            assert_eq!(x.model, y.model);
        }
    }
}
