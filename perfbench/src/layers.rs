//! Traced-run plumbing: a timing wrapper around the language model, span
//! sums over a job's trace, and timed calls into the front-end layers.
//!
//! None of this adds spans inside the program. Solver and unroller time is
//! read off the spans the program already records; everything else is the
//! benchmark timing its own calls into public functions.

use crate::designs::Design;
use genfv_core::{OptConfig, OptStats, PreparedDesign};
use genfv_genai::{Completion, LanguageModel, Prompt};
use genfv_ir::{optimize_with, Context, ExprRef};
use genfv_obs::{Obs, ObsReport, Phase};
use genfv_sva::PropertyCompiler;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a model did for one job, as seen from outside the flow.
#[derive(Clone, Debug, Default)]
pub struct ModelTally {
    /// `complete` calls.
    pub calls: u64,
    /// Prompt tokens over all calls.
    pub prompt_tokens: u64,
    /// Completion tokens over all calls.
    pub completion_tokens: u64,
    /// Host time spent inside `complete`.
    pub host: Duration,
    /// Simulated model latency over all calls.
    pub sim: Duration,
}

/// A pass-through [`LanguageModel`] that tallies every call into a shared
/// [`ModelTally`] the submitting thread reads once the job is done.
pub struct TimedModel<M> {
    inner: M,
    tally: Arc<Mutex<ModelTally>>,
}

impl<M: LanguageModel> TimedModel<M> {
    /// Wraps `inner`, tallying into `tally`.
    pub fn new(inner: M, tally: Arc<Mutex<ModelTally>>) -> Self {
        TimedModel { inner, tally }
    }
}

impl<M: LanguageModel> LanguageModel for TimedModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&mut self, prompt: &Prompt) -> Completion {
        let start = Instant::now();
        let completion = self.inner.complete(prompt);
        let host = start.elapsed();
        let mut t = self.tally.lock().expect("model tally poisoned by a panicking job");
        t.calls += 1;
        t.prompt_tokens += completion.prompt_tokens as u64;
        t.completion_tokens += completion.completion_tokens as u64;
        t.host += host;
        t.sim += completion.latency;
        completion
    }
}

/// Total time per span name over every thread of one trace. Summing by
/// name needs no parent links, so it counts spans recorded at the trace
/// root (worker-thread spans that lost their parent) like any other.
pub fn span_totals(report: &ObsReport) -> BTreeMap<&'static str, Duration> {
    let mut open: BTreeMap<u64, Vec<(&'static str, u64)>> = BTreeMap::new();
    let mut totals: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for ev in &report.events {
        match ev.phase {
            Phase::Begin => open.entry(ev.tid).or_default().push((ev.name, ev.ts)),
            Phase::End => {
                if let Some((name, begin)) = open.get_mut(&ev.tid).and_then(Vec::pop) {
                    *totals.entry(name).or_default() +=
                        Duration::from_micros(ev.ts.saturating_sub(begin));
                }
            }
            Phase::Instant => {}
        }
    }
    totals
}

/// Host time of each front-end stage for one design, prepared the way the
/// service prepares a `DesignInput::Source` job.
#[derive(Clone, Debug, Default)]
pub struct FrontEnd {
    /// `genfv_hdl::parse_source`.
    pub parse: Duration,
    /// `genfv_hdl::elaborate`.
    pub elaborate: Duration,
    /// `genfv_sva::parse_assertion` plus `PropertyCompiler::compile`, all
    /// targets.
    pub compile: Duration,
    /// `genfv_ir::optimize_with`.
    pub opt: Duration,
    /// `PreparedDesign::with_opt`, the whole prepare in one call.
    pub prepare: Duration,
    /// What the optimizer did, to compare with the job's report.
    pub opt_stats: OptStats,
}

/// Times each front-end stage of `design` at `opt`, then the whole
/// prepare in one call.
///
/// # Panics
/// If a generated design fails to prepare; the generator's tests rule
/// that out.
pub fn time_front_end(design: &Design, opt: &OptConfig) -> FrontEnd {
    let mut fe = FrontEnd::default();
    let t = Instant::now();
    let modules = genfv_hdl::parse_source(&design.rtl).expect("generated RTL parses");
    fe.parse = t.elapsed();

    let t = Instant::now();
    let mut ctx = Context::new();
    let mut ts = genfv_hdl::elaborate(&mut ctx, &modules[0]).expect("generated RTL elaborates");
    fe.elaborate = t.elapsed();

    let t = Instant::now();
    let mut roots: Vec<ExprRef> = Vec::with_capacity(design.targets.len());
    for (_, sva) in &design.targets {
        let assertion = genfv_sva::parse_assertion(sva).expect("generated SVA parses");
        let prop = PropertyCompiler::new(&mut ctx, &mut ts)
            .compile(&assertion)
            .expect("generated SVA compiles");
        roots.push(prop.ok);
    }
    fe.compile = t.elapsed();

    let t = Instant::now();
    fe.opt_stats = optimize_with(&mut ctx, &mut ts, &mut roots, opt, &Obs::off());
    fe.opt = t.elapsed();

    let t = Instant::now();
    let prepared = PreparedDesign::with_opt(
        design.name.clone(),
        design.rtl.clone(),
        design.spec.clone(),
        &design.targets,
        opt,
    )
    .expect("generated design prepares");
    fe.prepare = t.elapsed();
    std::hint::black_box(prepared);
    fe
}
