//! Differential suite for `genfv-obs`: tracing must be reproducible and
//! must cost nothing when disabled.
//!
//! * **Determinism** — two identical runs under
//!   [`ObsConfig::Deterministic`] (logical clock) must produce
//!   byte-identical event streams: same span names, same nesting, same
//!   tick timestamps. Pinned in *both* unroll modes, since template
//!   stamping and the DAG walk take different extension paths and each
//!   must be individually reproducible.
//! * **Zero-cost when off** — a corpus sweep with the default disabled
//!   handle must not record a single trace event. The global
//!   [`events_recorded_total`] counter sits behind the one branch every
//!   span costs, so it staying flat proves the disabled path never
//!   reaches the recorder (and therefore never allocates a trace
//!   buffer). The strict wall-clock overhead gate lives in the
//!   `e14_obs` bench, where warmup and repetition make timing
//!   meaningful.
//! * **Validation nests under the flow** — a Flow 2 repair loop
//!   validates its candidates on the flow's own thread, so every
//!   `prove`/`solve.*` span lies inside `flow.flow2`, never at the trace
//!   root; every one that is not part of a target proof lies inside a
//!   `flow.validate` phase span, and `flow.houdini` nests inside one.

use genfv_core::{run_baseline, run_flow2, FlowConfig};
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_mc::{CheckConfig, UnrollMode};
use genfv_obs::{Obs, ObsConfig, Phase, TraceEvent};

fn flow_config(mode: UnrollMode, obs: Obs) -> FlowConfig {
    FlowConfig {
        check: CheckConfig { max_k: 4, unroll_mode: mode, ..Default::default() },
        ..Default::default()
    }
    .with_obs(obs)
}

/// One deterministic-obs corpus sweep: returns every design's drained
/// event stream.
fn traced_sweep(mode: UnrollMode) -> Vec<(String, Vec<TraceEvent>)> {
    genfv_designs::all_designs()
        .iter()
        .map(|bundle| {
            let design = bundle.prepare().expect("corpus designs prepare");
            let obs = Obs::new(ObsConfig::Deterministic);
            let report = run_baseline(&design, &flow_config(mode, obs.clone()));
            assert!(!report.targets.is_empty());
            (design.name.clone(), obs.take_events())
        })
        .collect()
}

#[test]
fn deterministic_trace_shape_is_pinned_across_runs() {
    for mode in [UnrollMode::Template, UnrollMode::DagWalk] {
        let a = traced_sweep(mode);
        let b = traced_sweep(mode);
        assert_eq!(a.len(), b.len());
        for ((name_a, ev_a), (name_b, ev_b)) in a.iter().zip(&b) {
            assert_eq!(name_a, name_b);
            assert_eq!(
                ev_a, ev_b,
                "span tree diverged across identical runs on `{name_a}` ({mode:?})"
            );
        }
    }
}

#[test]
fn deterministic_trace_reaches_solve_depth_and_balances() {
    let design = genfv_designs::all_designs()
        .first()
        .expect("corpus is non-empty")
        .prepare()
        .expect("prepares");
    let obs = Obs::new(ObsConfig::Deterministic);
    run_baseline(&design, &flow_config(UnrollMode::Template, obs.clone()));
    let report = obs.report().expect("enabled handle yields a report");

    let json = report.chrome_json();
    let check = genfv_obs::validate_chrome_trace(&json).expect("valid Chrome trace JSON");
    assert!(check.balanced);
    assert!(
        check.depth_of_prefix("solve.").is_some(),
        "trace must reach individual solve calls: {json}"
    );
    assert!(check.depth_of_prefix("flow.baseline").is_some());

    // The logical clock makes the tree renderer stable too (counts, no
    // wall times) — spot-check the roots it reports.
    let tree = report.render_tree();
    assert!(tree.contains("flow.baseline"), "{tree}");
    assert!(tree.contains("solve.step"), "{tree}");
}

#[test]
fn off_and_deterministic_modes_agree_on_verdicts() {
    // Recording a trace must never change what the flow concludes.
    for bundle in genfv_designs::all_designs() {
        let design = bundle.prepare().expect("corpus designs prepare");
        let plain = run_baseline(&design, &flow_config(UnrollMode::Template, Obs::off()));
        let traced = run_baseline(
            &design,
            &flow_config(UnrollMode::Template, Obs::new(ObsConfig::Deterministic)),
        );
        assert_eq!(plain.targets.len(), traced.targets.len());
        for (p, t) in plain.targets.iter().zip(&traced.targets) {
            assert_eq!(
                std::mem::discriminant(&p.outcome),
                std::mem::discriminant(&t.outcome),
                "verdict class diverged under tracing on {}/{}",
                design.name,
                p.name
            );
        }
        assert_eq!(
            plain.metrics.solver.solver_calls, traced.metrics.solver.solver_calls,
            "solver call count diverged under tracing on {}",
            design.name
        );
    }
}

#[test]
fn deterministic_events_use_the_logical_clock() {
    let design = genfv_designs::all_designs()
        .first()
        .expect("corpus is non-empty")
        .prepare()
        .expect("prepares");
    let obs = Obs::new(ObsConfig::Deterministic);
    run_baseline(&design, &flow_config(UnrollMode::Template, obs.clone()));
    let events = obs.take_events();
    assert!(!events.is_empty());
    // Logical timestamps are tick-counter values — strictly increasing
    // (`now_us` probes also consume ticks, so they need not be
    // contiguous) and far below any wall-clock µs epoch reading.
    for pair in events.windows(2) {
        assert!(pair[0].ts < pair[1].ts, "tick clock not strictly increasing: {pair:?}");
    }
    let span = events.last().expect("non-empty").ts - events[0].ts;
    assert!(span < 1_000_000, "timestamps look like wall time, not ticks: span {span}");
    assert!(events.iter().any(|e| e.phase == Phase::Begin && e.name.starts_with("solve.")));
}

#[test]
fn flow2_validation_spans_nest_under_the_flow() {
    let mut validated_any = false;
    let mut houdini_spans = 0;
    for bundle in genfv_designs::lemma_hungry_designs() {
        let obs = Obs::new(ObsConfig::Deterministic);
        let report = run_flow2(
            bundle.prepare().expect("corpus designs prepare"),
            &mut SyntheticLlm::new(ModelProfile::GptFourTurbo, 42),
            &FlowConfig::default().with_obs(obs.clone()),
        );
        let m = &report.metrics;
        if m.iterations == 0 || m.candidates_parsed == 0 {
            continue;
        }
        validated_any = true;
        let events = obs.take_events();
        assert!(
            events.iter().all(|e| e.tid == events[0].tid),
            "validation left the flow's thread on {}",
            bundle.name
        );
        let at = |phase: Phase| {
            events
                .iter()
                .position(|e| e.name == "flow.flow2" && e.phase == phase)
                .expect("flow.flow2 span recorded")
        };
        let (begin, end) = (at(Phase::Begin), at(Phase::End));
        for (i, e) in events.iter().enumerate() {
            if e.name == "prove" || e.name.starts_with("solve.") {
                assert!(
                    begin < i && i < end,
                    "`{}` at event {i} lies outside flow.flow2 [{begin}, {end}] on {}",
                    e.name,
                    bundle.name
                );
            }
        }

        // Phase spans: walk the span stack. A `prove`/`solve.*` event
        // belongs to a target proof when a `prove` span named after a
        // target encloses it (or is it); every other one is validation
        // work and must lie inside `flow.validate`.
        let targets: Vec<&str> = report.targets.iter().map(|t| t.name.as_str()).collect();
        let is_target_prove = |e: &TraceEvent| {
            e.name == "prove" && e.detail.as_deref().is_some_and(|d| targets.contains(&d))
        };
        let mut stack: Vec<&TraceEvent> = Vec::new();
        let mut validated_spans = 0;
        for e in &events {
            // An end event carries no detail: classify it by its begin.
            let opened = if e.phase == Phase::End { stack.pop() } else { None };
            let inside = |name: &str| stack.iter().any(|s| s.name == name);
            let in_target_proof =
                is_target_prove(opened.unwrap_or(e)) || stack.iter().any(|s| is_target_prove(s));
            if (e.name == "prove" || e.name.starts_with("solve.")) && !in_target_proof {
                assert!(
                    inside("flow.validate"),
                    "validation `{}` ({:?}) lies outside flow.validate on {}",
                    e.name,
                    e.detail,
                    bundle.name
                );
            }
            if e.name == "flow.houdini" {
                assert!(inside("flow.validate"), "flow.houdini outside flow.validate");
            }
            if e.phase == Phase::Begin {
                validated_spans += usize::from(e.name == "flow.validate");
                stack.push(e);
            }
        }
        assert!(stack.is_empty(), "unbalanced span stack on {}", bundle.name);
        assert!(validated_spans > 0, "no flow.validate span on {}", bundle.name);
        houdini_spans += events.iter().filter(|e| e.name == "flow.houdini").count();
    }
    assert!(validated_any, "some corpus design must send Flow 2 through its repair loop");
    assert!(houdini_spans > 0, "some corpus design must run Houdini under flow.validate");
}
