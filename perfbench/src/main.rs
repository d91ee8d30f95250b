//! The repository benchmark: seeded, generated designs driven through
//! `genfv_service::VerificationService` in a closed loop.
//!
//! ```text
//! perfbench --workload <genai_cold|deep_cold|repeat_warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run. `--trace 1`
//! prints the per-layer metrics: it runs the same seed's jobs untraced, then
//! traced, and times the front-end layers on each cold design afterwards.
//! Every verdict is checked against the answer the generator built in; the
//! last stdout line is one JSON object, and a wrong verdict exits 1.
//! `perfbench/ledger.json` defines each workload and metric.

mod designs;
mod layers;
#[cfg(test)]
mod tests;

use designs::{generate, shuffle, size_grid, Answer, Design, Family, Rng, Size, Sizes};
use genfv_core::{CorpusMode, FlowConfig, FlowMetrics, OptStats, TargetOutcome};
use genfv_genai::{ModelProfile, SyntheticLlm};
use genfv_service::{
    DesignInput, JobEvent, JobRequest, ObsConfig, ServiceConfig, ServiceStats, VerificationService,
};
use layers::{ModelTally, TimedModel};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop clients, each with one job outstanding.
const CLIENTS: usize = 2;
/// Service worker threads.
const WORKERS: usize = 2;
/// Jobs every untraced run completes, whatever `--seconds` says: enough
/// for twelve samples beyond p90, and the fixed per-seed job set the
/// verdict-quality metrics are taken over, so those repeat exactly.
const MIN_JOBS: u64 = 120;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm-up jobs per set-up on the cold workloads.
const WARMUP_JOBS: u64 = 4;
/// Designs in `repeat_warm`'s fixed set.
const REPEAT_SET: u64 = 6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    GenaiCold,
    DeepCold,
    RepeatWarm,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "genai_cold" => Some(Workload::GenaiCold),
            "deep_cold" => Some(Workload::DeepCold),
            "repeat_warm" => Some(Workload::RepeatWarm),
            _ => None,
        }
    }

    /// The only `FlowConfig` field a workload changes from the default.
    fn max_k(self) -> usize {
        match self {
            Workload::GenaiCold => FlowConfig::default().check.max_k,
            Workload::DeepCold | Workload::RepeatWarm => 12,
        }
    }

    fn max_bug_cycle(self) -> usize {
        self.max_k() - 1
    }

    fn sizes(self, family: Family) -> Sizes {
        let (min_width, max_width, max_count) = match (self, family) {
            (Workload::GenaiCold, _) => (4, 10, 16),
            // 3-bit counters close by plain induction near k = 8, within
            // max_k; wider ones cannot, and stay unproven in a millisecond.
            (_, Family::Lockstep | Family::Offset) => (3, 3, 6),
            (Workload::DeepCold, _) => (3, 5, 16),
            // Six designs are too few to average out the cost of a large
            // FIFO or credit pool under Flow 2 (up to 5x): keep them small.
            (Workload::RepeatWarm, _) => (3, 3, 3),
        };
        Sizes { min_width, max_width, max_count }
    }

    fn service_config(self, obs: ObsConfig) -> ServiceConfig {
        let mut flow = FlowConfig::default();
        flow.check.max_k = self.max_k();
        ServiceConfig::default().with_workers(WORKERS).with_flow(flow).with_obs(obs)
    }
}

/// One job: a generated design, the flow to run, and the model to ask.
#[derive(Clone)]
struct JobSpec {
    design: Arc<Design>,
    mode: CorpusMode,
    model: Option<(ModelProfile, u64)>,
}

impl JobSpec {
    /// The service request; with `tally`, the model is wrapped to time
    /// its calls.
    fn request(&self, tally: Option<Arc<Mutex<ModelTally>>>) -> JobRequest {
        let d = &self.design;
        let req = JobRequest::new(DesignInput::Source {
            name: d.name.clone(),
            rtl: d.rtl.clone(),
            spec: d.spec.clone(),
            targets: d.targets.clone(),
        })
        .with_mode(self.mode);
        match (self.model, tally) {
            (None, _) => req,
            (Some((profile, seed)), None) => req.with_llm(SyntheticLlm::new(profile, seed)),
            (Some((profile, seed)), Some(t)) => {
                req.with_llm(TimedModel::new(SyntheticLlm::new(profile, seed), t))
            }
        }
    }
}

/// Every input of one run, derived from the workload and `--seed`.
struct Plan {
    workload: Workload,
    seed: u64,
    /// `repeat_warm`'s fixed design set.
    fixed: Vec<Arc<Design>>,
}

/// The cold workloads' family schedule: the FIFO and credit designs carry
/// the solver and validation work, the counters a deep induction each.
const COLD_FAMILIES: [Family; 8] = [
    Family::Fifo,
    Family::Credit,
    Family::Lockstep,
    Family::Fifo,
    Family::Credit,
    Family::Offset,
    Family::Fifo,
    Family::Credit,
];

/// `repeat_warm`'s fixed set, the last one a bug variant. Warm Baseline
/// runs of the FIFO and credit designs take the middle ranks of the job
/// times, the counters and the bug the bottom, their Flow 2 runs the top:
/// p50 and p90 each fall inside one group, not on a boundary between two.
const REPEAT_FAMILIES: [Family; REPEAT_SET as usize] =
    [Family::Fifo, Family::Credit, Family::Fifo, Family::Credit, Family::Lockstep, Family::Offset];

/// Salt separating the warm-up stream from the timed one.
const WARMUP_STREAM: u64 = 0x5741_524d;

impl Plan {
    fn new(workload: Workload, seed: u64) -> Self {
        let fixed = match workload {
            Workload::RepeatWarm => (0..REPEAT_SET)
                .map(|j| {
                    let family = REPEAT_FAMILIES[j as usize];
                    let name = format!("rep{j}_{}", family_name(family));
                    let size = stratified_size(workload, seed, family, j / 2);
                    // The last design of the set is a bug variant.
                    let bug = j == REPEAT_SET - 1;
                    let mut rng = Rng::derive(seed, j);
                    Arc::new(generate(family, bug, &name, size, workload.max_bug_cycle(), &mut rng))
                })
                .collect(),
            _ => Vec::new(),
        };
        Plan { workload, seed, fixed }
    }

    /// Timed job `index`.
    fn job(&self, index: u64) -> JobSpec {
        match self.workload {
            Workload::GenaiCold | Workload::DeepCold => self.cold_job(self.seed, index, "j"),
            Workload::RepeatWarm => {
                let design = Arc::clone(&self.fixed[(index % REPEAT_SET) as usize]);
                // Whole rounds of the set alternate between the two flows;
                // each design meets every model over four Flow 2 rounds.
                let round = index / REPEAT_SET;
                if round.is_multiple_of(2) {
                    JobSpec { design, mode: CorpusMode::Baseline, model: None }
                } else {
                    let profile = ModelProfile::ALL[((index + round / 2) % 4) as usize];
                    let model_seed = Rng::derive(self.seed, index).next_u64();
                    JobSpec { design, mode: CorpusMode::Flow2, model: Some((profile, model_seed)) }
                }
            }
        }
    }

    /// The warm-up jobs one set-up runs before timing.
    fn warmup(&self) -> Vec<JobSpec> {
        match self.workload {
            Workload::GenaiCold | Workload::DeepCold => {
                (0..WARMUP_JOBS).map(|j| self.cold_job(WARMUP_STREAM, j, "w")).collect()
            }
            // Each design of the fixed set once: the first round.
            Workload::RepeatWarm => (0..REPEAT_SET).map(|j| self.job(j)).collect(),
        }
    }

    /// A fresh design for the cold workloads. Families and bugs follow a
    /// fixed schedule, so every seed runs the same mix: each run of eight
    /// jobs follows [`COLD_FAMILIES`] and holds one bug variant, in a slot
    /// that moves on by one from one run of eight to the next. Sizes and
    /// model seeds are drawn from the seed.
    fn cold_job(&self, stream: u64, index: u64, prefix: &str) -> JobSpec {
        let slot = (index % 8) as usize;
        let family = COLD_FAMILIES[slot];
        let bug = index % 8 == (index / 8) % 8;
        // This job is occurrence `k` of its family in the stream.
        let per_run = COLD_FAMILIES.iter().filter(|&&f| f == family).count() as u64;
        let before = COLD_FAMILIES[..slot].iter().filter(|&&f| f == family).count() as u64;
        let size = stratified_size(self.workload, stream, family, index / 8 * per_run + before);
        let name = format!("{prefix}{index}_{}", family_name(family));
        let mut rng = Rng::derive(stream, index);
        let design =
            Arc::new(generate(family, bug, &name, size, self.workload.max_bug_cycle(), &mut rng));
        match self.workload {
            Workload::GenaiCold => {
                // Modes alternate job by job; over eight runs of eight, each
                // slot of the schedule meets every mode and model pairing.
                let run = index / 8;
                let mode = [CorpusMode::Flow2, CorpusMode::Combined][((index + run) % 2) as usize];
                let profile = ModelProfile::ALL[((index + run / 2) % 4) as usize];
                JobSpec { design, mode, model: Some((profile, rng.next_u64())) }
            }
            _ => JobSpec { design, mode: CorpusMode::Baseline, model: None },
        }
    }
}

/// Size of occurrence `k` of `family` in `stream`: the family's size grid
/// in an order shuffled by the stream, cycled.
fn stratified_size(workload: Workload, stream: u64, family: Family, k: u64) -> Size {
    let mut grid = size_grid(family, workload.sizes(family));
    shuffle(&mut grid, &mut Rng::derive(stream, family as u64));
    grid[(k % grid.len() as u64) as usize]
}

fn family_name(f: Family) -> &'static str {
    match f {
        Family::Fifo => "fifo",
        Family::Credit => "credit",
        Family::Lockstep => "lockstep",
        Family::Offset => "offset",
    }
}

/// A target verdict with its trace dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Proven,
    Falsified(usize),
    StillUnproven,
    Unknown,
}

impl From<&TargetOutcome> for Verdict {
    fn from(o: &TargetOutcome) -> Self {
        match o {
            TargetOutcome::Proven { .. } => Verdict::Proven,
            TargetOutcome::Falsified { at } => Verdict::Falsified(*at),
            TargetOutcome::StillUnproven { .. } => Verdict::StillUnproven,
            TargetOutcome::Unknown { .. } => Verdict::Unknown,
        }
    }
}

/// What a completed job reported, reduced to what the metrics need.
struct Done {
    verdicts: Vec<(String, Verdict)>,
    run_time: Duration,
    metrics: FlowMetrics,
    opt: OptStats,
    /// Span totals by name (empty when untraced).
    spans: BTreeMap<&'static str, Duration>,
    dropped_events: u64,
    /// The timing wrapper's view of the model (traced runs only).
    model: Option<ModelTally>,
}

/// One job as the client saw it.
struct Record {
    index: u64,
    spec: JobSpec,
    /// Submit to the terminal event, on the benchmark's clock.
    latency: Duration,
    outcome: Result<Done, String>,
}

impl Record {
    /// Every way this job contradicts its known answers.
    fn errors(&self) -> Vec<String> {
        let name = &self.spec.design.name;
        let done = match &self.outcome {
            Ok(done) => done,
            Err(e) => return vec![format!("{name}: {e}")],
        };
        let d = &self.spec.design;
        if done.verdicts.len() != d.targets.len() {
            return vec![format!(
                "{name}: {} verdicts for {} targets",
                done.verdicts.len(),
                d.targets.len()
            )];
        }
        let mut errors = Vec::new();
        for (((target, _), answer), (vname, verdict)) in
            d.targets.iter().zip(&d.answers).zip(&done.verdicts)
        {
            let ok = target == vname
                && match answer {
                    Answer::Holds => !matches!(verdict, Verdict::Falsified(_)),
                    Answer::FailsAt(c) => *verdict == Verdict::Falsified(*c),
                };
            if !ok {
                errors.push(format!("{name}.{target}: expected {answer:?}, got {verdict:?}"));
            }
        }
        errors
    }
}

/// When a drive stops taking new jobs.
#[derive(Clone, Copy)]
enum Stop {
    /// Past `after` from the start, once at least `min_jobs` were taken.
    Time { after: Duration, min_jobs: u64 },
    /// After exactly this many jobs.
    Count(u64),
}

/// Runs jobs `0..` (by `make`) through `service` from [`CLIENTS`] closed-
/// loop clients until `stop`. Returns the records in index order and the
/// wall time from the first submission to the last terminal event.
fn drive(
    service: &VerificationService,
    make: &(dyn Fn(u64) -> JobSpec + Sync),
    stop: Stop,
    traced: bool,
) -> (Vec<Record>, Duration) {
    let next = AtomicU64::new(0);
    let records = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let more = match stop {
                    Stop::Time { after, min_jobs } => index < min_jobs || start.elapsed() < after,
                    Stop::Count(n) => index < n,
                };
                if !more {
                    break;
                }
                let record = run_one(service, index, make(index), traced);
                records.lock().expect("record list poisoned").push(record);
            });
        }
    });
    let wall = start.elapsed();
    let mut records = records.into_inner().expect("record list poisoned");
    records.sort_by_key(|r| r.index);
    (records, wall)
}

/// Submits one job and follows its event stream to the end.
fn run_one(service: &VerificationService, index: u64, spec: JobSpec, traced: bool) -> Record {
    let tally = (traced && spec.model.is_some()).then(Arc::default);
    let request = spec.request(tally.clone());
    let submitted = Instant::now();
    let outcome = match service.submit(request) {
        Err(rejected) => Err(format!("rejected: {}", rejected.error)),
        Ok(handle) => {
            let mut verdicts = Vec::new();
            loop {
                match handle.next_event() {
                    Some(JobEvent::TargetVerdict { target, outcome, .. }) => {
                        verdicts.push((target, Verdict::from(&outcome)));
                    }
                    Some(JobEvent::Done { report, .. }) => {
                        let (spans, dropped_events) = match &report.obs {
                            Some(obs) => (layers::span_totals(obs), obs.dropped),
                            None => (BTreeMap::new(), 0),
                        };
                        let model = tally.map(|t| t.lock().expect("model tally poisoned").clone());
                        break Ok(Done {
                            verdicts,
                            run_time: report.run_time,
                            metrics: report.flow.metrics.clone(),
                            opt: report.opt().clone(),
                            spans,
                            dropped_events,
                            model,
                        });
                    }
                    Some(JobEvent::Failed { error, .. }) => break Err(format!("failed: {error}")),
                    Some(_) => {}
                    None => break Err("event stream ended early".to_string()),
                }
            }
        }
    };
    Record { index, spec, latency: submitted.elapsed(), outcome }
}

/// A service after one set-up: started, warmed up, stats snapshotted.
struct Ready {
    service: VerificationService,
    setup: Duration,
    baseline: ServiceStats,
    warmup_errors: Vec<String>,
}

/// Starts a service and runs the warm-up jobs; the time of both is the
/// set-up time.
fn set_up(plan: &Plan, obs: ObsConfig) -> Ready {
    let start = Instant::now();
    let service = VerificationService::new(plan.workload.service_config(obs));
    let warmup = plan.warmup();
    let (records, _) =
        drive(&service, &|i| warmup[i as usize].clone(), Stop::Count(warmup.len() as u64), false);
    let setup = start.elapsed();
    let warmup_errors = records.iter().flat_map(Record::errors).collect();
    let baseline = service.stats();
    Ready { service, setup, baseline, warmup_errors }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median, or 0 for no values.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Share of targets proven over the first [`MIN_JOBS`] jobs — the same job
/// set on every run of a seed.
fn proven_share(records: &[Record]) -> f64 {
    let (mut proven, mut targets) = (0usize, 0usize);
    for r in records.iter().filter(|r| r.index < MIN_JOBS) {
        targets += r.spec.design.targets.len();
        if let Ok(done) = &r.outcome {
            proven += done.verdicts.iter().filter(|(_, v)| *v == Verdict::Proven).count();
        }
    }
    proven as f64 / targets.max(1) as f64
}

/// The untraced run: [`SETUPS`] set-ups, then the timed closed loop on the
/// last one.
fn end_to_end(plan: &Plan, seconds: f64) -> (Metrics, Vec<Record>, Vec<String>) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut errors = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let r = set_up(plan, ObsConfig::Off);
        setups.push(r.setup.as_secs_f64());
        errors.extend(r.warmup_errors.iter().cloned());
        ready = Some(r);
    }
    let ready = ready.expect("at least one set-up");
    let stop = Stop::Time { after: Duration::from_secs_f64(seconds), min_jobs: MIN_JOBS };
    let (records, wall) = drive(&ready.service, &|i| plan.job(i), stop, false);
    drop(ready);

    let n = records.len() as f64;
    let mut latencies: Vec<f64> = records.iter().map(|r| ms(r.latency)).collect();
    latencies.sort_by(f64::total_cmp);
    let failed = records.iter().filter(|r| !r.errors().is_empty()).count();
    errors.extend(records.iter().flat_map(Record::errors));
    // What a user waits for a verdict: host time to `Done` plus the model
    // time the synthetic model only simulates.
    let verdict_s: f64 = records
        .iter()
        .map(|r| {
            let sim = r.outcome.as_ref().map_or(Duration::ZERO, |d| d.metrics.llm_latency);
            (r.latency + sim).as_secs_f64()
        })
        .sum::<f64>()
        / n;
    let metrics = vec![
        ("jobs_per_s", n / wall.as_secs_f64(), "1/s"),
        ("job_p50_ms", quantile(&latencies, 0.5), "ms"),
        ("job_p90_ms", quantile(&latencies, 0.9), "ms"),
        ("job_ok_share", 1.0 - failed as f64 / n, "share"),
        ("proven_share", proven_share(&records), "share"),
        ("time_to_verdict_s", verdict_s, "s"),
        ("setup_s", median(&mut setups), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    (metrics, records, errors)
}

/// Per-job mean of `f` over the completed jobs.
fn per_job(done: &[&Done], f: impl Fn(&Done) -> f64) -> f64 {
    done.iter().map(|d| f(d)).sum::<f64>() / done.len().max(1) as f64
}

fn span_ms(d: &Done, name: &str) -> f64 {
    d.spans.get(name).map_or(0.0, |t| ms(*t))
}

/// The traced run: the same seed's jobs untraced for half the time (and
/// at least [`MIN_JOBS`]), then exactly those jobs traced, then the
/// front-end layers timed on every design the traced jobs prepared cold.
fn per_layer(plan: &Plan, seconds: f64) -> (Metrics, Vec<Record>, Vec<String>) {
    let mut errors = Vec::new();
    let untraced = set_up(plan, ObsConfig::Off);
    errors.extend(untraced.warmup_errors.iter().cloned());
    let stop = Stop::Time { after: Duration::from_secs_f64(seconds / 2.0), min_jobs: MIN_JOBS };
    let (plain, plain_wall) = drive(&untraced.service, &|i| plan.job(i), stop, false);
    drop(untraced);
    errors.extend(plain.iter().flat_map(Record::errors));

    let Ready { service, baseline: base, warmup_errors, .. } = set_up(plan, ObsConfig::Full);
    errors.extend(warmup_errors);
    let (records, traced_wall) =
        drive(&service, &|i| plan.job(i), Stop::Count(plain.len() as u64), true);
    let stats = service.stats();
    drop(service);
    errors.extend(records.iter().flat_map(Record::errors));

    let done: Vec<&Done> = records.iter().filter_map(|r| r.outcome.as_ref().ok()).collect();
    let n = done.len().max(1) as f64;
    for (r, d) in records.iter().filter_map(|r| r.outcome.as_ref().ok().map(|d| (r, d))) {
        let name = &r.spec.design.name;
        if d.dropped_events > 0 {
            errors.push(format!("{name}: trace dropped {} events", d.dropped_events));
        }
        if let Some(t) = &d.model {
            let m = &d.metrics;
            if t.calls != m.llm_calls as u64
                || t.prompt_tokens != m.prompt_tokens as u64
                || t.completion_tokens != m.completion_tokens as u64
                || t.sim != m.llm_latency
            {
                errors.push(format!("{name}: model wrapper {t:?} disagrees with flow metrics"));
            }
        }
    }

    // Front-end layers, once per design: every cold job's, and the fixed
    // set that repeat_warm's set-up prepared cold.
    let opt = plan.workload.service_config(ObsConfig::Off).flow.opt;
    let mut seen = BTreeSet::new();
    let mut fronts = Vec::new();
    for r in &records {
        let Ok(d) = &r.outcome else { continue };
        if !seen.insert(r.spec.design.name.clone()) {
            continue;
        }
        let fe = layers::time_front_end(&r.spec.design, &opt);
        if fe.opt_stats != d.opt {
            errors.push(format!("{}: optimizer stats differ from the job's", r.spec.design.name));
        }
        fronts.push(fe);
    }
    let fe_mean = |f: &dyn Fn(&layers::FrontEnd) -> f64| {
        fronts.iter().map(f).sum::<f64>() / fronts.len().max(1) as f64
    };

    let mut waits: Vec<f64> = records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|d| ms(r.latency.saturating_sub(d.run_time))))
        .collect();
    let mut runs: Vec<f64> = done.iter().map(|d| ms(d.run_time)).collect();
    let hits = stats.cache_hits - base.cache_hits;
    let lookups = hits + stats.cache_misses - base.cache_misses;
    let service_per_job = |now: u64, before: u64| (now - before) as f64 / n;
    let parsed: f64 = done.iter().map(|d| d.metrics.candidates_parsed as f64).sum();
    let accepted: f64 = done.iter().map(|d| d.metrics.lemmas_accepted as f64).sum();
    let solver = |f: fn(&FlowMetrics) -> u64| per_job(&done, |d| f(&d.metrics) as f64);
    // Model use over the first MIN_JOBS jobs, like proven_share: the same
    // jobs, so the same counts, on every run of a seed.
    let prefix: Vec<&Done> = records
        .iter()
        .filter(|r| r.index < MIN_JOBS)
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();
    let tally = |f: fn(&ModelTally) -> f64| per_job(&prefix, |d| d.model.as_ref().map_or(0.0, f));

    let metrics = vec![
        ("service.wait_ms", median(&mut waits), "ms"),
        ("service.run_ms", median(&mut runs), "ms"),
        ("service.cache_hit_ratio", hits as f64 / lookups.max(1) as f64, "ratio"),
        (
            "service.clean_seed_hits",
            service_per_job(stats.clean_seed_hits, base.clean_seed_hits),
            "count/job",
        ),
        (
            "service.templates_reused",
            service_per_job(stats.templates_reused, base.templates_reused),
            "count/job",
        ),
        (
            "service.batched_jobs",
            service_per_job(stats.batched_jobs, base.batched_jobs),
            "count/job",
        ),
        ("hdl.parse_ms", fe_mean(&|f| ms(f.parse)), "ms"),
        ("hdl.elaborate_ms", fe_mean(&|f| ms(f.elaborate)), "ms"),
        ("sva.compile_ms", fe_mean(&|f| ms(f.compile)), "ms"),
        ("ir.opt_ms", fe_mean(&|f| ms(f.opt)), "ms"),
        ("ir.opt_nodes_removed", fe_mean(&|f| f.opt_stats.nodes_removed() as f64), "count"),
        ("genai.complete_ms", tally(|t| ms(t.host)), "ms"),
        ("genai.calls", tally(|t| t.calls as f64), "count/job"),
        ("genai.prompt_tokens", tally(|t| t.prompt_tokens as f64), "count/job"),
        ("genai.completion_tokens", tally(|t| t.completion_tokens as f64), "count/job"),
        ("genai.sim_latency_s", tally(|t| t.sim.as_secs_f64()), "s"),
        ("core.prepare_ms", fe_mean(&|f| ms(f.prepare)), "ms"),
        ("core.flow_ms", per_job(&done, |d| ms(d.run_time)), "ms"),
        ("core.proof_ms", per_job(&done, |d| span_ms(d, "prove")), "ms"),
        ("core.candidates_parsed", parsed / n, "count/job"),
        ("core.lemmas_accepted", accepted / n, "count/job"),
        ("core.lemma_yield", if parsed > 0.0 { accepted / parsed } else { 0.0 }, "ratio"),
        ("core.rejected_false", per_job(&done, |d| d.metrics.rejected_false as f64), "count/job"),
        (
            "core.rejected_not_inductive",
            per_job(&done, |d| d.metrics.rejected_not_inductive as f64),
            "count/job",
        ),
        (
            "core.rejected_compile",
            per_job(&done, |d| d.metrics.rejected_compile as f64),
            "count/job",
        ),
        ("core.repair_iterations", per_job(&done, |d| d.metrics.iterations as f64), "count/job"),
        ("mc.extend_base_ms", per_job(&done, |d| span_ms(d, "session.extend.base")), "ms"),
        ("mc.extend_step_ms", per_job(&done, |d| span_ms(d, "session.extend.step")), "ms"),
        ("mc.solver_calls", solver(|m| m.solver.solver_calls), "count/job"),
        (
            "mc.max_frame",
            done.iter().map(|d| d.metrics.solver.max_frame).max().unwrap_or(0) as f64,
            "count",
        ),
        ("mc.clauses_retained", solver(|m| m.solver.clauses_retained), "count/job"),
        ("sat.solve_base_ms", per_job(&done, |d| span_ms(d, "solve.base")), "ms"),
        ("sat.solve_step_ms", per_job(&done, |d| span_ms(d, "solve.step")), "ms"),
        ("sat.conflicts", solver(|m| m.solver.conflicts), "count/job"),
        ("sat.decisions", solver(|m| m.solver.decisions), "count/job"),
        ("sat.propagations", solver(|m| m.solver.propagations), "count/job"),
        ("sat.pool_hits", solver(|m| m.solver.pool_hits), "count/job"),
        ("sat.pool_clauses_imported", solver(|m| m.solver.pool_clauses_imported), "count/job"),
        ("portfolio.races", solver(|m| m.solver.portfolio_races), "count/job"),
        ("portfolio.cube_splits", solver(|m| m.solver.cube_splits), "count/job"),
        ("obs.overhead_ratio", traced_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0, "ratio"),
    ];
    (metrics, records, errors)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    };
    if flags.len() != 4 || !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err(
            "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>".into()
        );
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed);
    let (metrics, records, errors) =
        if args.trace { per_layer(&plan, args.seconds) } else { end_to_end(&plan, args.seconds) };
    let failed = records.iter().filter(|r| !r.errors().is_empty()).count();
    for e in &errors {
        eprintln!("perfbench: wrong: {e}");
    }
    let beyond_p90 = records.len() - (0.9 * records.len() as f64).ceil() as usize;
    println!(
        "{:?} seed {}: {} jobs ({} beyond p90), {} failed",
        args.workload,
        args.seed,
        records.len(),
        beyond_p90,
        failed
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        records.len(),
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
