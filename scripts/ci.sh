#!/usr/bin/env bash
# The repo's full gate set. Tier-1 (enforced): release build + tests.
# Formatting and clippy (all targets: lib + tests + benches) are pinned so
# style drift cannot accumulate. The paper's worked example (e1, the
# Fig. 1/2/3 design through both flows) runs as an end-to-end regression
# gate and exits nonzero unless every expected verdict holds. The
# differential benches run in quick mode as end-to-end checks (each exits
# nonzero on any verdict divergence): e8 races incremental vs rebuild sessions, e9 races
# single-solver vs portfolio sessions, e10 races template-stamped vs
# DAG-walk frame encodings, e11 races a warm (session-cached) vs cold
# verification service on repeat traffic, e12 races OptLevel::Full vs
# OptLevel::None prepares (exits nonzero on any verdict regression or if
# the datapath designs stop shrinking), e13 races cold vs clause-pooled
# sessions with cube-and-conquer armed (exits nonzero on any verdict
# divergence or zero pool hits), e14 races warm service traffic with
# tracing Off vs Full (exits nonzero if Full overhead exceeds 5% or the
# exported Chrome trace fails its schema check), e15 races
# OptLevel::SatSweep vs OptLevel::Full prepares (exits nonzero on any
# verdict regression, zero datapath merges, or a busted conflict-budget
# envelope). Quick-mode JSON goes to
# target/ so the committed full-run BENCH_*.json files (5-sample medians)
# are never clobbered by 2-sample gate numbers. The SAT solver's tests also
# run in release mode (overflow and indexing behave differently there), the
# benchmark package runs its own tests, and 5 s smokes of all three
# benchmark workloads (deep_cold, genai_cold, repeat_warm) exit nonzero on
# any verdict that contradicts the generator's known answer — an oracle
# independent of the solver. genai_cold and repeat_warm cover the Flow-2
# traffic, whose prompts are built from step counterexamples, so a solver
# heuristic change that alters models is checked end to end there. A
# traced genai_cold smoke (--trace 1) additionally exits nonzero on dropped
# trace events, on disagreement between the model wrapper and the flow
# metrics, or on optimizer-stats mismatches.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q
cargo test --release -p genfv-sat
cargo test --manifest-path perfbench/Cargo.toml
python3 perfbench/run.py --workload deep_cold --seed 1 --seconds 5 --trace 0
python3 perfbench/run.py --workload genai_cold --seed 1 --seconds 5 --trace 0
python3 perfbench/run.py --workload repeat_warm --seed 1 --seconds 5 --trace 0
python3 perfbench/run.py --workload genai_cold --seed 1 --seconds 5 --trace 1
cargo run --release -p genfv-bench --bin e1_paper_example
GENFV_BENCH_JSON=target/ci-BENCH_incremental.json \
    cargo run --release -p genfv-bench --bin e8_incremental_sessions -- --quick
GENFV_BENCH_JSON=target/ci-BENCH_portfolio.json \
    cargo run --release -p genfv-bench --bin e9_portfolio -- --quick
GENFV_BENCH_JSON=target/ci-BENCH_unroll.json \
    cargo run --release -p genfv-bench --bin e10_template_unroll -- --quick
GENFV_BENCH_JSON=target/ci-BENCH_service.json \
    cargo run --release -p genfv-bench --bin e11_service -- --quick
GENFV_BENCH_JSON=target/ci-BENCH_opt.json \
    cargo run --release -p genfv-bench --bin e12_opt -- --quick
GENFV_BENCH_JSON=target/ci-BENCH_cube.json \
    cargo run --release -p genfv-bench --bin e13_cube -- --quick
GENFV_BENCH_JSON=target/ci-BENCH_obs.json \
    cargo run --release -p genfv-bench --bin e14_obs -- --quick
GENFV_BENCH_JSON=target/ci-BENCH_satsweep.json \
    cargo run --release -p genfv-bench --bin e15_satsweep -- --quick
