//! # hotnoc-scenario — declarative experiments and the campaign engine
//!
//! Everything the paper reproduction can simulate, expressible without
//! writing Rust:
//!
//! * [`spec::ScenarioSpec`] describes **one run** — a chip (configuration
//!   A–E or a custom mesh), a workload (LDPC decode or synthetic
//!   [`hotnoc_noc::TrafficPattern`] traffic), a migration policy (baseline
//!   / periodic / adaptive), a measurement mode, fidelity, horizon and
//!   seed. Specs round-trip through canonical JSON ([`json`]).
//! * [`campaign::CampaignSpec`] sweeps cartesian axes (chips x workloads x
//!   policies x schemes x periods x seeds) and expands them into a
//!   deterministic, stably-ordered job list with per-job seeds derived
//!   from the campaign seed and job index.
//! * [`runner::run_campaign`] executes jobs in parallel on `minipool`
//!   (respecting `HOTNOC_THREADS`), journals every completed job to an
//!   on-disk manifest so a killed campaign resumes without recomputation,
//!   and emits a `CAMPAIGN_<name>.json` artifact that is **byte-identical
//!   at any thread count** plus a human summary table. [`journal`] is
//!   the crash-safe JSONL journal behind the manifest and the
//!   `hotnoc serve` result cache.
//! * [`builtin`] names the paper's exhibits (Figure 1, the period sweep,
//!   migration cost, adaptive comparison, the latency-vs-load saturation
//!   curve) as ready-made campaigns; [`exhibits`] builds the exhibit
//!   tables straight from campaign records and renders them (and the
//!   latency-load curve) as ASCII and CSV.
//! * [`stats`] collapses records across the seed axis into per-group
//!   summary statistics (mean / std-dev / min / max / median / p95 /
//!   t-based 95% CI) and serializes them as the
//!   `CAMPAIGN_<name>.aggregate.json` artifact
//!   (`hotnoc-campaign-aggregate-v1`); [`diff`] aligns two campaign
//!   artifacts by group and reports ratio-of-medians with CI-overlap
//!   verdicts — the `hotnoc campaign diff` A/B engine.
//! * [`shard`] distributes a campaign across processes and hosts: with
//!   [`runner::RunnerOptions::shard`] set, the same runner executes a
//!   deterministic modulo stripe of the expansion (same per-job seeds as
//!   an unsharded run, its own kill/resume-safe journal) and emits a
//!   `hotnoc-campaign-shard-v1` artifact; [`shard::merge_shards`]
//!   validates a shard set and reassembles the exact single-host
//!   `CAMPAIGN_<name>.json` + `.aggregate.json` bytes.
//!
//! The `hotnoc` CLI (`crates/cli`) fronts all of this from the shell.
//! The normative schema reference for every emitted artifact lives in
//! `docs/ARTIFACTS.md` at the repository root.
//!
//! ```
//! use hotnoc_scenario::builtin::builtin;
//! use hotnoc_scenario::runner::{run_campaign, RunnerOptions};
//! use hotnoc_core::configs::Fidelity;
//!
//! let spec = builtin("smoke", Fidelity::Quick).expect("known builtin");
//! assert!(spec.expand().len() >= 4);
//! # let dir = std::env::temp_dir().join(format!("hotnoc-doc-{}", std::process::id()));
//! # let mut spec = spec;
//! # spec.workloads.truncate(2); // keep the doctest fast: traffic-only
//! # spec.workloads.remove(0);
//! # spec.name = "doc-smoke".into();
//! let run = run_campaign(&spec, &RunnerOptions {
//!     threads: 2,
//!     out_dir: dir.clone(),
//!     ..RunnerOptions::default()
//! })?;
//! assert!(run.is_complete());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), hotnoc_scenario::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtin;
pub mod campaign;
pub mod diff;
pub mod error;
pub mod exhibits;
pub mod journal;
pub mod json;
pub mod outcome;
pub mod run;
pub mod runner;
pub mod shard;
pub mod spec;
pub mod stats;
pub mod tracefile;

pub use campaign::{CampaignSpec, PolicyAxis};
pub use diff::{diff_campaigns, DiffReport, Verdict};
pub use error::ScenarioError;
pub use outcome::ScenarioOutcome;
pub use run::{run_scenario, run_scenario_traced};
pub use runner::{run_campaign, CampaignRun, JobRecord, RunnerOptions};
pub use shard::{merge_shards, Shard};
pub use spec::{ChipKind, Mode, Policy, ScenarioSpec, Workload};
pub use stats::{GroupAggregate, GroupKey, SummaryStats};
pub use tracefile::TraceDoc;
