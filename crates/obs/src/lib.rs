//! Observability primitives for the hotnoc stack, split into two strictly
//! separated planes:
//!
//! * **the deterministic plane** ([`event`]) — typed sim-time
//!   [`TraceEvent`]s that producers push onto a caller-supplied
//!   `Vec<TraceEvent>`. Events are keyed by sim cycle and carry only
//!   simulation state, so a trace is a pure function of the spec:
//!   byte-identical at any thread count and across kill/resume, exactly
//!   like every other artifact (see `docs/DETERMINISM.md`). Producers that
//!   run inside striped parallel phases buffer events per stripe and
//!   commit them in ascending router-id order, the same discipline as
//!   their stats.
//! * **the timing plane** ([`prof`]) — wall-clock scope timers around the
//!   hot phases and layer boundaries (`Network::step` sweeps, thermal
//!   build, steady solve and step, chip build, calibration, co-sim).
//!   Wall time is inherently non-deterministic, so profiles live in a
//!   separate `hotnoc-profile-v1` sidecar and are *never* part of the
//!   byte-identity guarantee.
//!
//! Both planes summarize distributions with the one [`Log2Histogram`]
//! ([`stats`]): NoC packet latencies on the first, scope durations on the
//! second.
//!
//! This crate is a dependency-free leaf so every simulation crate can emit
//! into it; serialization to the `hotnoc-trace-v1` / `hotnoc-profile-v1`
//! documents lives in `hotnoc-scenario` (which owns the canonical JSON
//! writer).
//!
//! Recording is free when unused: producers gate on "is a trace buffer
//! present" (one branch), and [`prof::scope`] is one relaxed atomic load
//! when profiling is disabled — cheap enough that the instrumented hot
//! loops stay inside the CI bench-regression budget.

pub mod event;
pub mod prof;
pub mod stats;

pub use event::TraceEvent;
pub use stats::Log2Histogram;
