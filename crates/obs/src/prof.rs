//! The non-deterministic timing plane: wall-clock scope timers around
//! named phases, accumulated into a process-global registry.
//!
//! Usage at an instrumentation site:
//!
//! ```
//! let _t = hotnoc_obs::prof::scope("noc/step/alloc_sweep");
//! // ... the phase body; the timer records on drop ...
//! ```
//!
//! When profiling is disabled (the default) `scope` is a single relaxed
//! atomic load returning `None` — the instrumented hot loops pay one
//! predictable branch, which is what keeps the CI bench-regression gate
//! green with instrumentation merged. When enabled, each scope records
//! its duration into a per-phase total plus a [`Log2Histogram`] from
//! which approximate p50/p95 are derived.
//!
//! Everything here is wall time and therefore **outside the determinism
//! guarantee**: reports go to a separate `hotnoc-profile-v1` sidecar and
//! must never be folded into a deterministic artifact.

use crate::stats::Log2Histogram;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Vec<(&'static str, PhaseStats)>> = Mutex::new(Vec::new());

/// Turns the profiler on or off. Enabling does not clear previously
/// accumulated stats; pair with [`take_report`] to start a fresh window.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether scopes are currently recording.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts timing `name` if profiling is enabled; the returned guard
/// records on drop. `name` should be a stable `subsystem/phase` path
/// (e.g. `"thermal/step"`) — it is the aggregation key.
#[inline]
#[must_use]
pub fn scope(name: &'static str) -> Option<ScopeTimer> {
    if !is_enabled() {
        return None;
    }
    Some(ScopeTimer {
        name,
        start: Instant::now(),
    })
}

/// A live scope timer; drops record into the registry.
#[derive(Debug)]
pub struct ScopeTimer {
    name: &'static str,
    start: Instant,
}

impl Drop for ScopeTimer {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
        match reg.iter_mut().find(|(n, _)| *n == self.name) {
            Some((_, stats)) => stats.record(ns),
            None => {
                let mut stats = PhaseStats::default();
                stats.record(ns);
                reg.push((self.name, stats));
            }
        }
    }
}

/// Accumulated timing of one phase.
#[derive(Debug, Default)]
struct PhaseStats {
    /// Total wall time, nanoseconds.
    total_ns: u64,
    /// Per-call durations, nanoseconds; its count is the completed scopes.
    hist: Log2Histogram,
}

impl PhaseStats {
    fn record(&mut self, ns: u64) {
        self.total_ns = self.total_ns.saturating_add(ns);
        self.hist.record(ns);
    }
}

/// One phase's row in a profile report.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// The phase path (`subsystem/phase`).
    pub name: String,
    /// Completed scopes.
    pub calls: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Mean per-call wall time, nanoseconds.
    pub mean_ns: f64,
    /// Approximate median per-call wall time, nanoseconds (the exclusive
    /// upper edge of its log2 bucket, so within 2x of the true value).
    pub p50_ns: u64,
    /// Approximate 95th-percentile per-call wall time, nanoseconds.
    pub p95_ns: u64,
}

/// A snapshot of every phase recorded so far, in first-seen order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Per-phase rows.
    pub phases: Vec<PhaseReport>,
}

fn snapshot(reg: &[(&'static str, PhaseStats)]) -> ProfileReport {
    ProfileReport {
        phases: reg
            .iter()
            .map(|(name, s)| {
                let calls = s.hist.count();
                PhaseReport {
                    name: (*name).to_string(),
                    calls,
                    total_ns: s.total_ns,
                    mean_ns: if calls == 0 {
                        0.0
                    } else {
                        s.total_ns as f64 / calls as f64
                    },
                    p50_ns: s.hist.quantile_upper_bound(0.50).unwrap_or(0),
                    p95_ns: s.hist.quantile_upper_bound(0.95).unwrap_or(0),
                }
            })
            .collect(),
    }
}

/// Snapshots the registry without clearing it.
pub fn report() -> ProfileReport {
    let reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    snapshot(&reg)
}

/// Snapshots and clears the registry — the usual end-of-run call, so
/// consecutive profiled runs in one process don't bleed into each other.
pub fn take_report() -> ProfileReport {
    let mut reg = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let out = snapshot(&reg);
    reg.clear();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enable flag and registry are process-global; tests touching
    /// them serialize on this lock to stay order-independent.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_scope_is_none() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(false);
        assert!(scope("test/never").is_none());
    }

    #[test]
    fn quantiles_bound_recorded_durations() {
        let mut s = PhaseStats::default();
        for ns in [10u64, 20, 30, 40, 1000] {
            s.record(ns);
        }
        let row = &snapshot(&[("test/q", s)]).phases[0];
        assert_eq!(row.calls, 5);
        assert_eq!(row.total_ns, 1100);
        // p50 of {10,20,30,40,1000}: true median 30, bucket [16, 32).
        assert_eq!(row.p50_ns, 32);
        // p95 lands in the 1000ns bucket [512, 1024).
        assert_eq!(row.p95_ns, 1024);
        let empty = &snapshot(&[("test/empty", PhaseStats::default())]).phases[0];
        assert_eq!((empty.calls, empty.p50_ns), (0, 0));
    }

    #[test]
    fn enabled_scopes_accumulate_and_drain() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(true);
        {
            let _t = scope("test/phase_a");
            std::hint::black_box(0u64);
        }
        {
            let _t = scope("test/phase_a");
        }
        set_enabled(false);
        let rep = take_report();
        let row = rep
            .phases
            .iter()
            .find(|p| p.name == "test/phase_a")
            .expect("phase recorded");
        assert!(row.calls >= 2);
        assert!(row.p95_ns >= row.p50_ns);
        // Registry drained: a second take shows nothing for this phase.
        assert!(!take_report()
            .phases
            .iter()
            .any(|p| p.name == "test/phase_a"));
    }
}
