//! Concurrent jobs on one chip calibrate it once.
//!
//! A file of its own because it reads `hotnoc_obs::prof`, which is
//! process-global: no other test may step a NoC in this process.

use hotnoc_core::configs::{ChipConfigId, Fidelity};
use hotnoc_core::Chip;
use hotnoc_noc::FaultPlan;
use hotnoc_obs::prof;
use hotnoc_scenario::{run_scenario, ChipKind, Mode, Policy, ScenarioSpec, Workload};
use std::sync::Barrier;

/// NoC cycles stepped since the last call, as counted by the sweep's
/// profiling scope.
fn pre_sweeps() -> u64 {
    prof::take_report()
        .phases
        .iter()
        .find(|p| p.name == "noc/step/pre_sweep")
        .map_or(0, |p| p.calls)
}

#[test]
fn concurrent_jobs_calibrate_a_chip_once() {
    let chip = ChipKind::Config(ChipConfigId::A);
    prof::set_enabled(true);
    pre_sweeps();
    let mut direct = Chip::build(chip.to_chip_spec(Fidelity::Quick)).expect("chip builds");
    direct.calibrate().expect("chip calibrates");
    let one_calibration = pre_sweeps();
    assert!(one_calibration > 0, "calibration steps the NoC");

    let spec = ScenarioSpec {
        name: "cache".to_string(),
        chip,
        workload: Workload::Ldpc,
        policy: Policy::Baseline,
        mode: Mode::Cosim,
        fidelity: Fidelity::Quick,
        sim_time_ms: Some(2.0),
        faults: FaultPlan::new(),
        seed: 0,
    };
    let start = Barrier::new(2);
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    run_scenario(&spec).expect("scenario runs")
                })
            })
            .collect();
        jobs.into_iter()
            .map(|j| j.join().expect("job thread"))
            .collect()
    });
    prof::set_enabled(false);
    assert_eq!(outcomes[0], outcomes[1]);
    // The co-sim itself steps no NoC, so every stepped cycle belongs to a
    // calibration: both jobs must have shared one.
    assert_eq!(pre_sweeps(), one_calibration);
}
