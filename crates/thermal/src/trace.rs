//! Thermal trace recording and summary statistics, plus the threshold
//! watcher that turns temperature frames into deterministic
//! [`TraceEvent::TempCrossing`] events.

use hotnoc_obs::TraceEvent;

/// Summary of a recorded thermal trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalStats {
    /// Highest block temperature seen anywhere in the trace (°C).
    pub peak: f64,
    /// Index of the block where the peak occurred.
    pub peak_block: usize,
    /// Time (seconds) at which the peak occurred.
    pub peak_time: f64,
    /// Time-averaged mean block temperature (°C).
    pub mean: f64,
    /// Time-averaged per-frame maximum (°C) — the "typical" peak.
    pub mean_peak: f64,
}

/// A recorded sequence of per-block temperature frames at a fixed period.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalTrace {
    dt: f64,
    n_blocks: usize,
    frames: Vec<Vec<f64>>,
}

impl ThermalTrace {
    /// Creates an empty trace with frame period `dt` seconds for `n_blocks`
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `n_blocks == 0`.
    pub fn new(dt: f64, n_blocks: usize) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        assert!(n_blocks > 0, "need at least one block");
        ThermalTrace {
            dt,
            n_blocks,
            frames: Vec::new(),
        }
    }

    /// Appends a frame of block temperatures.
    ///
    /// # Panics
    ///
    /// Panics if the frame length differs from `n_blocks`.
    pub fn push(&mut self, block_temps: &[f64]) {
        assert_eq!(block_temps.len(), self.n_blocks, "frame length mismatch");
        self.frames.push(block_temps.to_vec());
    }

    /// Number of frames recorded.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` if no frames were recorded.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frame period in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The recorded frames.
    pub fn frames(&self) -> &[Vec<f64>] {
        &self.frames
    }

    /// Total simulated duration covered by the trace.
    pub fn duration(&self) -> f64 {
        self.dt * self.frames.len() as f64
    }

    /// Computes summary statistics over frames `skip..`, allowing a warm-up
    /// prefix to be excluded. Returns `None` if no frames remain.
    pub fn stats_after(&self, skip: usize) -> Option<ThermalStats> {
        let frames = self.frames.get(skip..)?;
        if frames.is_empty() {
            return None;
        }
        let mut peak = f64::NEG_INFINITY;
        let mut peak_block = 0;
        let mut peak_frame = 0;
        let mut mean_acc = 0.0;
        let mut mean_peak_acc = 0.0;
        for (fi, frame) in frames.iter().enumerate() {
            let mut frame_max = f64::NEG_INFINITY;
            for (bi, &t) in frame.iter().enumerate() {
                if t > peak {
                    peak = t;
                    peak_block = bi;
                    peak_frame = fi;
                }
                frame_max = frame_max.max(t);
                mean_acc += t;
            }
            mean_peak_acc += frame_max;
        }
        let n_samples = (frames.len() * self.n_blocks) as f64;
        Some(ThermalStats {
            peak,
            peak_block,
            peak_time: (skip + peak_frame) as f64 * self.dt,
            mean: mean_acc / n_samples,
            mean_peak: mean_peak_acc / frames.len() as f64,
        })
    }

    /// Summary statistics over the whole trace. `None` when empty.
    pub fn stats(&self) -> Option<ThermalStats> {
        self.stats_after(0)
    }

    /// Renders the trace as CSV (`time,block0,block1,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_s");
        for b in 0..self.n_blocks {
            out.push_str(&format!(",block{b}"));
        }
        out.push('\n');
        for (i, frame) in self.frames.iter().enumerate() {
            out.push_str(&format!("{:.9}", i as f64 * self.dt));
            for t in frame {
                out.push_str(&format!(",{t:.4}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Emits a [`TraceEvent::TempCrossing`] whenever a block crosses the
/// configured temperature threshold, with hysteresis: after a rising
/// crossing the block must cool below `threshold - hysteresis` before a
/// falling crossing (and the next rising one) can fire, so a block
/// hovering at the threshold does not spam the trace. Purely a function
/// of the observed frames — deterministic whenever they are.
#[derive(Debug, Clone)]
pub struct ThresholdWatcher {
    threshold: f64,
    hysteresis: f64,
    above: Vec<bool>,
}

impl ThresholdWatcher {
    /// Watches `n_blocks` blocks against `threshold` °C with the given
    /// hysteresis band (°C, non-negative).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not finite or `hysteresis` is negative.
    pub fn new(threshold: f64, hysteresis: f64, n_blocks: usize) -> Self {
        assert!(threshold.is_finite(), "threshold must be finite");
        assert!(
            hysteresis >= 0.0 && hysteresis.is_finite(),
            "hysteresis must be non-negative"
        );
        ThresholdWatcher {
            threshold,
            hysteresis,
            above: vec![false; n_blocks],
        }
    }

    /// The threshold being watched, °C.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Observes one frame of block temperatures at sim cycle `cycle`,
    /// pushing a crossing event per block that changed side onto `events`.
    ///
    /// # Panics
    ///
    /// Panics if the frame length differs from the watched block count.
    pub fn observe(&mut self, cycle: u64, block_temps: &[f64], events: &mut Vec<TraceEvent>) {
        assert_eq!(block_temps.len(), self.above.len(), "frame length mismatch");
        for (node, (&temp, above)) in block_temps.iter().zip(&mut self.above).enumerate() {
            let crossed = if *above {
                (temp < self.threshold - self.hysteresis).then_some(false)
            } else {
                (temp > self.threshold).then_some(true)
            };
            if let Some(rising) = crossed {
                *above = rising;
                events.push(TraceEvent::TempCrossing {
                    cycle,
                    node: node as u64,
                    temp_c: temp,
                    threshold_c: self.threshold,
                    rising,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watcher_fires_on_crossings_with_hysteresis() {
        let mut w = ThresholdWatcher::new(70.0, 0.5, 2);
        let mut events = Vec::new();
        w.observe(10, &[69.0, 71.0], &mut events); // block 1 rises
        w.observe(20, &[69.8, 69.8], &mut events); // block 1 inside the band: quiet
        w.observe(30, &[69.0, 69.0], &mut events); // block 1 falls below band
        w.observe(40, &[70.1, 69.0], &mut events); // block 0 rises
        let kinds: Vec<(u64, u64, bool)> = events
            .iter()
            .map(|e| match *e {
                TraceEvent::TempCrossing {
                    cycle,
                    node,
                    rising,
                    ..
                } => (cycle, node, rising),
                ref other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(kinds, vec![(10, 1, true), (30, 1, false), (40, 0, true)]);
    }

    #[test]
    fn stats_track_peak() {
        let mut tr = ThermalTrace::new(1e-3, 2);
        tr.push(&[40.0, 41.0]);
        tr.push(&[45.0, 80.0]);
        tr.push(&[42.0, 43.0]);
        let s = tr.stats().unwrap();
        assert_eq!(s.peak, 80.0);
        assert_eq!(s.peak_block, 1);
        assert!((s.peak_time - 1e-3).abs() < 1e-12);
        assert!((s.mean - (40.0 + 41.0 + 45.0 + 80.0 + 42.0 + 43.0) / 6.0).abs() < 1e-12);
        assert!((s.mean_peak - (41.0 + 80.0 + 43.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_skip() {
        let mut tr = ThermalTrace::new(0.5, 1);
        tr.push(&[100.0]);
        tr.push(&[50.0]);
        let s = tr.stats_after(1).unwrap();
        assert_eq!(s.peak, 50.0);
        assert!(tr.stats_after(2).is_none());
        assert!(tr.stats_after(99).is_none());
    }

    #[test]
    fn empty_trace_has_no_stats() {
        let tr = ThermalTrace::new(1.0, 3);
        assert!(tr.stats().is_none());
        assert!(tr.is_empty());
        assert_eq!(tr.duration(), 0.0);
    }

    #[test]
    fn csv_shape() {
        let mut tr = ThermalTrace::new(1e-3, 2);
        tr.push(&[40.0, 41.0]);
        let csv = tr.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("time_s,block0,block1"));
        assert!(lines[1].contains(",40.0000,41.0000"));
    }

    #[test]
    #[should_panic(expected = "frame length mismatch")]
    fn wrong_frame_length_panics() {
        let mut tr = ThermalTrace::new(1.0, 2);
        tr.push(&[1.0]);
    }
}
