//! Power breakdowns and traces.

/// Power of one tile, split by component.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Router dynamic power (W).
    pub router: f64,
    /// PE compute dynamic power (W).
    pub pe: f64,
    /// Static leakage power (W).
    pub leakage: f64,
}

impl PowerBreakdown {
    /// Total tile power (W).
    pub fn total(&self) -> f64 {
        self.router + self.pe + self.leakage
    }

    /// Scales all components (used for calibration normalization).
    pub fn scaled(&self, factor: f64) -> PowerBreakdown {
        PowerBreakdown {
            router: self.router * factor,
            pe: self.pe * factor,
            leakage: self.leakage * factor,
        }
    }
}

/// A per-block power trace at a fixed frame period; the input to
/// `hotnoc_thermal::TransientSim`.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    dt: f64,
    n_blocks: usize,
    frames: Vec<Vec<f64>>,
}

impl PowerTrace {
    /// Creates an empty trace with frame period `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `dt` or zero blocks.
    pub fn new(dt: f64, n_blocks: usize) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        assert!(n_blocks > 0, "need at least one block");
        PowerTrace {
            dt,
            n_blocks,
            frames: Vec::new(),
        }
    }

    /// Appends a frame of per-block watts.
    ///
    /// # Panics
    ///
    /// Panics if the frame length mismatches.
    pub fn push(&mut self, watts: &[f64]) {
        assert_eq!(watts.len(), self.n_blocks, "frame length mismatch");
        self.frames.push(watts.to_vec());
    }

    /// Frame period (seconds).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Recorded frames.
    pub fn frames(&self) -> &[Vec<f64>] {
        &self.frames
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when no frames are recorded.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Total energy over the trace, in joules.
    pub fn total_energy(&self) -> f64 {
        self.frames
            .iter()
            .map(|f| f.iter().sum::<f64>() * self.dt)
            .sum()
    }

    /// Time-averaged total chip power, in watts (0 for an empty trace).
    pub fn mean_chip_power(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.total_energy() / (self.dt * self.frames.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_and_scale() {
        let b = PowerBreakdown {
            router: 0.2,
            pe: 1.0,
            leakage: 0.05,
        };
        assert!((b.total() - 1.25).abs() < 1e-12);
        assert!((b.scaled(2.0).total() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn trace_energy() {
        let mut tr = PowerTrace::new(0.5, 2);
        tr.push(&[1.0, 1.0]);
        tr.push(&[2.0, 0.0]);
        assert!((tr.total_energy() - 2.0).abs() < 1e-12);
        assert!((tr.mean_chip_power() - 2.0).abs() < 1e-12);
        assert_eq!(tr.len(), 2);
    }

    #[test]
    fn empty_trace() {
        let tr = PowerTrace::new(1.0, 1);
        assert!(tr.is_empty());
        assert_eq!(tr.mean_chip_power(), 0.0);
    }

    #[test]
    #[should_panic(expected = "frame length mismatch")]
    fn wrong_frame_panics() {
        let mut tr = PowerTrace::new(1.0, 2);
        tr.push(&[1.0]);
    }
}
