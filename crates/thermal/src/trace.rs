//! The threshold watcher that turns temperature frames into deterministic
//! [`TraceEvent::TempCrossing`] events.

use hotnoc_obs::TraceEvent;

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
}
