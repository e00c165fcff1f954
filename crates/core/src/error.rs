//! Error type unifying the substrate errors.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the co-simulation runtime.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum CoreError {
    /// NoC simulation failure.
    Noc(hotnoc_noc::NocError),
    /// LDPC construction/mapping failure.
    Ldpc(hotnoc_ldpc::LdpcError),
    /// Thermal model failure.
    Thermal(hotnoc_thermal::ThermalError),
    /// Calibration could not reach the target peak temperature.
    CalibrationFailed {
        /// The target peak (°C).
        target: f64,
        /// Closest achieved peak (°C).
        achieved: f64,
    },
    /// A block temperature passed [`crate::chip::MAX_BLOCK_TEMP_C`]: the
    /// leakage feedback ran away, so the run has no physical result.
    ThermalRunaway {
        /// The offending block temperature (°C).
        temp: f64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Noc(e) => write!(f, "noc: {e}"),
            CoreError::Ldpc(e) => write!(f, "ldpc: {e}"),
            CoreError::Thermal(e) => write!(f, "thermal: {e}"),
            CoreError::CalibrationFailed { target, achieved } => write!(
                f,
                "calibration failed: target peak {target} C, achieved {achieved} C"
            ),
            CoreError::ThermalRunaway { temp } => write!(
                f,
                "thermal runaway: a block reached {temp:.1} C, past the {} C bound",
                crate::chip::MAX_BLOCK_TEMP_C
            ),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Noc(e) => Some(e),
            CoreError::Ldpc(e) => Some(e),
            CoreError::Thermal(e) => Some(e),
            CoreError::CalibrationFailed { .. } | CoreError::ThermalRunaway { .. } => None,
        }
    }
}

impl From<hotnoc_noc::NocError> for CoreError {
    fn from(e: hotnoc_noc::NocError) -> Self {
        CoreError::Noc(e)
    }
}

impl From<hotnoc_ldpc::LdpcError> for CoreError {
    fn from(e: hotnoc_ldpc::LdpcError) -> Self {
        CoreError::Ldpc(e)
    }
}

impl From<hotnoc_thermal::ThermalError> for CoreError {
    fn from(e: hotnoc_thermal::ThermalError) -> Self {
        CoreError::Thermal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::from(hotnoc_ldpc::LdpcError::InvalidWeights);
        assert!(e.to_string().contains("ldpc"));
        assert!(e.source().is_some());
        let c = CoreError::CalibrationFailed {
            target: 85.0,
            achieved: 60.0,
        };
        assert!(c.to_string().contains("85"));
        assert!(c.source().is_none());
        let r = CoreError::ThermalRunaway { temp: 323.2 };
        assert!(r.to_string().contains("thermal runaway"));
        assert!(r.source().is_none());
    }
}
