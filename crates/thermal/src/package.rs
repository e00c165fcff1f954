//! Package stack configuration: die, TIM, spreader, sink, convection.

use crate::error::ThermalError;
use crate::materials::Material;

/// Geometry and material parameters of the chip package.
///
/// The default values are HotSpot-style: a silicon die under thermal grease,
/// a copper heat spreader and heat sink, and a lumped convection resistance
/// to ambient. [`PackageConfig::date05_defaults`] additionally sets the
/// paper's 40 °C ambient and a convection resistance sized for the small
/// embedded package of a 160 nm LDPC decoder chip. Each configuration's
/// power is then scaled so its steady-state peak matches the paper's
/// measured base temperature (`Chip::calibrate` in `hotnoc-core`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackageConfig {
    /// Die thickness in metres.
    pub t_die: f64,
    /// Die material.
    pub die: Material,
    /// Thermal-interface-material thickness in metres.
    pub t_tim: f64,
    /// TIM material.
    pub tim: Material,
    /// Heat-spreader side length in metres.
    pub spreader_side: f64,
    /// Heat-spreader thickness in metres.
    pub t_spreader: f64,
    /// Spreader material.
    pub spreader: Material,
    /// Heat-sink base side length in metres.
    pub sink_side: f64,
    /// Heat-sink base thickness in metres.
    pub t_sink: f64,
    /// Sink material.
    pub sink: Material,
    /// Convection resistance sink -> ambient, in K/W.
    pub r_convec: f64,
    /// Lumped convection (sink fin + air) capacity in J/K.
    pub c_convec: f64,
    /// Ambient temperature in °C.
    pub ambient_celsius: f64,
    /// Lumped-RC capacitance scaling factor (HotSpot uses ~0.33 for the
    /// block model to match distributed-RC step responses).
    pub cap_factor: f64,
}

impl Default for PackageConfig {
    fn default() -> Self {
        PackageConfig {
            t_die: 0.3e-3,
            die: Material::SILICON,
            t_tim: 75.0e-6,
            tim: Material::TIM,
            spreader_side: 30.0e-3,
            t_spreader: 1.0e-3,
            spreader: Material::COPPER,
            sink_side: 60.0e-3,
            t_sink: 6.9e-3,
            sink: Material::COPPER,
            r_convec: 0.9,
            c_convec: 140.4,
            ambient_celsius: 45.0,
            cap_factor: 0.33,
        }
    }
}

impl PackageConfig {
    /// The configuration used throughout the paper's experiments: HotSpot
    /// defaults with a 40 °C ambient.
    pub fn date05_defaults() -> Self {
        PackageConfig {
            ambient_celsius: 40.0,
            ..PackageConfig::default()
        }
    }

    /// Validates physical plausibility of every parameter.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidPackage`] naming the first bad field.
    pub fn validate(&self) -> Result<(), ThermalError> {
        let checks: [(&'static str, f64); 9] = [
            ("t_die", self.t_die),
            ("t_tim", self.t_tim),
            ("spreader_side", self.spreader_side),
            ("t_spreader", self.t_spreader),
            ("sink_side", self.sink_side),
            ("t_sink", self.t_sink),
            ("r_convec", self.r_convec),
            ("c_convec", self.c_convec),
            ("cap_factor", self.cap_factor),
        ];
        for (name, v) in checks {
            if !(v.is_finite() && v > 0.0) {
                return Err(ThermalError::InvalidPackage { what: name });
            }
        }
        if !self.ambient_celsius.is_finite() {
            return Err(ThermalError::InvalidPackage {
                what: "ambient_celsius",
            });
        }
        for (name, m) in [
            ("die material", self.die),
            ("tim material", self.tim),
            ("spreader material", self.spreader),
            ("sink material", self.sink),
        ] {
            if !(m.conductivity > 0.0 && m.volumetric_capacity > 0.0) {
                return Err(ThermalError::InvalidPackage { what: name });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        PackageConfig::default().validate().unwrap();
        PackageConfig::date05_defaults().validate().unwrap();
    }

    #[test]
    fn date05_ambient_is_40c() {
        assert_eq!(PackageConfig::date05_defaults().ambient_celsius, 40.0);
    }

    #[test]
    fn bad_values_rejected() {
        let p = PackageConfig {
            t_die: 0.0,
            ..PackageConfig::default()
        };
        assert!(p.validate().is_err());
        let p = PackageConfig {
            r_convec: f64::NAN,
            ..PackageConfig::default()
        };
        assert!(p.validate().is_err());
        let p = PackageConfig {
            ambient_celsius: f64::INFINITY,
            ..PackageConfig::default()
        };
        assert!(p.validate().is_err());
    }
}
