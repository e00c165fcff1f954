//! Material constants for the die and package stack.
//!
//! Values follow the HotSpot tool's defaults (silicon and copper at typical
//! operating temperatures); the thermal interface material matches a
//! standard thermal grease.

/// A homogeneous thermal material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Thermal conductivity in W/(m·K).
    pub conductivity: f64,
    /// Volumetric heat capacity in J/(m^3·K).
    pub volumetric_capacity: f64,
}

impl Material {
    /// Silicon (HotSpot default: k = 100 W/mK, c = 1.75e6 J/m^3K).
    pub const SILICON: Material = Material {
        conductivity: 100.0,
        volumetric_capacity: 1.75e6,
    };

    /// Copper (spreader and sink; k = 400 W/mK, c = 3.55e6 J/m^3K).
    pub const COPPER: Material = Material {
        conductivity: 400.0,
        volumetric_capacity: 3.55e6,
    };

    /// Thermal interface grease (k = 4 W/mK, c = 4.0e6 J/m^3K).
    pub const TIM: Material = Material {
        conductivity: 4.0,
        volumetric_capacity: 4.0e6,
    };

    /// Conduction resistance through a slab of this material:
    /// `R = t / (k * area)` in K/W.
    ///
    /// # Panics
    ///
    /// Panics (debug) on non-positive thickness or area.
    pub fn slab_resistance(&self, thickness_m: f64, area_m2: f64) -> f64 {
        debug_assert!(thickness_m > 0.0 && area_m2 > 0.0);
        thickness_m / (self.conductivity * area_m2)
    }

    /// Heat capacity of a slab: `C = c_vol * t * area` in J/K.
    pub fn slab_capacity(&self, thickness_m: f64, area_m2: f64) -> f64 {
        self.volumetric_capacity * thickness_m * area_m2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silicon_slab_resistance() {
        // 0.3 mm silicon over 1 cm^2: R = 3e-4 / (100 * 1e-4) = 0.03 K/W
        let r = Material::SILICON.slab_resistance(0.3e-3, 1e-4);
        assert!((r - 0.03).abs() < 1e-12);
    }

    #[test]
    fn copper_conducts_better_than_tim() {
        let r_cu = Material::COPPER.slab_resistance(1e-3, 1e-4);
        let r_tim = Material::TIM.slab_resistance(1e-3, 1e-4);
        assert!(r_cu < r_tim);
    }

    #[test]
    fn capacity_scales_with_volume() {
        let c1 = Material::SILICON.slab_capacity(1e-3, 1e-4);
        let c2 = Material::SILICON.slab_capacity(2e-3, 1e-4);
        assert!((c2 / c1 - 2.0).abs() < 1e-12);
    }
}
