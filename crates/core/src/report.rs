//! ASCII rendering of per-tile fields. The paper's exhibit tables live in
//! `hotnoc_scenario::exhibits`, next to the campaign records they read.

use std::fmt::Write as _;

/// Renders a per-tile scalar field (temperatures, power) as an ASCII
/// heatmap, row y=0 at the bottom.
///
/// # Panics
///
/// Panics if `values.len() != width * height`.
pub fn heatmap_ascii(values: &[f64], width: usize, height: usize) -> String {
    assert_eq!(values.len(), width * height, "field size mismatch");
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-9);
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut out = String::new();
    for y in (0..height).rev() {
        for x in 0..width {
            let v = values[y * width + x];
            let idx = (((v - min) / span) * (shades.len() - 1) as f64).round() as usize;
            let c = shades[idx.min(shades.len() - 1)];
            let _ = write!(out, "{c}{c}");
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "min {min:.2}  max {max:.2}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_renders_grid() {
        let vals: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let hm = heatmap_ascii(&vals, 4, 4);
        assert_eq!(hm.lines().count(), 5); // 4 rows + legend
        assert!(hm.contains("min 0.00"));
        assert!(hm.contains("max 15.00"));
        // Hottest row (y=3) renders first.
        assert!(hm.lines().next().unwrap().contains('@'));
    }
}
