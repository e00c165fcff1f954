//! Regenerates **Table 1** of the paper: the transformation functions in
//! {X, Y} form, and verifies each formula against the implementation on the
//! paper's meshes. The rendered table is also saved to `table1.txt`; a
//! failed write exits non-zero.

use hotnoc_noc::Mesh;
use hotnoc_reconfig::transform::operand_bits;
use hotnoc_reconfig::{MigrationScheme, OrbitDecomposition};
use std::error::Error;
use std::fmt::Write as _;

fn main() -> Result<(), Box<dyn Error>> {
    let mut out = String::new();
    writeln!(out, "Table 1. Transformation Functions")?;
    writeln!(
        out,
        "{:<16}{:<18}{:<18}",
        "", "New X Coordinate", "New Y Coordinate"
    )?;
    for scheme in [
        MigrationScheme::Rotation,
        MigrationScheme::XMirror,
        MigrationScheme::XTranslation { offset: 1 },
    ] {
        let (x, y) = scheme.table1_row();
        let name = match scheme {
            MigrationScheme::Rotation => "Rotation",
            MigrationScheme::XMirror => "X Mirroring",
            MigrationScheme::XTranslation { .. } => "X Translation",
            _ => unreachable!(),
        };
        writeln!(out, "{name:<16}{x:<18}{y:<18}")?;
    }

    writeln!(
        out,
        "\nVerification on the paper's meshes (group order, fixed points, mean move):"
    )?;
    for side in [4usize, 5] {
        let mesh = Mesh::square(side).expect("valid mesh");
        writeln!(out, "  {side}x{side}:")?;
        for scheme in MigrationScheme::FIGURE1 {
            let orbits = OrbitDecomposition::new(scheme, mesh);
            writeln!(
                out,
                "    {:<12} order {}  fixed points {}  mean move {:.2} hops",
                scheme.to_string(),
                scheme.order(mesh),
                orbits.fixed_points().len(),
                orbits.mean_move_distance(scheme)
            )?;
        }
    }

    // §2.3: "only 3-bit operands are required to address up to 64 PEs".
    writeln!(
        out,
        "\nMigration unit: {} -bit operands address {} PEs (paper: 3-bit operands, up to 64 PEs)",
        operand_bits(Mesh::square(8).expect("valid")),
        64
    )?;

    print!("{out}");
    hotnoc_bench::save("table1.txt", &out)?;
    Ok(())
}
