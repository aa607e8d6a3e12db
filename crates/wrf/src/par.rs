//! Row decomposition shared by the serial lanes reference and the rank
//! team in [`crate::pool`].
//!
//! WRF decomposes its domain over MPI ranks; here each rank owns a
//! contiguous **band** of rows ([`band_ranges`]), and within a band sweeps
//! run in L2-sized **row tiles** ([`row_tiles`]): a tile's rows are
//! processed for all fields of a pass before moving on, so the ~8 f64
//! streams a fused pass touches stay resident instead of being evicted
//! across a full-band walk. Both splits are bit-neutral — rows are
//! independent within a pass and neither ever splits a row — which is what
//! makes processor-count changes invisible to the physics.

/// Split `n` rows into at most `parts` contiguous non-empty bands.
pub(crate) fn band_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.clamp(1, n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for k in 0..parts {
        let len = base + usize::from(k < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Working-set budget per row tile. A fused pass streams roughly eight
/// f64 arrays (pass 1: eta/u/v/q in, eta/q out and their neighbour rows
/// come from the same arrays; pass 2 similarly), so a tile of `R` rows
/// touches ~`R · nx · 8 · 8` bytes. 256 KiB keeps that comfortably inside
/// typical per-core L2 (512 KiB – 1.25 MiB) while leaving room for the
/// halo rows above and below the tile.
const TILE_TARGET_BYTES: usize = 256 * 1024;
/// Distinct f64 streams a fused pass touches per row (see above).
const TILE_STREAMS: usize = 8;

/// Rows per tile for an `nx`-wide grid (at least 4, so tiny grids don't
/// degenerate into per-row calls).
fn rows_per_tile(nx: usize) -> usize {
    (TILE_TARGET_BYTES / (nx.max(1) * TILE_STREAMS * std::mem::size_of::<f64>())).max(4)
}

/// Split the row range `j0..j1` into cache-sized tiles (never splitting a
/// row, so tiling is invisible to the per-row probe contract). Allocation
/// free — engines iterate this inside their hot step.
pub(crate) fn row_tiles(j0: usize, j1: usize, nx: usize) -> impl Iterator<Item = (usize, usize)> {
    let rows = rows_per_tile(nx);
    (j0..j1)
        .step_by(rows)
        .map(move |t0| (t0, (t0 + rows).min(j1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_tiles_cover_exactly_and_respect_minimum() {
        for (j0, j1, nx) in [
            (0usize, 1usize, 5usize),
            (0, 349, 404),
            (3, 97, 33),
            (10, 14, 4000),
        ] {
            let tiles: Vec<_> = row_tiles(j0, j1, nx).collect();
            assert_eq!(tiles[0].0, j0);
            assert_eq!(tiles.last().unwrap().1, j1);
            for w in tiles.windows(2) {
                assert_eq!(w[0].1, w[1].0, "tiles contiguous");
            }
            // Every tile except possibly the last spans rows_per_tile ≥ 4.
            for &(a, b) in &tiles[..tiles.len() - 1] {
                assert!(b - a >= 4, "tile [{a},{b}) below the 4-row floor");
            }
        }
        // Wide grids shrink the tile toward (but never below) the floor.
        let wide: Vec<_> = row_tiles(0, 100, 1_000_000).collect();
        assert!(wide.iter().all(|&(a, b)| b - a <= 4));
        // Narrow grids get deep tiles that still fit the byte budget.
        let narrow: Vec<_> = row_tiles(0, 10_000, 64).collect();
        let depth = narrow[0].1 - narrow[0].0;
        assert!(depth * 64 * 8 * 8 <= 256 * 1024);
        assert!(depth >= 64, "narrow grids should tile deep, got {depth}");
    }

    #[test]
    fn band_ranges_cover_exactly() {
        for n in [1usize, 2, 7, 30, 31] {
            for parts in [1usize, 2, 3, 8, 64] {
                let bands = band_ranges(n, parts);
                assert_eq!(bands[0].0, 0);
                assert_eq!(bands.last().unwrap().1, n);
                for w in bands.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "bands contiguous");
                }
                assert!(bands.iter().all(|&(a, b)| b > a), "bands non-empty");
                assert!(bands.len() <= parts);
            }
        }
    }
}
