//! Domain geometry: the forecast region, its grid, and the land/sea mask.
//!
//! The paper's parent domain spans 60°E–120°E and 10°S–40°N ("an area of
//! approximately 32×10⁶ sq. km"). We work on a local Cartesian plane in
//! kilometres with a fixed conversion at the domain's reference latitude —
//! adequate for a reduced model — and keep the lon/lat mapping for
//! geography (land mask, track output, figure labels).

use serde::{Deserialize, Serialize};

/// Kilometres per degree of latitude (spherical Earth).
pub const KM_PER_DEG_LAT: f64 = 111.2;

/// A meridian through open water at every latitude south of the northern
/// land boundary: east of India's coast, west of Burma's.
const OPEN_BAY_LON: f64 = 90.0;

/// Rectangular forecast domain with a lon/lat anchor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DomainGeom {
    /// Western edge, degrees east.
    pub lon_west: f64,
    /// Southern edge, degrees north (negative = south).
    pub lat_south: f64,
    /// East–west extent in degrees.
    pub lon_span: f64,
    /// South–north extent in degrees.
    pub lat_span: f64,
    /// Kilometres per degree of longitude at the reference latitude.
    pub km_per_deg_lon: f64,
}

impl DomainGeom {
    /// The paper's domain: 60°E–120°E, 10°S–40°N. Longitude scale taken at
    /// 15°N (the cyclone's genesis latitude).
    pub fn bay_of_bengal() -> Self {
        DomainGeom {
            lon_west: 60.0,
            lat_south: -10.0,
            lon_span: 60.0,
            lat_span: 50.0,
            km_per_deg_lon: KM_PER_DEG_LAT * (15.0f64).to_radians().cos(),
        }
    }

    /// Domain width in kilometres.
    pub fn width_km(&self) -> f64 {
        self.lon_span * self.km_per_deg_lon
    }

    /// Domain height in kilometres.
    pub fn height_km(&self) -> f64 {
        self.lat_span * KM_PER_DEG_LAT
    }

    /// Grid extent `(nx, ny)` at `resolution_km` spacing (at least 2×2).
    pub fn grid_size(&self, resolution_km: f64) -> (usize, usize) {
        assert!(resolution_km > 0.0);
        let nx = (self.width_km() / resolution_km).round() as usize + 1;
        let ny = (self.height_km() / resolution_km).round() as usize + 1;
        (nx.max(2), ny.max(2))
    }

    /// Kilometre coordinates of a lon/lat point (origin at the domain's
    /// south-west corner).
    pub fn lonlat_to_km(&self, lon: f64, lat: f64) -> (f64, f64) {
        (
            (lon - self.lon_west) * self.km_per_deg_lon,
            (lat - self.lat_south) * KM_PER_DEG_LAT,
        )
    }

    /// Inverse of [`DomainGeom::lonlat_to_km`].
    pub fn km_to_lonlat(&self, x_km: f64, y_km: f64) -> (f64, f64) {
        (
            self.lon_west + x_km / self.km_per_deg_lon,
            self.lat_south + y_km / KM_PER_DEG_LAT,
        )
    }

    /// True when the kilometre point lies inside the domain.
    pub fn contains_km(&self, x_km: f64, y_km: f64) -> bool {
        (0.0..=self.width_km()).contains(&x_km) && (0.0..=self.height_km()).contains(&y_km)
    }

    /// Land/sea mask for the cyclone's world: a coarse Bay-of-Bengal
    /// coastline sufficient for the intensify-over-sea / decay-over-land
    /// lifecycle. Land is:
    /// - the Gangetic plain and Himalayan foothills north of 21.5°N,
    /// - the Indian peninsula west of a slanted east coast,
    /// - the Burmese coast east of 94°E.
    pub fn is_land(&self, lon: f64, lat: f64) -> bool {
        if lat >= 21.5 {
            return true;
        }
        // Indian east coast: runs roughly from (80°E, 8°N) to (87°E, 21.5°N).
        let coast_lon = 80.0 + (lat - 8.0) * (7.0 / 13.5);
        if lat >= 8.0 && lon <= coast_lon {
            return true;
        }
        // Burma / Andaman coast.
        if lon >= 94.0 && lat >= 10.0 {
            return true;
        }
        false
    }

    /// Land mask at kilometre coordinates.
    pub fn is_land_km(&self, x_km: f64, y_km: f64) -> bool {
        let (lon, lat) = self.km_to_lonlat(x_km, y_km);
        self.is_land(lon, lat)
    }

    /// Land mask of one grid row: `row[i] = is_land_km(xs_km[i], y_km)` for
    /// column coordinates `xs_km` in non-decreasing order, found with
    /// O(log n) calls of that predicate instead of n.
    ///
    /// Along a row latitude is fixed and longitude does not decrease, and
    /// [`is_land`](Self::is_land) tests longitude only as `lon <= coast`
    /// (India, never east of 87°E) and `lon >= 94` (Burma). West of
    /// 90°E (`OPEN_BAY_LON`) land is therefore a prefix of the row and east of it
    /// a suffix — both runs may be empty or, north of 21.5°N, meet — so each
    /// end is a bisection on the predicate itself.
    pub fn fill_land_row_km(&self, xs_km: &[f64], y_km: f64, row: &mut [u8]) {
        assert_eq!(xs_km.len(), row.len(), "one mask cell per column");
        let land = |x_km: &f64| self.is_land_km(*x_km, y_km);
        let bay = xs_km.partition_point(|&x| self.km_to_lonlat(x, y_km).0 < OPEN_BAY_LON);
        let west_end = xs_km[..bay].partition_point(land);
        let east_start = bay + xs_km[bay..].partition_point(|x| !land(x));
        row[..west_end].fill(1);
        row[west_end..east_start].fill(0);
        row[east_start..].fill(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bay_of_bengal_extent_matches_paper() {
        let g = DomainGeom::bay_of_bengal();
        // ~32 million square kilometres.
        let area = g.width_km() * g.height_km();
        assert!(
            (3.0e7..4.0e7).contains(&area),
            "area {area} outside the paper's ~3.2e7 km²"
        );
    }

    #[test]
    fn lonlat_km_roundtrip() {
        let g = DomainGeom::bay_of_bengal();
        let (x, y) = g.lonlat_to_km(88.0, 14.0);
        let (lon, lat) = g.km_to_lonlat(x, y);
        assert!((lon - 88.0).abs() < 1e-9);
        assert!((lat - 14.0).abs() < 1e-9);
        assert!(x > 0.0 && y > 0.0);
    }

    #[test]
    fn grid_size_scales_with_resolution() {
        let g = DomainGeom::bay_of_bengal();
        let (nx24, ny24) = g.grid_size(24.0);
        let (nx10, ny10) = g.grid_size(10.0);
        assert!(nx10 > 2 * nx24 && ny10 > 2 * ny24);
        // 24 km over ~6450 km width → ~270 points.
        assert!((240..320).contains(&nx24), "nx24 = {nx24}");
        assert!((200..260).contains(&ny24), "ny24 = {ny24}");
    }

    #[test]
    fn land_mask_geography() {
        let g = DomainGeom::bay_of_bengal();
        assert!(!g.is_land(88.0, 14.0), "central Bay of Bengal is sea");
        assert!(g.is_land(88.4, 22.6), "Kolkata is land");
        assert!(g.is_land(88.3, 27.0), "Darjeeling is land");
        assert!(g.is_land(78.0, 15.0), "Indian peninsula is land");
        assert!(!g.is_land(90.0, 18.0), "northern bay is sea");
        assert!(g.is_land(96.0, 18.0), "Burma is land");
        assert!(!g.is_land(85.0, -5.0), "southern ocean is sea");
    }

    #[test]
    fn land_rows_match_the_per_cell_predicate() {
        let g = DomainGeom::bay_of_bengal();
        // The structure `fill_land_row_km` relies on: on either side of the
        // open-bay meridian the mask changes at most once along a parallel.
        for lat_step in 0..=500 {
            let lat = -10.0 + lat_step as f64 * 0.1;
            let changes = |lons: std::ops::Range<i32>| {
                let mask: Vec<bool> = lons.map(|l| g.is_land(l as f64 * 0.05, lat)).collect();
                mask.windows(2).filter(|w| w[0] != w[1]).count()
            };
            assert!(changes(1200..1800) <= 1, "west of the bay at {lat}N");
            assert!(changes(1800..2400) <= 1, "east of the bay at {lat}N");
        }
        // Whole grids, and nest-like windows at odd offsets and spacings.
        for (x0, y0, dx, nx, ny) in [
            (0.0, 0.0, 192.0, 34, 30),
            (0.0, 0.0, 24.0, 270, 233),
            (0.0, 0.0, 10.0, 646, 557),
            (2713.7, 1820.3, 3.3333333333333335, 331, 287),
            (-500.0, 5000.0, 7.5, 1100, 120),
        ] {
            let xs: Vec<f64> = (0..nx).map(|i| x0 + i as f64 * dx).collect();
            let mut row = vec![7u8; nx];
            for j in 0..ny {
                let y = y0 + j as f64 * dx;
                g.fill_land_row_km(&xs, y, &mut row);
                for (i, &x) in xs.iter().enumerate() {
                    assert_eq!(
                        row[i],
                        u8::from(g.is_land_km(x, y)),
                        "cell ({i}, {j}) of the {dx} km grid"
                    );
                }
            }
        }
        g.fill_land_row_km(&[], 0.0, &mut []);
    }

    #[test]
    fn contains_km_bounds() {
        let g = DomainGeom::bay_of_bengal();
        assert!(g.contains_km(0.0, 0.0));
        assert!(g.contains_km(g.width_km(), g.height_km()));
        assert!(!g.contains_km(-1.0, 0.0));
        assert!(!g.contains_km(0.0, g.height_km() + 1.0));
    }

    #[test]
    fn aila_track_crosses_coast() {
        // The cyclone starts at sea (~88E, 14N) and ends on land near
        // Darjeeling (~88.3E, 27N): the mask must flip along the way.
        let g = DomainGeom::bay_of_bengal();
        let mut crossings = 0;
        let mut prev = g.is_land(88.0, 14.0);
        for step in 1..=100 {
            let lat = 14.0 + 13.0 * step as f64 / 100.0;
            let now = g.is_land(88.0 + 0.3 * step as f64 / 100.0, lat);
            if now != prev {
                crossings += 1;
            }
            prev = now;
        }
        assert_eq!(crossings, 1, "exactly one landfall");
    }
}
