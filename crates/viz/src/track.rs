//! Eye detection and track accumulation across frames.
//!
//! The visualization site watches the cyclone's eye (the surface-pressure
//! minimum) move across frames; the accumulated fixes reproduce the
//! paper's Figure 4 track from the central Bay of Bengal to the
//! Darjeeling hills.

use ncdf::{AttrValue, DType, Data, Dataset, DatasetView};

/// One eye fix extracted from one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EyeFix {
    /// Simulated minutes the frame represents.
    pub sim_minutes: f64,
    /// Eye longitude, degrees east.
    pub lon: f64,
    /// Eye latitude, degrees north.
    pub lat: f64,
    /// Minimum pressure, hPa.
    pub pressure_hpa: f64,
}

/// What eye detection reads from a frame: geometry attributes, variable
/// shapes, and the minimum of one variable. Implemented for the owned
/// [`Dataset`] (the degraded rungs decode into one) and for the borrowed
/// [`DatasetView`] (exact frames off the wire are scanned where they lie),
/// so both take the same geometry path and only the pressure variables of a
/// frame are ever converted.
pub trait PressureFrame {
    /// Global attribute lookup.
    fn attr(&self, name: &str) -> Option<&AttrValue>;
    /// Shape of variable `var`, slowest-varying first.
    fn shape(&self, var: &str) -> Option<Vec<usize>>;
    /// Flat index and value of the first minimum of `var`; `None` when the
    /// variable is absent, empty, or holds a NaN.
    fn min_of(&self, var: &str) -> Option<(usize, f64)>;
}

impl PressureFrame for Dataset {
    fn attr(&self, name: &str) -> Option<&AttrValue> {
        Dataset::attr(self, name)
    }

    fn shape(&self, var: &str) -> Option<Vec<usize>> {
        Some(self.var(var)?.shape(self))
    }

    fn min_of(&self, var: &str) -> Option<(usize, f64)> {
        match &self.var(var)?.data {
            Data::F32(v) => first_min(v.iter().map(|&x| f64::from(x))),
            Data::F64(v) => first_min(v.iter().copied()),
            Data::I32(v) => first_min(v.iter().map(|&x| f64::from(x))),
            Data::U8(v) => first_min(v.iter().map(|&x| f64::from(x))),
        }
    }
}

impl PressureFrame for DatasetView<'_> {
    fn attr(&self, name: &str) -> Option<&AttrValue> {
        DatasetView::attr(self, name)
    }

    fn shape(&self, var: &str) -> Option<Vec<usize>> {
        Some(self.var(var)?.shape(self))
    }

    fn min_of(&self, var: &str) -> Option<(usize, f64)> {
        let var = self.var(var)?;
        match var.dtype() {
            DType::F32 => first_min(var.f32s()?.map(f64::from)),
            DType::F64 => first_min(var.f64s()?),
            DType::I32 => first_min(var.i32s()?.map(f64::from)),
            DType::U8 => first_min(var.u8s()?.iter().map(|&x| f64::from(x))),
        }
    }
}

/// Index and value of the first minimum; `None` for an empty sequence or
/// one holding a NaN (no order to take a minimum in). One comparison per
/// element: `!(v >= min)` is true exactly for a new minimum or a NaN, and
/// either is rare enough for the branch to predict.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // the incomparable case is the point
fn first_min(vals: impl Iterator<Item = f64>) -> Option<(usize, f64)> {
    let mut best = None;
    let mut min = f64::INFINITY;
    for (i, v) in vals.enumerate() {
        if !(v >= min) {
            if v.is_nan() {
                return None;
            }
            min = v;
            best = Some((i, v));
        }
    }
    // An all-`+inf` field never beats the seed; it has no finite minimum.
    best
}

/// Extents `(ny, nx)` of a rank-2 variable with at least two points along
/// each axis — what mapping a grid index onto the domain divides by.
fn grid_extents(frame: &impl PressureFrame, var: &str) -> Option<(usize, usize)> {
    match frame.shape(var)?[..] {
        [ny, nx] if ny >= 2 && nx >= 2 => Some((ny, nx)),
        _ => None,
    }
}

/// Extract the eye (pressure minimum) from a frame. Prefers the nest
/// pressure field when present (finer sampling of the eye), falling back
/// to the parent. Returns `None` when the frame has no usable pressure
/// variable — absent, not a grid of at least 2×2, or with a non-finite
/// minimum — or lacks the geometry attributes.
pub fn detect_eye(frame: &impl PressureFrame) -> Option<EyeFix> {
    let sim_minutes = frame.attr("sim_minutes")?.as_f64()?;
    let corners = frame.attr("domain_lonlat")?.as_f64_list()?;
    if corners.len() != 4 {
        return None;
    }
    let (lon_w, lat_s, lon_e, lat_n) = (corners[0], corners[1], corners[2], corners[3]);

    // Try the nest first.
    if let (Some(shape), Some(origin), Some(dx)) = (
        frame.shape("nest_pressure"),
        frame.attr("nest_origin_km").and_then(|a| a.as_f64_list()),
        frame.attr("nest_dx_km").and_then(|a| a.as_f64()),
    ) {
        if origin.len() == 2 && shape.len() == 2 {
            let (idx, p) = finite(frame.min_of("nest_pressure")?)?;
            let nx = shape[1];
            let (i, j) = (idx % nx, idx / nx);
            let x_km = origin[0] + i as f64 * dx;
            let y_km = origin[1] + j as f64 * dx;
            // Geometry: km offsets over the full domain extent.
            let parent_dx = frame.attr("physics_dx_km")?.as_f64()?;
            let (parent_ny, parent_nx) = grid_extents(frame, "pressure")?;
            let width_km = (parent_nx - 1) as f64 * parent_dx;
            let height_km = (parent_ny - 1) as f64 * parent_dx;
            return Some(EyeFix {
                sim_minutes,
                lon: lon_w + (lon_e - lon_w) * x_km / width_km,
                lat: lat_s + (lat_n - lat_s) * y_km / height_km,
                pressure_hpa: p,
            });
        }
    }

    let (ny, nx) = grid_extents(frame, "pressure")?;
    let (idx, p) = finite(frame.min_of("pressure")?)?;
    let (i, j) = (idx % nx, idx / nx);
    Some(EyeFix {
        sim_minutes,
        lon: lon_w + (lon_e - lon_w) * i as f64 / (nx - 1) as f64,
        lat: lat_s + (lat_n - lat_s) * j as f64 / (ny - 1) as f64,
        pressure_hpa: p,
    })
}

fn finite(min: (usize, f64)) -> Option<(usize, f64)> {
    min.1.is_finite().then_some(min)
}

/// The accumulated track across visualized frames.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackLog {
    fixes: Vec<EyeFix>,
}

impl TrackLog {
    /// Empty track.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild a track from previously accumulated fixes — how a
    /// restarted visualization process resumes from its durable state.
    pub fn from_fixes(fixes: Vec<EyeFix>) -> Self {
        TrackLog { fixes }
    }

    /// Ingest one frame; returns the fix if the frame carried one.
    pub fn ingest(&mut self, frame: &impl PressureFrame) -> Option<EyeFix> {
        let fix = detect_eye(frame)?;
        self.fixes.push(fix);
        Some(fix)
    }

    /// Append a fix extracted elsewhere — how the track-only degradation
    /// rung delivers: the sender ships a bare [`EyeFix`] instead of a
    /// frame, and the receiver appends it directly.
    pub fn push_fix(&mut self, fix: EyeFix) {
        self.fixes.push(fix);
    }

    /// All fixes in ingestion order.
    pub fn fixes(&self) -> &[EyeFix] {
        &self.fixes
    }

    /// Deepest pressure seen so far.
    pub fn min_pressure(&self) -> Option<f64> {
        self.fixes
            .iter()
            .map(|f| f.pressure_hpa)
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
    }

    /// Total great-circle-ish track length in degrees (flat approximation,
    /// adequate for plot labelling).
    pub fn length_deg(&self) -> f64 {
        self.fixes
            .windows(2)
            .map(|w| ((w[1].lon - w[0].lon).powi(2) + (w[1].lat - w[0].lat).powi(2)).sqrt())
            .sum()
    }

    /// Render the track as CSV (`sim_minutes,lon,lat,pressure_hpa`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("sim_minutes,lon,lat,pressure_hpa\n");
        for f in &self.fixes {
            out.push_str(&format!(
                "{},{:.4},{:.4},{:.2}\n",
                f.sim_minutes, f.lon, f.lat, f.pressure_hpa
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wrf::{ModelConfig, WrfModel};

    fn model() -> WrfModel {
        WrfModel::new(ModelConfig::aila_default().with_decimation(12)).unwrap()
    }

    #[test]
    fn detects_eye_near_genesis() {
        let m = model();
        let fix = detect_eye(&m.frame()).expect("eye present");
        assert!((fix.lon - 88.0).abs() < 1.5, "lon {}", fix.lon);
        assert!((fix.lat - 14.0).abs() < 1.5, "lat {}", fix.lat);
        assert!(fix.pressure_hpa < 1010.0);
    }

    #[test]
    fn nest_pressure_takes_priority() {
        let mut m = model();
        m.advance_steps(3, 1).unwrap();
        m.spawn_nest();
        // Let the nest integrate a few steps: a freshly spawned nest is
        // pure interpolation (bounded by parent values); nudging then
        // deepens it below what the coarse parent can resolve.
        m.advance_steps(5, 1).unwrap();
        let no_nest_fix = {
            let mut m2 = m.clone();
            m2.despawn_nest();
            detect_eye(&m2.frame()).unwrap()
        };
        let nest_fix = detect_eye(&m.frame()).unwrap();
        // Nest sampling finds an eye at least as deep.
        assert!(nest_fix.pressure_hpa <= no_nest_fix.pressure_hpa + 0.2);
        assert!((nest_fix.lon - no_nest_fix.lon).abs() < 2.0);
    }

    #[test]
    fn track_accumulates_northward() {
        let mut m = model();
        let mut track = TrackLog::new();
        for _ in 0..4 {
            track.ingest(&m.frame()).expect("fix per frame");
            m.advance_to_minutes(m.sim_minutes() + 8.0 * 60.0, 1)
                .unwrap();
        }
        assert_eq!(track.fixes().len(), 4);
        let first = track.fixes()[0];
        let last = *track.fixes().last().unwrap();
        assert!(last.lat > first.lat + 0.5, "track moves north");
        assert!(track.length_deg() > 0.5);
        assert!(track.min_pressure().unwrap() <= first.pressure_hpa);
        let csv = track.to_csv();
        assert_eq!(csv.lines().count(), 5);
    }

    #[test]
    fn borrowed_view_yields_the_same_fix_as_the_owned_dataset() {
        let mut m = model();
        m.advance_steps(3, 1).unwrap();
        for nest in [false, true] {
            if nest {
                m.spawn_nest();
                m.advance_steps(2, 1).unwrap();
            }
            let ds = m.frame();
            let bytes = ds.to_bytes();
            let view = DatasetView::parse(&bytes).unwrap();
            let fix = detect_eye(&view).expect("eye present");
            assert_eq!(Some(fix), detect_eye(&ds));
            assert_eq!(Some(fix), detect_eye(&Dataset::from_bytes(&bytes).unwrap()));
        }
    }

    /// A frame-shaped dataset with a caller-chosen pressure variable.
    fn frame_with_pressure(dims: &[usize], data: Data) -> Dataset {
        let mut ds = Dataset::new();
        ds.set_attr("sim_minutes", AttrValue::F64(30.0));
        ds.set_attr(
            "domain_lonlat",
            AttrValue::F64List(vec![60.0, -10.0, 120.0, 40.0]),
        );
        let ids: Vec<_> = dims
            .iter()
            .enumerate()
            .map(|(i, &n)| ds.add_dim(format!("d{i}"), n).unwrap())
            .collect();
        ds.add_var("pressure", &ids, data).unwrap();
        ds
    }

    #[test]
    fn malformed_pressure_is_none_not_a_panic() {
        let ok = frame_with_pressure(&[2, 3], Data::F32(vec![5.0, 4.0, 3.0, 9.0, 3.0, 8.0]));
        let fix = detect_eye(&ok).expect("well-formed");
        // First of the two equal minima, at (i=2, j=0).
        assert_eq!((fix.lon, fix.lat, fix.pressure_hpa), (120.0, -10.0, 3.0));

        let cases = [
            // One NaN anywhere poisons the minimum.
            frame_with_pressure(&[2, 3], Data::F32(vec![5.0, f32::NAN, 3.0, 9.0, 3.0, 8.0])),
            // Non-finite minimum.
            frame_with_pressure(&[2, 2], Data::F64(vec![1.0, f64::NEG_INFINITY, 2.0, 3.0])),
            frame_with_pressure(&[2, 2], Data::F32(vec![f32::INFINITY; 4])),
            // Rank 1, rank 3, rank 0.
            frame_with_pressure(&[6], Data::F32(vec![1.0; 6])),
            frame_with_pressure(&[1, 2, 3], Data::F32(vec![1.0; 6])),
            frame_with_pressure(&[], Data::F32(vec![1.0])),
            // Extents below two: nothing to divide by.
            frame_with_pressure(&[1, 6], Data::F32(vec![1.0; 6])),
            frame_with_pressure(&[6, 1], Data::F32(vec![1.0; 6])),
            frame_with_pressure(&[0, 3], Data::F32(vec![])),
        ];
        for ds in &cases {
            assert_eq!(detect_eye(ds), None);
            let bytes = ds.to_bytes();
            assert_eq!(detect_eye(&DatasetView::parse(&bytes).unwrap()), None);
        }

        // A nest whose parent grid is degenerate cannot be placed either.
        let mut nested = frame_with_pressure(&[1, 6], Data::F32(vec![1.0; 6]));
        nested.set_attr("nest_origin_km", AttrValue::F64List(vec![10.0, 10.0]));
        nested.set_attr("nest_dx_km", AttrValue::F64(1.0));
        nested.set_attr("physics_dx_km", AttrValue::F64(3.0));
        let ny = nested.add_dim("ny", 2).unwrap();
        let nx = nested.add_dim("nx", 2).unwrap();
        nested
            .add_var(
                "nest_pressure",
                &[ny, nx],
                Data::F32(vec![4.0, 3.0, 2.0, 1.0]),
            )
            .unwrap();
        assert_eq!(detect_eye(&nested), None);
    }

    #[test]
    fn frame_without_pressure_is_none() {
        let ds = Dataset::new();
        assert!(detect_eye(&ds).is_none());
        let mut track = TrackLog::new();
        assert!(track.ingest(&ds).is_none());
        assert!(track.fixes().is_empty());
        assert_eq!(track.min_pressure(), None);
        assert_eq!(track.length_deg(), 0.0);
    }
}
