//! What a serialized model record — a history frame, a checkpoint — holds,
//! written down once and driven into either of two sinks.
//!
//! A [`Record`] is the header (global attributes and dimensions) plus, per
//! variable, *where its values lie* in the solver's grids and through which
//! map they leave. [`Record::into_dataset`] materialises that as an
//! [`ncdf::Dataset`] (quantized rungs, renderers and examples want one);
//! [`Record::write_to`] streams the same bytes [`Dataset::to_bytes`] would
//! produce straight from the grids, so the producer side never holds a
//! second copy of the model.

use crate::fields::Fields;
use crate::geom::DomainGeom;
use crate::vortex::BASE_PRESSURE_HPA;
use ncdf::codec::{exact_size_hint, ExactWriter};
use ncdf::{Data, Dataset, DimId};
use std::collections::BTreeMap;
use std::io::{self, Write};

/// Where a variable's values come from and how they are mapped on the way
/// out.
pub(crate) enum Source<'a> {
    /// An `f64` grid narrowed to `f32` (history-frame precision).
    Narrow(&'a [f64]),
    /// Surface pressure diagnosed from an `eta` grid —
    /// [`Fields::pressure_at`] cell by cell in storage order, narrowed as
    /// it is computed.
    Pressure { eta: &'a [f64], hpa_per_eta_m: f64 },
    /// An `f64` grid verbatim (checkpoint precision).
    Exact(&'a [f64]),
    /// The land/sea mask over `fields`' grid points, one byte per cell.
    LandMask {
        fields: &'a Fields,
        geom: &'a DomainGeom,
    },
}

fn pressure_f32(hpa_per_eta_m: f64) -> impl Fn(f64) -> f32 {
    move |eta| (BASE_PRESSURE_HPA + hpa_per_eta_m * eta) as f32
}

/// Row filler for the mask of `fields`' grid: `fill(j, row)` sets row `j`.
fn land_rows<'a>(fields: &'a Fields, geom: &'a DomainGeom) -> impl FnMut(usize, &mut [u8]) + 'a {
    let xs_km: Vec<f64> = (0..fields.nx()).map(|i| fields.x_km(i)).collect();
    move |j, row| geom.fill_land_row_km(&xs_km, fields.y_km(j), row)
}

/// One two-dimensional variable of a record.
pub(crate) struct Var<'a> {
    pub name: String,
    /// `[south-north, west-east]` handles from the record's header.
    pub dims: [DimId; 2],
    pub source: Source<'a>,
}

/// A frame or checkpoint, described but not yet serialized.
pub(crate) struct Record<'a> {
    /// Global attributes and dimensions; holds no variables.
    pub head: Dataset,
    pub vars: Vec<Var<'a>>,
}

impl Record<'_> {
    /// The materialising sink: every variable converted into a vector of
    /// its own.
    pub(crate) fn into_dataset(self) -> Dataset {
        let mut ds = self.head;
        for Var { name, dims, source } in self.vars {
            let data = match source {
                Source::Narrow(xs) => Data::F32(xs.iter().map(|&x| x as f32).collect()),
                Source::Pressure { eta, hpa_per_eta_m } => Data::F32(
                    eta.iter()
                        .copied()
                        .map(pressure_f32(hpa_per_eta_m))
                        .collect(),
                ),
                Source::Exact(xs) => Data::F64(xs.to_vec()),
                Source::LandMask { fields, geom } => {
                    let mut land = vec![0u8; fields.nx() * fields.ny()];
                    let mut fill = land_rows(fields, geom);
                    for (j, row) in land.chunks_exact_mut(fields.nx()).enumerate() {
                        fill(j, row);
                    }
                    Data::U8(land)
                }
            };
            ds.add_var(name, &dims, data).expect("shape matches grid");
        }
        ds
    }

    /// The byte sink: the exact encoding of [`Self::into_dataset`], each
    /// payload written from where it lies in the grids.
    pub(crate) fn write_to<W: Write>(&self, out: W) -> io::Result<()> {
        let none = BTreeMap::new();
        let mut w = ExactWriter::new(out, &self.head, self.vars.len())?;
        for Var { name, dims, source } in &self.vars {
            match *source {
                Source::Narrow(xs) => w.var_f32_from(name, dims, &none, xs, |x| x as f32)?,
                Source::Pressure { eta, hpa_per_eta_m } => {
                    w.var_f32_from(name, dims, &none, eta, pressure_f32(hpa_per_eta_m))?
                }
                Source::Exact(xs) => w.var_f64(name, dims, &none, xs)?,
                Source::LandMask { fields, geom } => w.var_u8_rows(
                    name,
                    dims,
                    &none,
                    (fields.ny(), fields.nx()),
                    land_rows(fields, geom),
                )?,
            }
        }
        w.finish().map(drop)
    }

    /// Pre-allocation size for a buffer [`Self::write_to`] will fill.
    pub(crate) fn encoded_size_hint(&self) -> usize {
        let payload: usize = self
            .vars
            .iter()
            .map(|v| match v.source {
                Source::Narrow(xs) | Source::Pressure { eta: xs, .. } => 4 * xs.len(),
                Source::Exact(xs) => 8 * xs.len(),
                Source::LandMask { fields, .. } => fields.nx() * fields.ny(),
            })
            .sum();
        let records = self.vars.len() + self.head.dims().count() + self.head.attrs().count();
        exact_size_hint(payload, records)
    }
}
