//! Software visualization engine — the VisIt stand-in.
//!
//! The paper visualizes WRF output at the remote site with VisIt
//! (pseudocolor, contour and vector-glyph plots, volume rendering) through
//! a custom plug-in that reads the NetCDF files directly. This crate plays
//! that role for the [`ncdf`] frames the pipeline ships:
//!
//! - [`Colormap`] — perceptual and diverging color maps,
//! - [`RgbImage`] — an in-memory raster with PPM (P6) export and simple
//!   vector drawing (lines, rectangles, markers),
//! - [`render::pseudocolor`] — scalar-field pseudocolor plots,
//! - [`contour::marching_squares`] — iso-line extraction,
//! - [`glyph`] — wind-vector arrows,
//! - [`FrameRenderer`] — the "VisIt plug-in": reads a frame dataset
//!   directly and composes the paper's Figure 3/4-style views (windspeed
//!   in the nest inside the parent, perturbation-pressure maps, the track
//!   of the eye),
//! - [`track`] — eye detection and track accumulation across frames.
//!
//! # Example
//!
//! ```
//! use wrf::{ModelConfig, WrfModel};
//! use viz::FrameRenderer;
//!
//! let mut model = WrfModel::new(ModelConfig::aila_default().with_decimation(16)).unwrap();
//! model.advance_to_minutes(30.0, 1).unwrap();
//! let frame = model.frame();
//! let image = FrameRenderer::default().render(&frame).unwrap();
//! let ppm = image.to_ppm();
//! assert!(ppm.starts_with(b"P6"));
//! ```

mod colormap;
pub mod contour;
mod font;
pub mod glyph;
mod image;
pub mod plot;
pub mod render;
mod renderer;
pub mod track;

pub use colormap::Colormap;
pub use image::RgbImage;
pub use plot::{Plot, PlotSeries};
pub use renderer::{FrameRenderer, RenderError, ScalarField};
pub use track::{EyeFix, PressureFrame, TrackLog};
