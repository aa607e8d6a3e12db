//! Minimal self-describing scientific array format ("NetCDF-lite").
//!
//! WRF writes its history frames as NetCDF; the paper's pipeline ships those
//! files from the simulation site to the remote visualization site, where a
//! custom VisIt plug-in reads them directly. This crate plays NetCDF's role:
//! a compact, self-describing container with named **dimensions**, typed
//! **variables** laid out over those dimensions, and **attributes** at both
//! the dataset and variable level, serialized to a single binary blob.
//!
//! The format is deliberately small but honest: everything the pipeline and
//! visualization engine need — shapes, units, timestamps, multiple typed
//! payloads per frame — round-trips through [`Dataset::to_bytes`] /
//! [`Dataset::from_bytes`] with full validation on decode. A reader that
//! needs one variable of many validates the same way with
//! [`DatasetView::parse`] and borrows the payloads instead of copying them;
//! a writer that emits frame after frame reuses one buffer through
//! [`Dataset::encode_into`], and one whose values already lie in its own
//! arrays streams them record by record through [`codec::ExactWriter`]
//! without building a [`Dataset`] at all.
//!
//! # Layout (version 1, little-endian)
//!
//! ```text
//! magic "NCDL" | u16 version | global attrs | dims | variables
//! attrs : u32 count, then (string name, u8 tag, payload)
//! dims  : u32 count, then (string name, u64 length)
//! vars  : u32 count, then (string name, u8 dtype, u32 ndims, u32 dim-ids,
//!         attrs, u64 element count, raw data)
//! string: u32 byte length + UTF-8 bytes
//! ```
//!
//! # Example
//!
//! ```
//! use ncdf::{Dataset, Data, AttrValue};
//!
//! let mut ds = Dataset::new();
//! ds.set_attr("title", AttrValue::Text("aila frame".into()));
//! let y = ds.add_dim("south_north", 3).unwrap();
//! let x = ds.add_dim("west_east", 2).unwrap();
//! ds.add_var("pressure", &[y, x], Data::F32(vec![1000.0; 6])).unwrap();
//!
//! let bytes = ds.to_bytes();
//! let back = Dataset::from_bytes(&bytes).unwrap();
//! assert_eq!(back.var("pressure").unwrap().shape(&back), vec![3, 2]);
//! ```

mod cdl;
pub mod codec;
mod dataset;
mod error;
mod types;
mod view;

pub use dataset::{Dataset, Dim, DimId, Variable};
pub use error::NcdfError;
pub use types::{AttrValue, DType, Data};
pub use view::{DatasetView, VarView};

/// Format magic bytes at the start of every encoded dataset.
pub const MAGIC: &[u8; 4] = b"NCDL";
/// Current format version written by [`Dataset::to_bytes`].
pub const VERSION: u16 = 1;
