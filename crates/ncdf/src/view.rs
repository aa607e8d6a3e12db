//! Borrowed decode of the exact wire format.
//!
//! [`DatasetView::parse`] is *the* parser of an `NCDL` blob:
//! [`Dataset::from_bytes`] is this parse followed by
//! [`DatasetView::into_dataset`], so the two cannot disagree on what is valid.
//! The view owns only the header (names, attributes, dimension lists — a
//! few hundred bytes for a model frame); every payload stays a slice of the
//! input. A reader that wants one variable of eleven — the viewer scanning
//! `pressure` for the eye — converts that one and never allocates the rest.

use crate::codec::{get_attrs, get_dims, get_var_header, Cursor, VarHeader};
use crate::dataset::{Dataset, Dim, DimId, Variable};
use crate::{AttrValue, DType, Data, NcdfError, MAGIC, VERSION};
use std::collections::BTreeMap;

/// One variable of a [`DatasetView`]: a validated header plus the
/// little-endian payload bytes, still inside the blob they arrived in.
#[derive(Debug, Clone, PartialEq)]
pub struct VarView<'a> {
    /// Variable name.
    pub name: String,
    /// Dimension handles, slowest-varying first.
    pub dims: Vec<DimId>,
    /// Per-variable attributes.
    pub attrs: BTreeMap<String, AttrValue>,
    dtype: DType,
    raw: &'a [u8],
}

impl<'a> VarView<'a> {
    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.raw.len() / self.dtype.size()
    }

    /// True when the payload holds no elements.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Lengths of this variable's dimensions, slowest-varying first.
    pub fn shape(&self, view: &DatasetView<'_>) -> Vec<usize> {
        self.dims
            .iter()
            .map(|&DimId(i)| view.dims[i as usize].len)
            .collect()
    }

    /// The payload as it sits on the wire (little-endian, row-major).
    pub fn raw(&self) -> &'a [u8] {
        self.raw
    }

    /// The elements, when this is an `F32` payload.
    pub fn f32s(&self) -> Option<impl Iterator<Item = f32> + Clone + 'a> {
        (self.dtype == DType::F32).then(|| le_values(self.raw, f32::from_le_bytes))
    }

    /// The elements, when this is an `F64` payload.
    pub fn f64s(&self) -> Option<impl Iterator<Item = f64> + Clone + 'a> {
        (self.dtype == DType::F64).then(|| le_values(self.raw, f64::from_le_bytes))
    }

    /// The elements, when this is an `I32` payload.
    pub fn i32s(&self) -> Option<impl Iterator<Item = i32> + Clone + 'a> {
        (self.dtype == DType::I32).then(|| le_values(self.raw, i32::from_le_bytes))
    }

    /// The elements, when this is a `U8` payload.
    pub fn u8s(&self) -> Option<&'a [u8]> {
        (self.dtype == DType::U8).then_some(self.raw)
    }

    /// Copy the payload out as an owned, typed array.
    pub fn to_data(&self) -> Data {
        match self.dtype {
            DType::F32 => Data::F32(le_values(self.raw, f32::from_le_bytes).collect()),
            DType::F64 => Data::F64(le_values(self.raw, f64::from_le_bytes).collect()),
            DType::I32 => Data::I32(le_values(self.raw, i32::from_le_bytes).collect()),
            DType::U8 => Data::U8(self.raw.to_vec()),
        }
    }
}

/// `from_le` is a generic parameter, not a function pointer, so each
/// conversion is inlined into the caller's loop.
fn le_values<'a, T, const N: usize>(
    raw: &'a [u8],
    from_le: impl Fn([u8; N]) -> T + Clone + 'a,
) -> impl Iterator<Item = T> + Clone + 'a {
    raw.chunks_exact(N)
        .map(move |b| from_le(b.try_into().expect("chunks_exact yields N bytes")))
}

/// A validated `NCDL` blob whose payloads are still borrowed from it.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetView<'a> {
    dims: Vec<Dim>,
    attrs: BTreeMap<String, AttrValue>,
    vars: Vec<VarView<'a>>,
}

impl<'a> DatasetView<'a> {
    /// Validate a blob produced by [`Dataset::to_bytes`] — magic, version,
    /// every declared count against the bytes that are left, names, tags
    /// and shapes — without copying any payload out of it.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, NcdfError> {
        let mut c = Cursor::new(bytes);
        let magic = c.take(4, "magic")?;
        if magic != MAGIC {
            return Err(NcdfError::BadMagic);
        }
        let version = c.u16("version")?;
        if version != VERSION {
            return Err(NcdfError::UnsupportedVersion(version));
        }
        let attrs = get_attrs(&mut c)?;
        let dims = get_dims(&mut c)?;

        let nvars = c.u32("var count")? as usize;
        c.check_count(nvars as u64, 10, "variable")?;
        let mut vars: Vec<VarView<'a>> = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            let VarHeader {
                name,
                dtype,
                dims: vdims,
                attrs: vattrs,
                count,
            } = get_var_header(
                &mut c,
                &dims,
                |n| vars.iter().any(|v| v.name == n),
                |dtype| dtype.size() as u64,
            )?;
            let context = match dtype {
                DType::F32 => "f32 payload",
                DType::F64 => "f64 payload",
                DType::I32 => "i32 payload",
                DType::U8 => "u8 payload",
            };
            vars.push(VarView {
                name,
                dims: vdims,
                attrs: vattrs,
                dtype,
                raw: c.take(count * dtype.size(), context)?,
            });
        }
        Ok(DatasetView { dims, attrs, vars })
    }

    /// Global attribute lookup.
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attrs.get(name)
    }

    /// All global attributes in name order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All dimensions in declaration order.
    pub fn dims(&self) -> impl Iterator<Item = &Dim> {
        self.dims.iter()
    }

    /// Variable lookup by name.
    pub fn var(&self, name: &str) -> Option<&VarView<'a>> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// All variables in wire order.
    pub fn vars(&self) -> impl Iterator<Item = &VarView<'a>> {
        self.vars.iter()
    }

    /// Materialise every payload into an owned [`Dataset`].
    pub fn into_dataset(self) -> Dataset {
        Dataset {
            dims: self.dims,
            attrs: self.attrs,
            vars: self
                .vars
                .into_iter()
                .map(|v| Variable {
                    data: v.to_data(),
                    name: v.name,
                    dims: v.dims,
                    attrs: v.attrs,
                })
                .collect(),
        }
    }
}
