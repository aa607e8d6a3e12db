//! Binary encoder/decoder for [`Dataset`].
//!
//! The exact layout has one writer, [`ExactWriter`]: the header once, then
//! one variable record at a time, payloads in bulk, into any
//! [`std::io::Write`]. [`Dataset::encode_into`] drives it over the
//! dataset's own vectors into a caller-owned `Vec<u8>`; a producer whose
//! data already lies in slices drives it directly and never builds a
//! `Dataset`. Decoding uses a bounds-checked cursor (never panics on
//! truncated input — every read is validated and surfaces
//! [`NcdfError::Truncated`]). The exact decoder itself is
//! [`DatasetView::parse`].

use crate::dataset::{Dataset, Dim, DimId, Variable};
use crate::view::DatasetView;
use crate::{AttrValue, DType, Data, NcdfError, MAGIC, VERSION};
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::BTreeMap;
use std::io::{self, Write};

// Attribute wire tags.
const ATTR_TEXT: u8 = 0;
const ATTR_F64: u8 = 1;
const ATTR_I64: u8 = 2;
const ATTR_F64LIST: u8 = 3;

impl Dataset {
    /// Serialize to a single binary blob.
    pub fn to_bytes(&self) -> Bytes {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        Bytes::from_vec(out)
    }

    /// Serialize into `out`, replacing whatever it held. The bytes are
    /// exactly those of [`Dataset::to_bytes`]; a caller that hands the same
    /// buffer back frame after frame pays no frame-sized allocation once
    /// its capacity has reached the frame size.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(exact_size_hint(
            self.payload_bytes() as usize,
            self.vars.len() + self.dims.len() + self.attrs.len(),
        ));
        self.stream_into(out)
            .expect("a Vec sink cannot fail, and a Dataset's shapes were checked by add_var");
    }

    fn stream_into(&self, out: &mut Vec<u8>) -> io::Result<()> {
        let mut w = ExactWriter::new(out, self, self.vars.len())?;
        for v in &self.vars {
            match &v.data {
                Data::F32(xs) => w.var_f32_from(&v.name, &v.dims, &v.attrs, xs, |x| x)?,
                Data::F64(xs) => w.var_f64(&v.name, &v.dims, &v.attrs, xs)?,
                Data::I32(xs) => w.var_i32(&v.name, &v.dims, &v.attrs, xs)?,
                Data::U8(xs) => w.var_u8(&v.name, &v.dims, &v.attrs, xs)?,
            }
        }
        w.finish().map(drop)
    }

    /// Parse a blob produced by [`Dataset::to_bytes`], validating structure
    /// and shapes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, NcdfError> {
        Ok(DatasetView::parse(bytes)?.into_dataset())
    }
}

/// Rough pre-allocation size for an exact blob of `payload_bytes` of
/// variable data under `records` attributes, dimensions and variables.
pub fn exact_size_hint(payload_bytes: usize, records: usize) -> usize {
    payload_bytes + 1024 + 64 * records
}

/// Streaming writer of the exact (`NCDL`) layout: the header on
/// construction, then one variable record per call, written straight from
/// the caller's slice through a per-element map — nothing the size of a
/// payload is built on the way. What it writes parses: every record's
/// element count is checked against its dimensions, and
/// [`finish`](Self::finish) against the declared variable count
/// (violations are [`io::ErrorKind::InvalidInput`]).
pub struct ExactWriter<'a, W: Write> {
    out: W,
    dims: &'a [Dim],
    vars_left: usize,
    /// Each record header is assembled here and written in one piece; a
    /// row-wise payload borrows it for its row.
    scratch: Vec<u8>,
}

impl<'a, W: Write> ExactWriter<'a, W> {
    /// Write magic, version, `header`'s global attributes and dimensions,
    /// and the count of the `nvars` variable records that will follow.
    /// `header`'s own variables, if it has any, are not written.
    pub fn new(mut out: W, header: &'a Dataset, nvars: usize) -> io::Result<Self> {
        let mut head = Vec::with_capacity(512);
        head.put_slice(MAGIC);
        head.put_u16_le(VERSION);
        put_attrs(&mut head, &header.attrs);
        put_dims(&mut head, &header.dims);
        head.put_u32_le(nvars as u32);
        out.write_all(&head)?;
        Ok(ExactWriter {
            out,
            dims: &header.dims,
            vars_left: nvars,
            scratch: head,
        })
    }

    /// An `f32` variable computed from `xs` element by element: the
    /// identity for data that is `f32` already, a narrowing cast or a
    /// diagnostic formula for a solver's `f64` grid.
    pub fn var_f32_from<T: Copy>(
        &mut self,
        name: &str,
        dims: &[DimId],
        attrs: &BTreeMap<String, AttrValue>,
        xs: &[T],
        map: impl Fn(T) -> f32,
    ) -> io::Result<()> {
        self.begin_var(name, DType::F32, dims, attrs, xs.len())?;
        put_le(&mut self.out, xs, |x| map(x).to_le_bytes())
    }

    /// An `f64` variable, verbatim.
    pub fn var_f64(
        &mut self,
        name: &str,
        dims: &[DimId],
        attrs: &BTreeMap<String, AttrValue>,
        xs: &[f64],
    ) -> io::Result<()> {
        self.begin_var(name, DType::F64, dims, attrs, xs.len())?;
        put_le(&mut self.out, xs, f64::to_le_bytes)
    }

    /// An `i32` variable, verbatim.
    pub fn var_i32(
        &mut self,
        name: &str,
        dims: &[DimId],
        attrs: &BTreeMap<String, AttrValue>,
        xs: &[i32],
    ) -> io::Result<()> {
        self.begin_var(name, DType::I32, dims, attrs, xs.len())?;
        put_le(&mut self.out, xs, i32::to_le_bytes)
    }

    /// A byte variable, verbatim.
    pub fn var_u8(
        &mut self,
        name: &str,
        dims: &[DimId],
        attrs: &BTreeMap<String, AttrValue>,
        xs: &[u8],
    ) -> io::Result<()> {
        self.begin_var(name, DType::U8, dims, attrs, xs.len())?;
        self.out.write_all(xs)
    }

    /// A byte variable of `nrows` rows of `row_len`, each produced by
    /// `fill(row index, row)` into a zeroed row and written as it is made.
    pub fn var_u8_rows(
        &mut self,
        name: &str,
        dims: &[DimId],
        attrs: &BTreeMap<String, AttrValue>,
        (nrows, row_len): (usize, usize),
        mut fill: impl FnMut(usize, &mut [u8]),
    ) -> io::Result<()> {
        self.begin_var(name, DType::U8, dims, attrs, nrows.saturating_mul(row_len))?;
        for j in 0..nrows {
            self.scratch.clear();
            self.scratch.resize(row_len, 0);
            fill(j, &mut self.scratch);
            self.out.write_all(&self.scratch)?;
        }
        Ok(())
    }

    /// Hand the sink back once every declared variable has been written.
    pub fn finish(self) -> io::Result<W> {
        if self.vars_left != 0 {
            return Err(invalid_input(format!(
                "{} declared variable(s) never written",
                self.vars_left
            )));
        }
        Ok(self.out)
    }

    fn begin_var(
        &mut self,
        name: &str,
        dtype: DType,
        dims: &[DimId],
        attrs: &BTreeMap<String, AttrValue>,
        count: usize,
    ) -> io::Result<()> {
        if self.vars_left == 0 {
            return Err(invalid_input(format!(
                "variable {name} exceeds the declared count"
            )));
        }
        let expected = dims.iter().try_fold(1usize, |n, &DimId(i)| {
            self.dims.get(i as usize).map(|d| n.saturating_mul(d.len))
        });
        if expected != Some(count) {
            return Err(invalid_input(format!(
                "variable {name}: {count} elements for dimensions holding {expected:?}"
            )));
        }
        self.vars_left -= 1;
        self.scratch.clear();
        put_var_header(&mut self.scratch, name, dtype, dims, attrs, count);
        self.out.write_all(&self.scratch)
    }
}

fn invalid_input(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Write `xs` as little-endian bytes. Values are converted one stack chunk
/// at a time and handed over with a single `write_all`, so on a
/// little-endian host the inner loop compiles to a plain copy (or a
/// vectorised map) instead of a capacity check per element.
fn put_le<T: Copy, const N: usize>(
    out: &mut impl Write,
    xs: &[T],
    to_le: impl Fn(T) -> [u8; N],
) -> io::Result<()> {
    const CHUNK_BYTES: usize = 4096;
    let mut chunk_bytes = [0u8; CHUNK_BYTES];
    for chunk in xs.chunks(CHUNK_BYTES / N) {
        let bytes = &mut chunk_bytes[..chunk.len() * N];
        for (dst, &x) in bytes.chunks_exact_mut(N).zip(chunk) {
            dst.copy_from_slice(&to_le(x));
        }
        out.write_all(bytes)?;
    }
    Ok(())
}

fn put_dims(buf: &mut impl BufMut, dims: &[Dim]) {
    buf.put_u32_le(dims.len() as u32);
    for d in dims {
        put_string(buf, &d.name);
        buf.put_u64_le(d.len as u64);
    }
}

/// Everything of a variable record that precedes its payload; shared by
/// the exact and AQZ1 encoders.
fn put_var_header(
    buf: &mut impl BufMut,
    name: &str,
    dtype: DType,
    dims: &[DimId],
    attrs: &BTreeMap<String, AttrValue>,
    count: usize,
) {
    put_string(buf, name);
    buf.put_u8(dtype.tag());
    buf.put_u32_le(dims.len() as u32);
    for &DimId(i) in dims {
        buf.put_u32_le(i);
    }
    put_attrs(buf, attrs);
    buf.put_u64_le(count as u64);
}

fn put_string(buf: &mut impl BufMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_attrs(buf: &mut impl BufMut, attrs: &BTreeMap<String, AttrValue>) {
    buf.put_u32_le(attrs.len() as u32);
    for (name, val) in attrs {
        put_string(buf, name);
        match val {
            AttrValue::Text(s) => {
                buf.put_u8(ATTR_TEXT);
                put_string(buf, s);
            }
            AttrValue::F64(v) => {
                buf.put_u8(ATTR_F64);
                buf.put_f64_le(*v);
            }
            AttrValue::I64(v) => {
                buf.put_u8(ATTR_I64);
                buf.put_i64_le(*v);
            }
            AttrValue::F64List(vs) => {
                buf.put_u8(ATTR_F64LIST);
                buf.put_u32_le(vs.len() as u32);
                vs.iter().for_each(|&v| buf.put_f64_le(v));
            }
        }
    }
}

pub(crate) fn get_attrs(c: &mut Cursor<'_>) -> Result<BTreeMap<String, AttrValue>, NcdfError> {
    let n = c.u32("attr count")? as usize;
    c.check_count(n as u64, 5, "attribute")?;
    let mut attrs = BTreeMap::new();
    for _ in 0..n {
        let name = c.string("attr name")?;
        let tag = c.u8("attr tag")?;
        let val = match tag {
            ATTR_TEXT => AttrValue::Text(c.string("attr text")?),
            ATTR_F64 => AttrValue::F64(c.f64("attr f64")?),
            ATTR_I64 => AttrValue::I64(c.i64("attr i64")?),
            ATTR_F64LIST => {
                let len = c.u32("attr list len")? as usize;
                c.check_count(len as u64, 8, "attr list element")?;
                let mut vs = Vec::with_capacity(len);
                for _ in 0..len {
                    vs.push(c.f64("attr list element")?);
                }
                AttrValue::F64List(vs)
            }
            t => return Err(NcdfError::BadTag(t)),
        };
        if attrs.insert(name.clone(), val).is_some() {
            return Err(NcdfError::DuplicateName(name));
        }
    }
    Ok(attrs)
}

pub(crate) fn get_dims(c: &mut Cursor<'_>) -> Result<Vec<Dim>, NcdfError> {
    let ndims = c.u32("dim count")? as usize;
    c.check_count(ndims as u64, 9, "dimension")?;
    let mut dims = Vec::with_capacity(ndims);
    for _ in 0..ndims {
        let name = c.string("dim name")?;
        let len = c.u64("dim length")? as usize;
        if dims.iter().any(|d: &Dim| d.name == name) {
            return Err(NcdfError::DuplicateName(name));
        }
        dims.push(Dim { name, len });
    }
    Ok(dims)
}

/// Everything of a variable record that precedes its payload, validated.
pub(crate) struct VarHeader {
    pub(crate) name: String,
    pub(crate) dtype: DType,
    pub(crate) dims: Vec<DimId>,
    pub(crate) attrs: BTreeMap<String, AttrValue>,
    /// Element count; equals the product of the dimension lengths.
    pub(crate) count: usize,
}

/// Read and validate one variable header — the record layout both wire
/// formats share. `name_taken` reports names already used by earlier
/// variables; `min_elem_bytes` is the smallest encoding of one element in
/// the calling format, which caps the declared count against what is left
/// of the buffer.
pub(crate) fn get_var_header(
    c: &mut Cursor<'_>,
    dims: &[Dim],
    name_taken: impl Fn(&str) -> bool,
    min_elem_bytes: impl Fn(DType) -> u64,
) -> Result<VarHeader, NcdfError> {
    let name = c.string("var name")?;
    if name_taken(&name) {
        return Err(NcdfError::DuplicateName(name));
    }
    let tag = c.u8("dtype")?;
    let dtype = DType::from_tag(tag).ok_or(NcdfError::BadTag(tag))?;
    let nd = c.u32("var ndims")? as usize;
    c.check_count(nd as u64, 4, "variable dim")?;
    let mut vdims = Vec::with_capacity(nd);
    for _ in 0..nd {
        let id = c.u32("dim id")?;
        if id as usize >= dims.len() {
            return Err(NcdfError::UnknownDim(id));
        }
        vdims.push(DimId(id));
    }
    let attrs = get_attrs(c)?;
    let count = c.u64("element count")?;
    c.check_count(count, min_elem_bytes(dtype), "element")?;
    let count = count as usize;
    // Saturating: corrupt dimension lengths must not overflow the product
    // (a saturated value can never equal a count the buffer has room for).
    let expected = vdims.iter().fold(1usize, |n, &DimId(i)| {
        n.saturating_mul(dims[i as usize].len)
    });
    if expected != count {
        return Err(NcdfError::ShapeMismatch {
            name,
            expected,
            actual: count,
        });
    }
    Ok(VarHeader {
        name,
        dtype,
        dims: vdims,
        attrs,
        count,
    })
}

// ---------------------------------------------------------------------------
// Quantized + delta codec (degradation-ladder rung 1)
// ---------------------------------------------------------------------------

/// Magic bytes for the quantized/delta wire format.
pub const QUANT_MAGIC: &[u8; 4] = b"AQZ1";
/// Version written by [`encode_quantized`].
pub const QUANT_VERSION: u16 = 1;

// Per-variable encoding tags inside an AQZ1 blob.
const ENC_RAW: u8 = 0;
const ENC_QUANT: u8 = 1;

/// Lossy-compress a dataset: floating-point variables are quantized to
/// 16-bit levels over their own `[min, max]` range, delta-coded against
/// the previous element, and written as zigzag LEB128 varints; integer
/// and byte variables pass through raw. Smooth physical fields (pressure,
/// winds) compress to a small fraction of [`Dataset::to_bytes`] while
/// keeping worst-case error at `(max - min) / 65535` per value.
pub fn encode_quantized(ds: &Dataset) -> Bytes {
    let mut buf = BytesMut::with_capacity(1024 + ds.payload_bytes() as usize / 2);
    buf.put_slice(QUANT_MAGIC);
    buf.put_u16_le(QUANT_VERSION);
    put_attrs(&mut buf, &ds.attrs);
    put_dims(&mut buf, &ds.dims);
    buf.put_u32_le(ds.vars.len() as u32);
    for v in &ds.vars {
        put_var_header(
            &mut buf,
            &v.name,
            v.dtype(),
            &v.dims,
            &v.attrs,
            v.data.len(),
        );
        match &v.data {
            Data::F32(xs) => {
                buf.put_u8(ENC_QUANT);
                let vals: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
                put_quantized(&mut buf, &vals);
            }
            Data::F64(xs) => {
                buf.put_u8(ENC_QUANT);
                put_quantized(&mut buf, xs);
            }
            Data::I32(xs) => {
                buf.put_u8(ENC_RAW);
                xs.iter().for_each(|&x| buf.put_i32_le(x));
            }
            Data::U8(xs) => {
                buf.put_u8(ENC_RAW);
                buf.put_slice(xs);
            }
        }
    }
    buf.freeze()
}

/// Decode a blob written by [`encode_quantized`] back into a [`Dataset`]
/// (lossy for floating-point variables, exact for integer/byte ones).
/// Fully validated: truncation, bad tags, and shape mismatches all
/// surface as errors, never panics.
pub fn decode_quantized(bytes: &[u8]) -> Result<Dataset, NcdfError> {
    let mut c = Cursor::new(bytes);
    let magic = c.take(4, "quant magic")?;
    if magic != QUANT_MAGIC {
        return Err(NcdfError::BadMagic);
    }
    let version = c.u16("quant version")?;
    if version != QUANT_VERSION {
        return Err(NcdfError::UnsupportedVersion(version));
    }
    let attrs = get_attrs(&mut c)?;
    let dims = get_dims(&mut c)?;

    let nvars = c.u32("var count")? as usize;
    c.check_count(nvars as u64, 11, "variable")?;
    let mut vars: Vec<Variable> = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        // A quantized element can shrink to a one-byte varint.
        let VarHeader {
            name,
            dtype,
            dims: vdims,
            attrs: vattrs,
            count,
        } = get_var_header(&mut c, &dims, |n| vars.iter().any(|v| v.name == n), |_| 1)?;
        let encoding = c.u8("encoding tag")?;
        let data = match (encoding, dtype) {
            (ENC_QUANT, DType::F32) => {
                let vals = get_quantized(&mut c, count)?;
                Data::F32(vals.into_iter().map(|x| x as f32).collect())
            }
            (ENC_QUANT, DType::F64) => Data::F64(get_quantized(&mut c, count)?),
            (ENC_RAW, DType::I32) => {
                let raw = c.take(count * 4, "i32 payload")?;
                Data::I32(
                    raw.chunks_exact(4)
                        .map(|b| i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                        .collect(),
                )
            }
            (ENC_RAW, DType::U8) => Data::U8(c.take(count, "u8 payload")?.to_vec()),
            (t, _) => return Err(NcdfError::BadTag(t)),
        };
        vars.push(Variable {
            name,
            dims: vdims,
            attrs: vattrs,
            data,
        });
    }
    Ok(Dataset { dims, attrs, vars })
}

/// Quantize to u16 levels over `[min, max]`, delta-code, zigzag, LEB128.
fn put_quantized(buf: &mut BytesMut, vals: &[f64]) {
    let vmin = vals.iter().copied().fold(f64::INFINITY, f64::min);
    let vmax = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (vmin, vmax) = if vmin.is_finite() && vmax.is_finite() {
        (vmin, vmax)
    } else {
        (0.0, 0.0)
    };
    buf.put_f64_le(vmin);
    buf.put_f64_le(vmax);
    let range = vmax - vmin;
    let mut prev: i64 = 0;
    for &x in vals {
        let q = if range > 0.0 {
            (((x - vmin) / range * 65535.0).round()).clamp(0.0, 65535.0) as i64
        } else {
            0
        };
        let delta = q - prev;
        prev = q;
        put_varint(buf, zigzag(delta));
    }
}

/// Inverse of [`put_quantized`]: read `count` levels and dequantize.
fn get_quantized(c: &mut Cursor<'_>, count: usize) -> Result<Vec<f64>, NcdfError> {
    let vmin = c.f64("quant min")?;
    let vmax = c.f64("quant max")?;
    let range = vmax - vmin;
    let mut vals = Vec::with_capacity(count);
    let mut prev: i64 = 0;
    for _ in 0..count {
        let delta = unzigzag(get_varint(c)?);
        let q = (prev + delta).clamp(0, 65535);
        prev = q;
        vals.push(if range > 0.0 {
            vmin + q as f64 / 65535.0 * range
        } else {
            vmin
        });
    }
    Ok(vals)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(c: &mut Cursor<'_>) -> Result<u64, NcdfError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = c.u8("varint")?;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(NcdfError::BadTag(0x80))
}

/// Bounds-checked little-endian reader.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], NcdfError> {
        if self.remaining() < n {
            return Err(NcdfError::Truncated { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, ctx: &'static str) -> Result<u8, NcdfError> {
        Ok(self.take(1, ctx)?[0])
    }

    pub(crate) fn u16(&mut self, ctx: &'static str) -> Result<u16, NcdfError> {
        let b = self.take(2, ctx)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self, ctx: &'static str) -> Result<u32, NcdfError> {
        let b = self.take(4, ctx)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, ctx: &'static str) -> Result<u64, NcdfError> {
        let b = self.take(8, ctx)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn i64(&mut self, ctx: &'static str) -> Result<i64, NcdfError> {
        Ok(self.u64(ctx)? as i64)
    }

    fn f64(&mut self, ctx: &'static str) -> Result<f64, NcdfError> {
        Ok(f64::from_bits(self.u64(ctx)?))
    }

    fn string(&mut self, ctx: &'static str) -> Result<String, NcdfError> {
        let len = self.u32(ctx)? as usize;
        let raw = self.take(len, ctx)?;
        String::from_utf8(raw.to_vec()).map_err(|_| NcdfError::BadString)
    }

    /// Reject declared counts whose minimal encoding cannot fit in what is
    /// left of the buffer — prevents attacker/corruption-driven giant
    /// allocations before we ever read the items.
    pub(crate) fn check_count(
        &self,
        count: u64,
        min_item_bytes: u64,
        context: &'static str,
    ) -> Result<(), NcdfError> {
        if count.saturating_mul(min_item_bytes.max(1)) > self.remaining() as u64 {
            return Err(NcdfError::CountTooLarge { context, count });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The encoder this format shipped with: one `put_*` call per element.
    /// Kept only as the oracle the bulk encoder is checked against.
    fn to_bytes_per_element(ds: &Dataset) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        put_attrs(&mut buf, &ds.attrs);
        buf.put_u32_le(ds.dims.len() as u32);
        for d in &ds.dims {
            put_string(&mut buf, &d.name);
            buf.put_u64_le(d.len as u64);
        }
        buf.put_u32_le(ds.vars.len() as u32);
        for v in &ds.vars {
            put_string(&mut buf, &v.name);
            buf.put_u8(v.dtype().tag());
            buf.put_u32_le(v.dims.len() as u32);
            for &DimId(i) in &v.dims {
                buf.put_u32_le(i);
            }
            put_attrs(&mut buf, &v.attrs);
            buf.put_u64_le(v.data.len() as u64);
            match &v.data {
                Data::F32(xs) => xs.iter().for_each(|&x| buf.put_f32_le(x)),
                Data::F64(xs) => xs.iter().for_each(|&x| buf.put_f64_le(x)),
                Data::I32(xs) => xs.iter().for_each(|&x| buf.put_i32_le(x)),
                Data::U8(xs) => buf.put_slice(xs),
            }
        }
        buf.to_vec()
    }

    fn arb_attrs(max: usize) -> impl Strategy<Value = BTreeMap<String, AttrValue>> {
        let value = prop_oneof![
            "[a-zA-Z0-9 _:-]{0,80}".prop_map(AttrValue::Text),
            // Finite: attribute maps are compared with `==` below.
            (-1e12f64..1e12).prop_map(AttrValue::F64),
            any::<i64>().prop_map(AttrValue::I64),
            prop::collection::vec(-1e6f64..1e6, 0..8).prop_map(AttrValue::F64List),
        ];
        prop::collection::btree_map("[a-z_]{1,12}", value, 0..max)
    }

    /// Random dims / dtypes / attrs. Payloads are raw bit patterns (NaNs and
    /// denormals included) of up to a few thousand elements, so the bulk
    /// writer crosses its stack-chunk boundary.
    fn arb_dataset() -> impl Strategy<Value = Dataset> {
        let var = (
            prop::collection::vec(any::<bool>(), 3..=3),
            0u8..4,
            any::<u64>(),
            arb_attrs(3),
        );
        (
            prop::collection::vec(0usize..40, 0..=3),
            arb_attrs(4),
            prop::collection::vec(var, 0..5),
        )
            .prop_map(|(dim_lens, attrs, vars)| {
                let mut ds = Dataset::new();
                let ids: Vec<DimId> = dim_lens
                    .iter()
                    .enumerate()
                    .map(|(i, &len)| ds.add_dim(format!("d{i}"), len).expect("unique"))
                    .collect();
                ds.attrs = attrs;
                for (vi, (mask, dtype, seed, vattrs)) in vars.into_iter().enumerate() {
                    let vdims: Vec<DimId> = ids
                        .iter()
                        .zip(&mask)
                        .filter_map(|(&id, &on)| on.then_some(id))
                        .collect();
                    let n: usize = vdims.iter().map(|d| dim_lens[d.index()]).product();
                    let mut state = seed;
                    let mut bits = move || {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state
                    };
                    let data = match dtype {
                        0 => Data::F32((0..n).map(|_| f32::from_bits(bits() as u32)).collect()),
                        1 => Data::F64((0..n).map(|_| f64::from_bits(bits())).collect()),
                        2 => Data::I32((0..n).map(|_| bits() as i32).collect()),
                        _ => Data::U8((0..n).map(|_| bits() as u8).collect()),
                    };
                    let v = ds.add_var(format!("v{vi}"), &vdims, data).expect("shape");
                    v.attrs = vattrs;
                }
                ds
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn bulk_encoder_is_byte_identical_to_per_element_reference(
            ds in arb_dataset(),
            dirt in prop::collection::vec(any::<u8>(), 0..64),
            spare in 0usize..200_000,
        ) {
            let want = to_bytes_per_element(&ds);
            prop_assert_eq!(&ds.to_bytes()[..], &want[..]);
            // A recycled buffer: stale contents, capacity above or below
            // what this dataset needs.
            let mut out = Vec::with_capacity(spare);
            out.extend_from_slice(&dirt);
            ds.encode_into(&mut out);
            prop_assert_eq!(&out, &want);
            ds.encode_into(&mut out);
            prop_assert_eq!(&out, &want);
        }

        #[test]
        fn view_agrees_with_from_bytes_on_valid_input(ds in arb_dataset()) {
            let bytes = to_bytes_per_element(&ds);
            let view = DatasetView::parse(&bytes).expect("valid");
            let owned = Dataset::from_bytes(&bytes).expect("valid");
            prop_assert_eq!(&view.attrs().collect::<Vec<_>>(), &owned.attrs().collect::<Vec<_>>());
            prop_assert_eq!(&view.dims().collect::<Vec<_>>(), &owned.dims().collect::<Vec<_>>());
            prop_assert_eq!(view.vars().count(), owned.vars().count());
            for (v, o) in view.vars().zip(owned.vars()) {
                prop_assert_eq!(&v.name, &o.name);
                prop_assert_eq!(&v.dims, &o.dims);
                prop_assert_eq!(&v.attrs, &o.attrs);
                prop_assert_eq!(v.shape(&view), o.shape(&owned));
                prop_assert_eq!(v.len(), o.data.len());
                prop_assert_eq!(v.dtype(), o.dtype());
            }
            // Payloads hold NaNs, so compare bit patterns, all at once:
            // re-encoding what the view decoded reproduces the input exactly.
            prop_assert_eq!(&owned.to_bytes()[..], &bytes[..]);
        }
    }

    /// A producer that never builds a `Dataset`: f64 grids narrowed or
    /// kept, a mask made row by row — into a sink that already holds
    /// something, as a container's does.
    #[test]
    fn streamed_records_equal_the_materialised_dataset() {
        let (ny, nx) = (37, 29);
        let grid: Vec<f64> = (0..ny * nx)
            .map(|i| (i as f64 * 0.37).sin() * 1e3)
            .collect();
        let mask_at = |j: usize, i: usize| u8::from((i + 2 * j) % 3 == 1);
        let mut head = Dataset::new();
        head.set_attr("title", AttrValue::Text("streamed".into()));
        let y = head.add_dim("y", ny).unwrap();
        let x = head.add_dim("x", nx).unwrap();

        let mut ds = head.clone();
        let narrowed = grid.iter().map(|&v| (v * 0.5) as f32).collect();
        ds.add_var("half", &[y, x], Data::F32(narrowed)).unwrap();
        ds.add_var("exact", &[y, x], Data::F64(grid.clone()))
            .unwrap();
        let mask = (0..ny * nx).map(|k| mask_at(k / nx, k % nx)).collect();
        ds.add_var("mask", &[y, x], Data::U8(mask)).unwrap();

        let none = BTreeMap::new();
        let mut out = b"prefix".to_vec();
        let mut w = ExactWriter::new(&mut out, &head, 3).unwrap();
        w.var_f32_from("half", &[y, x], &none, &grid, |v| (v * 0.5) as f32)
            .unwrap();
        w.var_f64("exact", &[y, x], &none, &grid).unwrap();
        w.var_u8_rows("mask", &[y, x], &none, (ny, nx), |j, row| {
            assert!(row.iter().all(|&b| b == 0), "rows arrive zeroed");
            for (i, b) in row.iter_mut().enumerate() {
                *b = mask_at(j, i);
            }
        })
        .unwrap();
        w.finish().unwrap();
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], &ds.to_bytes()[..]);
    }

    #[test]
    fn exact_writer_refuses_what_would_not_parse() {
        let mut head = Dataset::new();
        let x = head.add_dim("x", 4).unwrap();
        let none = BTreeMap::new();
        let kind = |r: io::Result<()>| r.unwrap_err().kind();
        let mut w = ExactWriter::new(Vec::new(), &head, 1).unwrap();
        // Element count against the dimensions; a dimension never declared.
        assert_eq!(
            kind(w.var_f64("v", &[x], &none, &[0.0; 3])),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(
            kind(w.var_u8("v", &[DimId(7)], &none, &[0; 4])),
            io::ErrorKind::InvalidInput
        );
        // A refused record wrote nothing: the declared one is still owed...
        let owed = ExactWriter::new(Vec::new(), &head, 1).unwrap().finish();
        assert_eq!(owed.unwrap_err().kind(), io::ErrorKind::InvalidInput);
        w.var_i32("v", &[x], &none, &[1, 2, 3, 4]).unwrap();
        // ... and one more than declared is refused.
        assert_eq!(
            kind(w.var_i32("w", &[x], &none, &[1, 2, 3, 4])),
            io::ErrorKind::InvalidInput
        );
        let bytes = w.finish().unwrap();
        let back = Dataset::from_bytes(&bytes).unwrap();
        assert_eq!(back.var("v").unwrap().data, Data::I32(vec![1, 2, 3, 4]));
    }

    #[test]
    fn typed_iterators_match_their_dtype_only() {
        let bytes = sample().to_bytes();
        let view = DatasetView::parse(&bytes).unwrap();
        let p = view.var("p").unwrap();
        assert_eq!(p.dtype(), DType::F32);
        assert_eq!(
            p.f32s().unwrap().collect::<Vec<_>>(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        );
        assert!(p.f64s().is_none() && p.i32s().is_none() && p.u8s().is_none());
        assert_eq!(p.raw().len(), 24);
        assert_eq!(p.shape(&view), vec![2, 3]);
        assert_eq!(p.attrs["units"].as_text(), Some("hPa"));
        let eta = view.var("eta").unwrap();
        assert_eq!(
            eta.f64s().unwrap().collect::<Vec<_>>(),
            vec![0.5, -0.5, 0.0]
        );
        let ids = view.var("ids").unwrap();
        assert_eq!(ids.i32s().unwrap().collect::<Vec<_>>(), vec![-1, 0, 1]);
        assert_eq!(
            view.var("mask").unwrap().u8s(),
            Some(&[0u8, 1, 0, 1, 0, 1][..])
        );
        assert!(!ids.is_empty());
        assert!(view.var("nope").is_none());
        assert_eq!(view.attr("step").unwrap().as_i64(), Some(42));
    }

    /// The truncation / corruption corpus the owned decoder is pinned on:
    /// the view must fail the same way, error for error.
    #[test]
    fn view_returns_the_same_typed_error_as_from_bytes() {
        let good = sample().to_bytes().to_vec();
        let mut corpus: Vec<Vec<u8>> = (0..good.len()).map(|cut| good[..cut].to_vec()).collect();
        for (at, val) in [(0usize, b'X'), (4, 0xff)] {
            let mut b = good.clone();
            b[at] = val;
            corpus.push(b);
        }
        let mut b = good.clone();
        b[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        corpus.push(b);
        // Every single-byte corruption of the header region and beyond.
        for at in 0..good.len() {
            let mut b = good.clone();
            b[at] ^= 0xa5;
            corpus.push(b);
        }
        corpus.push(encode_quantized(&sample()).to_vec());
        for bytes in &corpus {
            let owned = Dataset::from_bytes(bytes);
            let view = DatasetView::parse(bytes);
            match (owned, view) {
                (Ok(ds), Ok(v)) => assert_eq!(ds, v.into_dataset()),
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("decoders disagree: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn unknown_dtype_reports_the_byte_that_was_read() {
        // First variable record of `sample()`: name "p", then its dtype tag.
        let good = sample().to_bytes().to_vec();
        let at = good
            .windows(5)
            .position(|w| w == [1, 0, 0, 0, b'p'])
            .expect("var name `p`")
            + 5;
        assert_eq!(good[at], DType::F32.tag());
        let mut bad = good.clone();
        bad[at] = 0x2a;
        assert_eq!(Dataset::from_bytes(&bad), Err(NcdfError::BadTag(0x2a)));
        assert_eq!(
            DatasetView::parse(&bad).map(|_| ()),
            Err(NcdfError::BadTag(0x2a))
        );

        let quant = encode_quantized(&sample()).to_vec();
        let at = quant
            .windows(5)
            .position(|w| w == [1, 0, 0, 0, b'p'])
            .expect("var name `p`")
            + 5;
        let mut bad = quant.clone();
        bad[at] = 0x7b;
        assert_eq!(decode_quantized(&bad), Err(NcdfError::BadTag(0x7b)));
    }

    fn sample() -> Dataset {
        let mut ds = Dataset::new();
        ds.set_attr("title", AttrValue::Text("frame".into()));
        ds.set_attr("res_km", AttrValue::F64(24.0));
        ds.set_attr("step", AttrValue::I64(42));
        ds.set_attr(
            "corners",
            AttrValue::F64List(vec![60.0, -10.0, 120.0, 40.0]),
        );
        let y = ds.add_dim("y", 2).unwrap();
        let x = ds.add_dim("x", 3).unwrap();
        let v = ds
            .add_var("p", &[y, x], Data::F32(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
            .unwrap();
        v.attrs
            .insert("units".into(), AttrValue::Text("hPa".into()));
        ds.add_var("mask", &[y, x], Data::U8(vec![0, 1, 0, 1, 0, 1]))
            .unwrap();
        ds.add_var("eta", &[x], Data::F64(vec![0.5, -0.5, 0.0]))
            .unwrap();
        ds.add_var("ids", &[x], Data::I32(vec![-1, 0, 1])).unwrap();
        ds
    }

    #[test]
    fn roundtrip_all_types() {
        let ds = sample();
        let bytes = ds.to_bytes();
        let back = Dataset::from_bytes(&bytes).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes().to_vec();
        bytes[0] = b'X';
        assert_eq!(Dataset::from_bytes(&bytes), Err(NcdfError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample().to_bytes().to_vec();
        bytes[4] = 0xff;
        assert!(matches!(
            Dataset::from_bytes(&bytes),
            Err(NcdfError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn every_truncation_point_errors_not_panics() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let r = Dataset::from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn corrupt_count_does_not_overallocate() {
        let mut bytes = sample().to_bytes().to_vec();
        // Global attr count sits right after magic+version; blow it up.
        bytes[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let r = Dataset::from_bytes(&bytes);
        assert!(matches!(r, Err(NcdfError::CountTooLarge { .. })));
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let ds = Dataset::new();
        let back = Dataset::from_bytes(&ds.to_bytes()).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn quantized_roundtrip_bounds_error_and_preserves_structure() {
        let ds = sample();
        let bytes = encode_quantized(&ds);
        let back = decode_quantized(&bytes).unwrap();
        assert_eq!(back.dims, ds.dims);
        assert_eq!(back.attrs, ds.attrs);
        assert_eq!(back.vars.len(), ds.vars.len());
        for (orig, got) in ds.vars.iter().zip(&back.vars) {
            assert_eq!(orig.name, got.name);
            assert_eq!(orig.dims, got.dims);
            assert_eq!(orig.attrs, got.attrs);
            assert_eq!(orig.dtype(), got.dtype());
            let a = orig.data.to_f64_vec();
            let b = got.data.to_f64_vec();
            let range = a.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - a.iter().copied().fold(f64::INFINITY, f64::min);
            let tol = match orig.dtype() {
                DType::F32 | DType::F64 => range / 65535.0 + 1e-12,
                DType::I32 | DType::U8 => 0.0, // raw passthrough is exact
            };
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() <= tol, "{} vs {} (tol {tol})", x, y);
            }
        }
    }

    #[test]
    fn quantized_compresses_smooth_fields() {
        // A smooth 2-D field like surface pressure: neighboring levels
        // differ by a few quantization steps, so deltas are 1-byte varints.
        let mut ds = Dataset::new();
        let y = ds.add_dim("y", 64).unwrap();
        let x = ds.add_dim("x", 64).unwrap();
        let vals: Vec<f64> = (0..64 * 64)
            .map(|i| {
                let (r, c) = (i / 64, i % 64);
                1000.0
                    - 40.0
                        * (-((r as f64 - 32.0).powi(2) + (c as f64 - 32.0).powi(2)) / 200.0).exp()
            })
            .collect();
        ds.add_var("pressure", &[y, x], Data::F64(vals)).unwrap();
        let raw = ds.to_bytes();
        let quant = encode_quantized(&ds);
        assert!(
            (quant.len() as f64) < raw.len() as f64 * 0.30,
            "quantized {} vs raw {}",
            quant.len(),
            raw.len()
        );
        let back = decode_quantized(&quant).unwrap();
        let a = ds.var("pressure").unwrap().data.to_f64_vec();
        let b = back.var("pressure").unwrap().data.to_f64_vec();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() <= 40.0 / 65535.0 + 1e-9);
        }
    }

    #[test]
    fn quantized_every_truncation_point_errors_not_panics() {
        let bytes = encode_quantized(&sample());
        for cut in 0..bytes.len() {
            let r = decode_quantized(&bytes[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn quantized_rejects_wrong_magic_and_version() {
        let bytes = encode_quantized(&sample());
        let mut bad = bytes.to_vec();
        bad[0] = b'X';
        assert_eq!(decode_quantized(&bad), Err(NcdfError::BadMagic));
        let mut bad = bytes.to_vec();
        bad[4] = 0xff;
        assert!(matches!(
            decode_quantized(&bad),
            Err(NcdfError::UnsupportedVersion(_))
        ));
        // An NCDL blob fed to the quantized decoder is a magic mismatch,
        // and vice versa — the two formats cannot be confused.
        assert_eq!(
            decode_quantized(&sample().to_bytes()),
            Err(NcdfError::BadMagic)
        );
        assert_eq!(Dataset::from_bytes(&bytes), Err(NcdfError::BadMagic));
    }

    #[test]
    fn quantized_constant_field_roundtrips_exactly() {
        let mut ds = Dataset::new();
        let x = ds.add_dim("x", 5).unwrap();
        ds.add_var("c", &[x], Data::F64(vec![7.25; 5])).unwrap();
        let back = decode_quantized(&encode_quantized(&ds)).unwrap();
        assert_eq!(back.var("c").unwrap().data.to_f64_vec(), vec![7.25; 5]);
    }

    #[test]
    fn zigzag_varint_roundtrip_extremes() {
        for v in [0i64, 1, -1, 65535, -65535, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut buf = BytesMut::new();
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            put_varint(&mut buf, v);
        }
        let frozen = buf.freeze();
        let mut c = Cursor::new(&frozen);
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            assert_eq!(get_varint(&mut c).unwrap(), v);
        }
    }

    #[test]
    fn payload_bytes_matches_encoded_data() {
        let ds = sample();
        // 6 f32 + 6 u8 + 3 f64 + 3 i32 = 24 + 6 + 24 + 12 = 66.
        assert_eq!(ds.payload_bytes(), 66);
        // Encoded blob is payload + bounded metadata overhead.
        assert!(ds.to_bytes().len() as u64 >= ds.payload_bytes());
    }
}
