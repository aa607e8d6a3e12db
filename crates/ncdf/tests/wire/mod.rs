//! Test support shared by this crate's property suites and the root
//! `tests/frame_bytes.rs` (which includes it by path): a dataset strategy,
//! and a writer of the version-1 layout built from nothing but the public
//! `Dataset` accessors and the layout table in the crate docs — one `push`
//! per element, recording where every structural field landed so mutation
//! tests can aim at counts, lengths, tags and ids instead of random bytes.

#![allow(dead_code)]

use ncdf::{AttrValue, Data, Dataset, Variable};
use proptest::prelude::*;

/// What a structural field of an encoded blob means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// u32 attribute / dimension / variable / list count, or u32 ndims.
    Count,
    /// u32 string byte length.
    StrLen,
    /// u8 attribute tag or dtype tag.
    Tag,
    /// u64 dimension length.
    DimLen,
    /// u32 dimension id inside a variable record.
    DimId,
    /// u64 element count of a payload.
    ElemCount,
}

/// One structural field: `width` little-endian bytes at offset `at`.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    pub at: usize,
    pub width: usize,
    pub kind: FieldKind,
}

struct Writer {
    out: Vec<u8>,
    fields: Vec<Field>,
}

impl Writer {
    fn field(&mut self, kind: FieldKind, le: &[u8]) {
        self.fields.push(Field {
            at: self.out.len(),
            width: le.len(),
            kind,
        });
        self.out.extend_from_slice(le);
    }

    fn string(&mut self, s: &str) {
        self.field(FieldKind::StrLen, &(s.len() as u32).to_le_bytes());
        self.out.extend_from_slice(s.as_bytes());
    }

    fn attrs<'a>(&mut self, attrs: impl Iterator<Item = (&'a str, &'a AttrValue)>) {
        let attrs: Vec<_> = attrs.collect();
        self.field(FieldKind::Count, &(attrs.len() as u32).to_le_bytes());
        for (name, val) in attrs {
            self.string(name);
            match val {
                AttrValue::Text(s) => {
                    self.field(FieldKind::Tag, &[0]);
                    self.string(s);
                }
                AttrValue::F64(v) => {
                    self.field(FieldKind::Tag, &[1]);
                    self.out.extend_from_slice(&v.to_le_bytes());
                }
                AttrValue::I64(v) => {
                    self.field(FieldKind::Tag, &[2]);
                    self.out.extend_from_slice(&v.to_le_bytes());
                }
                AttrValue::F64List(vs) => {
                    self.field(FieldKind::Tag, &[3]);
                    self.field(FieldKind::Count, &(vs.len() as u32).to_le_bytes());
                    for v in vs {
                        self.out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
    }

    fn var(&mut self, v: &Variable) {
        self.string(&v.name);
        let tag = match v.data {
            Data::F32(_) => 0,
            Data::F64(_) => 1,
            Data::I32(_) => 2,
            Data::U8(_) => 3,
        };
        self.field(FieldKind::Tag, &[tag]);
        self.field(FieldKind::Count, &(v.dims.len() as u32).to_le_bytes());
        for d in &v.dims {
            self.field(FieldKind::DimId, &(d.index() as u32).to_le_bytes());
        }
        self.attrs(v.attrs.iter().map(|(k, a)| (k.as_str(), a)));
        self.field(FieldKind::ElemCount, &(v.data.len() as u64).to_le_bytes());
        match &v.data {
            Data::F32(xs) => xs
                .iter()
                .for_each(|x| self.out.extend_from_slice(&x.to_le_bytes())),
            Data::F64(xs) => xs
                .iter()
                .for_each(|x| self.out.extend_from_slice(&x.to_le_bytes())),
            Data::I32(xs) => xs
                .iter()
                .for_each(|x| self.out.extend_from_slice(&x.to_le_bytes())),
            Data::U8(xs) => xs.iter().for_each(|&x| self.out.push(x)),
        }
    }
}

/// Encode `ds` element by element per the documented layout; returns the
/// blob and the position of every structural field in it.
pub fn encode_per_element(ds: &Dataset) -> (Vec<u8>, Vec<Field>) {
    let mut w = Writer {
        out: Vec::new(),
        fields: Vec::new(),
    };
    w.out.extend_from_slice(ncdf::MAGIC);
    w.out.extend_from_slice(&ncdf::VERSION.to_le_bytes());
    w.attrs(ds.attrs());
    let dims: Vec<_> = ds.dims().collect();
    w.field(FieldKind::Count, &(dims.len() as u32).to_le_bytes());
    for d in dims {
        w.string(&d.name);
        w.field(FieldKind::DimLen, &(d.len as u64).to_le_bytes());
    }
    let vars: Vec<_> = ds.vars().collect();
    w.field(FieldKind::Count, &(vars.len() as u32).to_le_bytes());
    for v in vars {
        w.var(v);
    }
    (w.out, w.fields)
}

pub fn arb_attr() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        "[a-zA-Z0-9 _:-]{0,32}".prop_map(AttrValue::Text),
        // Finite floats only: NaN would break Dataset equality in the
        // roundtrip assertion (the format itself carries NaN fine).
        (-1e12f64..1e12).prop_map(AttrValue::F64),
        any::<i64>().prop_map(AttrValue::I64),
        prop::collection::vec(-1e6f64..1e6, 0..8).prop_map(AttrValue::F64List),
    ]
}

fn arb_data(len: usize) -> impl Strategy<Value = Data> {
    prop_oneof![
        prop::collection::vec(-1e6f32..1e6, len..=len).prop_map(Data::F32),
        prop::collection::vec(-1e12f64..1e12, len..=len).prop_map(Data::F64),
        prop::collection::vec(any::<i32>(), len..=len).prop_map(Data::I32),
        prop::collection::vec(any::<u8>(), len..=len).prop_map(Data::U8),
    ]
}

pub fn arb_dataset() -> impl Strategy<Value = Dataset> {
    // Dim lengths kept small so payloads stay cheap.
    let dims = prop::collection::vec(1usize..5, 0..4);
    let attrs = prop::collection::btree_map("[a-z_]{1,12}", arb_attr(), 0..4);
    (dims, attrs).prop_flat_map(|(dim_lens, attrs)| {
        let ndims = dim_lens.len();
        // For each variable: which dims it spans (as a subset mask kept in
        // order) — generated as booleans per dim.
        let var_specs = prop::collection::vec(
            (
                prop::collection::vec(any::<bool>(), ndims..=ndims),
                prop::collection::btree_map("[a-z_]{1,12}", arb_attr(), 0..3),
            ),
            0..4,
        );
        (Just(dim_lens), Just(attrs), var_specs).prop_flat_map(|(dim_lens, attrs, specs)| {
            let mut strategies: Vec<BoxedStrategy<(Vec<usize>, Data)>> = Vec::new();
            for (mask, _) in &specs {
                let picked: Vec<usize> = mask
                    .iter()
                    .enumerate()
                    .filter(|(_, &m)| m)
                    .map(|(i, _)| i)
                    .collect();
                let len: usize = picked.iter().map(|&i| dim_lens[i]).product();
                let picked_clone = picked.clone();
                strategies.push(
                    arb_data(len)
                        .prop_map(move |d| (picked_clone.clone(), d))
                        .boxed(),
                );
            }
            let dim_lens2 = dim_lens.clone();
            let attrs2 = attrs.clone();
            let var_attrs: Vec<_> = specs.into_iter().map(|(_, a)| a).collect();
            strategies.prop_map(move |vars| {
                let mut ds = Dataset::new();
                let mut ids = Vec::new();
                for (i, &len) in dim_lens2.iter().enumerate() {
                    ids.push(ds.add_dim(format!("d{i}"), len).expect("unique dim names"));
                }
                for (k, v) in &attrs2 {
                    ds.set_attr(k.clone(), v.clone());
                }
                for (vi, (picked, data)) in vars.into_iter().enumerate() {
                    let vdims: Vec<_> = picked.iter().map(|&i| ids[i]).collect();
                    let var = ds
                        .add_var(format!("v{vi}"), &vdims, data)
                        .expect("shape matches by construction");
                    var.attrs = var_attrs[vi].clone();
                }
                ds
            })
        })
    })
}
