//! Property tests: arbitrary datasets round-trip bit-exactly, and neither
//! byte soup nor aimed corruption of a valid blob panics a decoder or makes
//! it allocate beyond what the input can back.

#[path = "wire/alloc.rs"]
mod alloc;
mod wire;

use alloc::largest_alloc_during;
use ncdf::{Dataset, DatasetView, NcdfError};
use proptest::prelude::*;
use wire::{arb_dataset, encode_per_element, Field, FieldKind};

/// Header records are wider in memory than on the wire (a 21-byte variable
/// record becomes a ~100-byte struct, a 12-byte dimension a 32-byte one),
/// so the largest allocation a decode may make is a small constant multiple
/// of the input plus a floor for tiny inputs. What it rules out is an
/// allocation sized by a declared count that the remaining bytes cannot
/// back: those are checked before anything is reserved.
fn alloc_bound(input_len: usize) -> usize {
    16 * input_len + 256
}

/// Both decoders on `bytes`: never a panic, the same typed error or the
/// same value, and no allocation beyond the bound.
fn check_both_decoders(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (owned, owned_peak) = largest_alloc_during(|| Dataset::from_bytes(bytes));
    let (view, view_peak) = largest_alloc_during(|| DatasetView::parse(bytes));
    prop_assert!(
        owned_peak <= alloc_bound(bytes.len()),
        "from_bytes allocated {owned_peak} B for a {} B input",
        bytes.len()
    );
    prop_assert!(
        view_peak <= alloc_bound(bytes.len()),
        "DatasetView::parse allocated {view_peak} B for a {} B input",
        bytes.len()
    );
    match (owned, view) {
        (Ok(ds), Ok(v)) => {
            // A value that decodes is a value the encoder can write back.
            let rewritten = ds.to_bytes();
            let again = Dataset::from_bytes(&rewritten).expect("re-encoded value decodes");
            prop_assert_eq!(&again.to_bytes()[..], &rewritten[..]);
            prop_assert_eq!(&v.into_dataset().to_bytes()[..], &rewritten[..]);
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        (a, b) => prop_assert!(false, "decoders disagree: {a:?} vs {b:?}"),
    }
    Ok(())
}

/// Values worth writing into a structural field: boundaries, off-by-ones,
/// and magnitudes that overflow `count × size` or a shape product.
fn hostile_values(current: u64, salt: u64) -> [u64; 10] {
    [
        0,
        1,
        current.wrapping_add(1),
        current.wrapping_sub(1),
        current.wrapping_mul(2),
        0x7fff_ffff,
        0xffff_ffff,
        1 << 40,
        u64::MAX,
        salt,
    ]
}

fn read_field(bytes: &[u8], f: Field) -> u64 {
    let mut le = [0u8; 8];
    le[..f.width].copy_from_slice(&bytes[f.at..f.at + f.width]);
    u64::from_le_bytes(le)
}

fn write_field(bytes: &mut [u8], f: Field, value: u64) {
    bytes[f.at..f.at + f.width].copy_from_slice(&value.to_le_bytes()[..f.width]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_is_identity(ds in arb_dataset()) {
        let bytes = ds.to_bytes();
        let back = Dataset::from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(ds, back);
    }

    #[test]
    fn bulk_encoder_writes_the_documented_layout(ds in arb_dataset()) {
        prop_assert_eq!(ds.to_bytes().to_vec(), encode_per_element(&ds).0);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        check_both_decoders(&bytes)?;
    }

    #[test]
    fn decoder_never_panics_on_mutated_valid_blob(
        ds in arb_dataset(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
    ) {
        let mut bytes = ds.to_bytes().to_vec();
        if bytes.is_empty() { return Ok(()); }
        for (idx, val) in flips {
            let i = idx.index(bytes.len());
            bytes[i] ^= val;
        }
        check_both_decoders(&bytes)?;
    }

    /// Structure-aware mutation: overwrite one to three *fields* — counts,
    /// string and dimension lengths, tags, dimension ids, element counts —
    /// with boundary and overflow values, optionally cut the blob at a field
    /// boundary or splice a record region over another.
    #[test]
    fn decoders_survive_aimed_field_corruption(
        ds in arb_dataset(),
        hits in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), any::<u64>()),
            1..4,
        ),
        cut in any::<prop::sample::Index>(),
        splice in (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
        mode in 0u8..4,
    ) {
        let (good, fields) = encode_per_element(&ds);
        check_both_decoders(&good)?;
        let mut bytes = good.clone();
        for (which, value, salt) in hits {
            let f = fields[which.index(fields.len())];
            let values = hostile_values(read_field(&bytes, f), salt);
            write_field(&mut bytes, f, values[value.index(values.len())]);
        }
        match mode {
            // Truncate exactly at a field (where a lazy reader would trust
            // the count it just read).
            1 => bytes.truncate(fields[cut.index(fields.len())].at),
            // Copy the bytes from one field onward over another field's
            // position: records land where other records are expected.
            2 => {
                let from = fields[splice.0.index(fields.len())].at;
                let to = fields[splice.1.index(fields.len())].at;
                let tail = good[from..].to_vec();
                bytes.truncate(to);
                bytes.extend_from_slice(&tail);
            }
            _ => {}
        }
        check_both_decoders(&bytes)?;
    }
}

/// The named worst cases, pinned outside the random search.
#[test]
fn declared_counts_never_size_an_allocation_the_input_cannot_back() {
    let mut ds = Dataset::new();
    ds.set_attr("list", ncdf::AttrValue::F64List(vec![1.0, 2.0]));
    let y = ds.add_dim("y", 30).unwrap();
    let x = ds.add_dim("x", 40).unwrap();
    ds.add_var("p", &[y, x], ncdf::Data::F64(vec![0.5; 1200]))
        .unwrap();
    let (good, fields) = encode_per_element(&ds);
    // The recorder sees the decode: the 9600-byte payload is copied out by
    // the owned decoder and left in place by the view.
    assert!(largest_alloc_during(|| Dataset::from_bytes(&good)).1 >= 9600);
    assert!(largest_alloc_during(|| DatasetView::parse(&good).map(|_| ())).1 < 2048);
    for f in &fields {
        for v in hostile_values(read_field(&good, *f), 0x0123_4567_89ab_cdef) {
            let mut bytes = good.clone();
            write_field(&mut bytes, *f, v);
            let (r, peak) = largest_alloc_during(|| Dataset::from_bytes(&bytes));
            assert!(
                peak <= alloc_bound(bytes.len()),
                "{:?} field at {} := {v:#x}: allocated {peak} B",
                f.kind,
                f.at
            );
            if v != read_field(&good, *f)
                && matches!(f.kind, FieldKind::ElemCount | FieldKind::DimLen)
            {
                // A payload whose size disagrees with its shape never decodes.
                assert!(r.is_err(), "{:?} := {v:#x} decoded", f.kind);
            }
        }
    }
    // Both dimension lengths at u64::MAX: the shape product must saturate,
    // not overflow.
    let mut bytes = good.clone();
    for f in fields.iter().filter(|f| f.kind == FieldKind::DimLen) {
        write_field(&mut bytes, *f, u64::MAX);
    }
    assert!(matches!(
        Dataset::from_bytes(&bytes),
        Err(NcdfError::ShapeMismatch { .. })
    ));
}
