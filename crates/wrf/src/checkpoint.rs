//! Checkpoint / restart.
//!
//! The paper's job handler stops WRF and "restarts WRF using WRF
//! checkpointed data with the new application configuration". The
//! checkpoint here is a self-contained [`ncdf`] dataset: every
//! configuration scalar as attributes, every prognostic field as an `f64`
//! variable — so a restore needs nothing but the bytes, and a restored
//! model continues the trajectory bit-exactly (tested).
//!
//! For crash consistency the bytes can also be written as a *snapshot
//! file* ([`write_snapshot_file`] / [`WrfModel::checkpoint_to_file`]): a versioned,
//! CRC-32-checksummed container, written tmp + fsync + atomic rename so a
//! reader only ever sees a complete old snapshot or a complete new one —
//! never a torn write. The recovery supervisor uses the same container
//! for its checkpoint bundles and receiver-state snapshots.

use crate::fields::Fields;
use crate::grid::Grid2;
use crate::model::{ModelConfig, ModelError, WrfModel};
use crate::nest::{Nest, NestConfig};
use crate::solver::PhysicsParams;
use crate::vortex::{VortexParams, VortexState};
use crate::DomainGeom;
use ncdf::{AttrValue, Data, Dataset, DimId};
use resources::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic prefix of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"ACPS";

/// Current snapshot container version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Snapshot header: magic | u32 LE version | u32 LE crc32(payload) |
/// u64 LE payload length, then the payload.
const SNAPSHOT_HEADER_LEN: usize = 4 + 4 + 4 + 8;

/// Value of the `kernel_path` checkpoint attribute: the tag of the lanes
/// kernels, the only ones that step a model. Tag 0 belonged to the retired
/// scalar path; the oldest files carry no attribute at all.
const LANES_KERNEL_TAG: i64 = 1;

/// Write `payload` to `path` as a checksummed snapshot: the bytes go to a
/// sibling `.tmp` file, are fsynced, and atomically renamed over `path`
/// (the directory is synced too, best-effort). A crash at any point
/// leaves either the old snapshot or the new one — never a mix.
pub fn write_snapshot_file(path: &Path, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; SNAPSHOT_HEADER_LEN];
    header[..4].copy_from_slice(&SNAPSHOT_MAGIC);
    header[4..8].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    header[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
    header[12..].copy_from_slice(&(payload.len() as u64).to_le_bytes());

    let tmp = path.with_extension("tmp");
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        // Header and payload go to the same tmp file under one fsync; the
        // payload is written from where it lies, not copied behind the
        // header first.
        f.write_all(&header)?;
        f.write_all(payload)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Read and verify a snapshot written by [`write_snapshot_file`].
/// Corruption (bad magic, unknown version, short file, CRC mismatch)
/// comes back as [`io::ErrorKind::InvalidData`] so callers can fall back
/// to an older snapshot.
pub fn read_snapshot_file(path: &Path) -> io::Result<Vec<u8>> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let bad = |what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("snapshot {}: {what}", path.display()),
        )
    };
    if data.len() < SNAPSHOT_HEADER_LEN {
        return Err(bad("shorter than its header"));
    }
    if data[..4] != SNAPSHOT_MAGIC {
        return Err(bad("bad magic"));
    }
    let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(bad("unknown version"));
    }
    let crc = u32::from_le_bytes(data[8..12].try_into().unwrap());
    let len = u64::from_le_bytes(data[12..20].try_into().unwrap()) as usize;
    if data.len() != SNAPSHOT_HEADER_LEN + len {
        return Err(bad("payload length mismatch"));
    }
    let payload = &data[SNAPSHOT_HEADER_LEN..];
    if crc32(payload) != crc {
        return Err(bad("CRC mismatch"));
    }
    Ok(payload.to_vec())
}

impl WrfModel {
    /// Serialize the complete model state.
    pub fn checkpoint(&self) -> Vec<u8> {
        let (cfg, fields, nest, vortex, sim_secs, steps) = self.parts();
        let mut ds = Dataset::new();
        ds.set_attr("kind", AttrValue::Text("wrf-lite checkpoint".into()));
        ds.set_attr(
            "geom",
            AttrValue::F64List(vec![
                cfg.geom.lon_west,
                cfg.geom.lat_south,
                cfg.geom.lon_span,
                cfg.geom.lat_span,
                cfg.geom.km_per_deg_lon,
            ]),
        );
        ds.set_attr(
            "phys",
            AttrValue::F64List(vec![
                cfg.phys.gravity,
                cfg.phys.mean_depth_m,
                cfg.phys.coriolis_f0,
                cfg.phys.beta,
                cfg.phys.rayleigh,
                cfg.phys.diffusion_courant,
                cfg.phys.nudge_tau_secs,
                cfg.phys.y_center_km,
                cfg.phys.q_land,
                cfg.phys.q_sea,
                cfg.phys.q_vortex_boost,
                cfg.phys.q_tau_secs,
            ]),
        );
        ds.set_attr(
            "vortex_params",
            AttrValue::F64List(vec![
                cfg.vortex.start_lon,
                cfg.vortex.start_lat,
                cfg.vortex.steer_east_ms,
                cfg.vortex.steer_north_ms,
                cfg.vortex.initial_depth_hpa,
                cfg.vortex.max_depth_hpa,
                cfg.vortex.deepen_rate_per_hour,
                cfg.vortex.fill_rate_per_hour,
                cfg.vortex.radius_km,
                cfg.vortex.hpa_per_eta_m,
                cfg.vortex.wind_per_depth,
            ]),
        );
        ds.set_attr(
            "nest_cfg",
            AttrValue::F64List(vec![
                cfg.nest.ratio as f64,
                cfg.nest.width_km,
                cfg.nest.height_km,
                cfg.nest.recenter_km,
            ]),
        );
        ds.set_attr("resolution_km", AttrValue::F64(cfg.resolution_km));
        ds.set_attr("decimation", AttrValue::I64(cfg.decimation as i64));
        ds.set_attr("kernel_path", AttrValue::I64(LANES_KERNEL_TAG));
        ds.set_attr("sim_secs", AttrValue::F64(sim_secs));
        ds.set_attr("steps_taken", AttrValue::I64(steps as i64));
        ds.set_attr(
            "vortex_state",
            AttrValue::F64List(vec![vortex.x_km, vortex.y_km, vortex.depth_hpa]),
        );

        put_fields(&mut ds, "parent", fields);
        if let Some(n) = nest {
            put_fields(&mut ds, "nest", &n.fields);
        }
        let mut bytes = Vec::new();
        ds.encode_into(&mut bytes);
        bytes
    }

    /// Checkpoint straight to a durable snapshot file (tmp + fsync +
    /// atomic rename).
    pub fn checkpoint_to_file(&self, path: &Path) -> io::Result<()> {
        write_snapshot_file(path, &self.checkpoint())
    }

    /// Restore from a snapshot file written by
    /// [`checkpoint_to_file`](Self::checkpoint_to_file). I/O problems and
    /// container corruption both surface as
    /// [`ModelError::BadCheckpoint`].
    pub fn restore_from_file(path: &Path) -> Result<Self, ModelError> {
        let payload =
            read_snapshot_file(path).map_err(|e| ModelError::BadCheckpoint(e.to_string()))?;
        Self::restore(&payload)
    }

    /// Rebuild a model from checkpoint bytes.
    pub fn restore(bytes: &[u8]) -> Result<Self, ModelError> {
        let ds =
            Dataset::from_bytes(bytes).map_err(|e| ModelError::BadCheckpoint(e.to_string()))?;
        let list = |name: &str, len: usize| -> Result<Vec<f64>, ModelError> {
            let v = ds
                .attr(name)
                .and_then(|a| a.as_f64_list())
                .ok_or_else(|| ModelError::BadCheckpoint(format!("missing attr {name}")))?;
            if v.len() != len {
                return Err(ModelError::BadCheckpoint(format!(
                    "attr {name} has {} values, expected {len}",
                    v.len()
                )));
            }
            Ok(v.to_vec())
        };
        let scalar = |name: &str| -> Result<f64, ModelError> {
            ds.attr(name)
                .and_then(|a| a.as_f64())
                .ok_or_else(|| ModelError::BadCheckpoint(format!("missing attr {name}")))
        };

        let g = list("geom", 5)?;
        let geom = DomainGeom {
            lon_west: g[0],
            lat_south: g[1],
            lon_span: g[2],
            lat_span: g[3],
            km_per_deg_lon: g[4],
        };
        let p = list("phys", 12)?;
        let phys = PhysicsParams {
            gravity: p[0],
            mean_depth_m: p[1],
            coriolis_f0: p[2],
            beta: p[3],
            rayleigh: p[4],
            diffusion_courant: p[5],
            nudge_tau_secs: p[6],
            y_center_km: p[7],
            q_land: p[8],
            q_sea: p[9],
            q_vortex_boost: p[10],
            q_tau_secs: p[11],
        };
        let v = list("vortex_params", 11)?;
        let vortex_params = VortexParams {
            start_lon: v[0],
            start_lat: v[1],
            steer_east_ms: v[2],
            steer_north_ms: v[3],
            initial_depth_hpa: v[4],
            max_depth_hpa: v[5],
            deepen_rate_per_hour: v[6],
            fill_rate_per_hour: v[7],
            radius_km: v[8],
            hpa_per_eta_m: v[9],
            wind_per_depth: v[10],
        };
        let n = list("nest_cfg", 4)?;
        let nest_cfg = NestConfig {
            ratio: n[0] as usize,
            width_km: n[1],
            height_km: n[2],
            recenter_km: n[3],
        };
        // A file written on another kernel must not silently resume on
        // different low-order bits.
        match ds.attr("kernel_path").map(|a| a.as_i64()) {
            None | Some(Some(LANES_KERNEL_TAG)) => {}
            Some(Some(0)) => {
                return Err(ModelError::BadCheckpoint(
                    "kernel_path 0: written by the retired scalar kernel path".into(),
                ))
            }
            Some(other) => {
                return Err(ModelError::BadCheckpoint(format!(
                    "unknown kernel_path {other:?}"
                )))
            }
        }
        let cfg = ModelConfig {
            geom,
            phys,
            vortex: vortex_params,
            nest: nest_cfg,
            resolution_km: scalar("resolution_km")?,
            decimation: scalar("decimation")? as usize,
        };
        let vs = list("vortex_state", 3)?;
        let vortex = VortexState {
            x_km: vs[0],
            y_km: vs[1],
            depth_hpa: vs[2],
        };
        let fields = get_fields(&ds, "parent")?;
        let nest = if ds.var("nest_eta").is_some() {
            let nf = get_fields(&ds, "nest")?;
            Some(Nest::from_checkpoint(nf, nest_cfg))
        } else {
            None
        };

        WrfModel::from_parts(
            cfg,
            fields,
            nest,
            vortex,
            scalar("sim_secs")?,
            scalar("steps_taken")? as u64,
        )
    }
}

impl Nest {
    /// Reassemble a nest from checkpointed fields.
    pub(crate) fn from_checkpoint(fields: Fields, cfg: NestConfig) -> Nest {
        Nest::from_fields(fields, cfg)
    }
}

fn put_fields(ds: &mut Dataset, prefix: &str, f: &Fields) {
    let y = ds
        .add_dim(format!("{prefix}_sn"), f.ny())
        .expect("unique dims per prefix");
    let x = ds
        .add_dim(format!("{prefix}_we"), f.nx())
        .expect("unique dims per prefix");
    ds.set_attr(
        format!("{prefix}_meta"),
        AttrValue::F64List(vec![f.dx_km, f.origin_x_km, f.origin_y_km]),
    );
    let add = |ds: &mut Dataset, name: String, g: &Grid2, dims: &[DimId]| {
        ds.add_var(name, dims, Data::F64(g.data().to_vec()))
            .expect("shape matches grid");
    };
    add(ds, format!("{prefix}_eta"), &f.eta, &[y, x]);
    add(ds, format!("{prefix}_u"), &f.u, &[y, x]);
    add(ds, format!("{prefix}_v"), &f.v, &[y, x]);
    add(ds, format!("{prefix}_q"), &f.q, &[y, x]);
}

fn get_fields(ds: &Dataset, prefix: &str) -> Result<Fields, ModelError> {
    let meta = ds
        .attr(&format!("{prefix}_meta"))
        .and_then(|a| a.as_f64_list())
        .ok_or_else(|| ModelError::BadCheckpoint(format!("missing {prefix}_meta")))?;
    if meta.len() != 3 {
        return Err(ModelError::BadCheckpoint(format!("bad {prefix}_meta")));
    }
    let grid = |name: String| -> Result<Grid2, ModelError> {
        let var = ds
            .var(&name)
            .ok_or_else(|| ModelError::BadCheckpoint(format!("missing var {name}")))?;
        let shape = var.shape(ds);
        if shape.len() != 2 {
            return Err(ModelError::BadCheckpoint(format!("{name} is not 2-D")));
        }
        let data = var
            .data
            .as_f64()
            .ok_or_else(|| ModelError::BadCheckpoint(format!("{name} is not f64")))?;
        let (ny, nx) = (shape[0], shape[1]);
        if nx == 0 || ny == 0 {
            return Err(ModelError::BadCheckpoint(format!("{name} has empty dims")));
        }
        let mut g = Grid2::zeros(nx, ny);
        g.data_mut().copy_from_slice(data);
        Ok(g)
    };
    let eta = grid(format!("{prefix}_eta"))?;
    let u = grid(format!("{prefix}_u"))?;
    let v = grid(format!("{prefix}_v"))?;
    let q = grid(format!("{prefix}_q"))?;
    let same = |g: &Grid2| g.nx() == eta.nx() && g.ny() == eta.ny();
    if !same(&u) || !same(&v) || !same(&q) {
        return Err(ModelError::BadCheckpoint("field shapes disagree".into()));
    }
    if !(meta[0] > 0.0 && meta[0].is_finite()) {
        return Err(ModelError::BadCheckpoint(
            "non-positive grid spacing".into(),
        ));
    }
    let mut f = Fields::zeros(eta.nx(), eta.ny(), meta[0]);
    f.eta = eta;
    f.u = u;
    f.v = v;
    f.q = q;
    f.origin_x_km = meta[1];
    f.origin_y_km = meta[2];
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> WrfModel {
        let cfg = ModelConfig::aila_default().with_decimation(8);
        WrfModel::new(cfg).unwrap()
    }

    #[test]
    fn roundtrip_without_nest() {
        let mut m = model();
        m.advance_steps(7, 1).unwrap();
        let bytes = m.checkpoint();
        let r = WrfModel::restore(&bytes).unwrap();
        assert_eq!(m, r);
    }

    #[test]
    fn roundtrip_with_nest() {
        let mut m = model();
        m.advance_steps(3, 1).unwrap();
        m.spawn_nest();
        m.advance_steps(3, 1).unwrap();
        let r = WrfModel::restore(&m.checkpoint()).unwrap();
        assert_eq!(m, r);
        assert!(r.has_nest());
    }

    #[test]
    fn restart_continues_bit_exactly() {
        // Uninterrupted run vs checkpoint-restore-continue: identical.
        let mut a = model();
        a.advance_steps(10, 1).unwrap();

        let mut b = model();
        b.advance_steps(4, 1).unwrap();
        let mut b2 = WrfModel::restore(&b.checkpoint()).unwrap();
        b2.advance_steps(6, 1).unwrap();

        assert_eq!(a, b2);
    }

    #[test]
    fn restart_on_different_thread_count_is_identical() {
        let mut a = model();
        a.advance_steps(8, 2).unwrap();

        let mut b = model();
        b.advance_steps(4, 1).unwrap();
        let mut b2 = WrfModel::restore(&b.checkpoint()).unwrap();
        // "Rescheduled on a different number of processors."
        b2.advance_steps(4, 3).unwrap();
        assert_eq!(a, b2);
    }

    #[test]
    fn kernel_path_tag_accepts_absent_or_lanes_and_rejects_the_rest() {
        let mut m = model();
        m.advance_steps(3, 2).unwrap();
        let bytes = m.checkpoint();
        let with_tag = |tag: Option<i64>| {
            let mut ds = Dataset::from_bytes(&bytes).unwrap();
            match tag {
                Some(t) => ds.set_attr("kernel_path", AttrValue::I64(t)),
                None => {
                    ds.remove_attr("kernel_path");
                }
            }
            WrfModel::restore(&ds.to_bytes())
        };
        // Files without the attribute and lanes files restore equal.
        assert_eq!(with_tag(None).unwrap(), m);
        assert_eq!(with_tag(Some(1)).unwrap(), m);
        // The retired scalar path and unknown tags are named, not resumed.
        match with_tag(Some(0)) {
            Err(ModelError::BadCheckpoint(msg)) => assert!(msg.contains("scalar"), "{msg}"),
            other => panic!("scalar-path checkpoint must be rejected, got {other:?}"),
        }
        match with_tag(Some(42)) {
            Err(ModelError::BadCheckpoint(msg)) => assert!(msg.contains("unknown"), "{msg}"),
            other => panic!("unknown tag must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(matches!(
            WrfModel::restore(b"not a checkpoint"),
            Err(ModelError::BadCheckpoint(_))
        ));
        // Valid ncdf but missing attributes.
        let empty = Dataset::new().to_bytes();
        assert!(matches!(
            WrfModel::restore(&empty),
            Err(ModelError::BadCheckpoint(_))
        ));
    }

    #[test]
    fn truncated_checkpoint_rejected() {
        let m = model();
        let bytes = m.checkpoint();
        let r = WrfModel::restore(&bytes[..bytes.len() / 2]);
        assert!(matches!(r, Err(ModelError::BadCheckpoint(_))));
    }

    fn tmppath(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wrf-snapshot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("state.acp")
    }

    #[test]
    fn snapshot_file_roundtrip_is_bit_exact() {
        let path = tmppath("roundtrip");
        let mut m = model();
        m.advance_steps(5, 1).unwrap();
        m.checkpoint_to_file(&path).unwrap();
        let r = WrfModel::restore_from_file(&path).unwrap();
        assert_eq!(m, r);
        // The tmp sibling must not linger after the atomic rename.
        assert!(!path.with_extension("tmp").exists());
    }

    /// The container as the first version of this module laid it out: one
    /// buffer, header then payload.
    fn legacy_snapshot_bytes(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(SNAPSHOT_HEADER_LEN + payload.len());
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn snapshot_file_bytes_are_the_legacy_layout_both_ways() {
        let mut m = model();
        m.advance_steps(3, 1).unwrap();
        let payload = m.checkpoint();
        // What is written today is byte for byte what was written before...
        let path = tmppath("layout-new");
        write_snapshot_file(&path, &payload).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            legacy_snapshot_bytes(&payload)
        );
        assert!(!path.with_extension("tmp").exists());
        // ... and a file written before still verifies and restores.
        let old = tmppath("layout-old");
        std::fs::write(&old, legacy_snapshot_bytes(&payload)).unwrap();
        assert_eq!(read_snapshot_file(&old).unwrap(), payload);
        assert_eq!(WrfModel::restore_from_file(&old).unwrap(), m);
        // An empty payload is a header-only file.
        write_snapshot_file(&path, b"").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), legacy_snapshot_bytes(b""));
        assert_eq!(read_snapshot_file(&path).unwrap(), b"");
    }

    #[test]
    fn snapshot_file_rewrite_replaces_atomically() {
        let path = tmppath("rewrite");
        let mut m = model();
        m.checkpoint_to_file(&path).unwrap();
        m.advance_steps(4, 1).unwrap();
        m.checkpoint_to_file(&path).unwrap();
        let r = WrfModel::restore_from_file(&path).unwrap();
        assert_eq!(m, r, "reader sees the newest complete snapshot");
    }

    #[test]
    fn corrupt_snapshot_file_is_invalid_data() {
        let path = tmppath("corrupt");
        let m = model();
        m.checkpoint_to_file(&path).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n / 2] ^= 0x5a;
        std::fs::write(&path, &data).unwrap();
        let err = read_snapshot_file(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(matches!(
            WrfModel::restore_from_file(&path),
            Err(ModelError::BadCheckpoint(_))
        ));
    }

    #[test]
    fn truncated_snapshot_file_is_invalid_data() {
        let path = tmppath("short");
        let m = model();
        m.checkpoint_to_file(&path).unwrap();
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 7]).unwrap();
        let err = read_snapshot_file(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_version_snapshot_rejected() {
        let path = tmppath("version");
        write_snapshot_file(&path, b"payload").unwrap();
        let mut data = std::fs::read(&path).unwrap();
        data[4] = 99; // version field
        std::fs::write(&path, &data).unwrap();
        let err = read_snapshot_file(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn missing_snapshot_is_not_found_not_invalid() {
        let path = tmppath("absent");
        let err = read_snapshot_file(&path.with_file_name("nope.acp")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
