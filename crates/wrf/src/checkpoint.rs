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
//!
//! Both are *streamed*: [`WrfModel::checkpoint_to`] writes the dataset
//! encoding straight from the solver's grids into any [`io::Write`], and
//! [`write_snapshot_with`] hands its caller such a sink, folding whatever
//! passes through into the container's length and checksum — so a
//! checkpoint reaches its file without the model ever being copied into a
//! dataset, a byte buffer or a payload on the way.

use crate::fields::Fields;
use crate::grid::Grid2;
use crate::model::{ModelConfig, ModelError, WrfModel};
use crate::nest::{Nest, NestConfig};
use crate::record::{Record, Source, Var};
use crate::solver::PhysicsParams;
use crate::vortex::{VortexParams, VortexState};
use crate::DomainGeom;
use ncdf::{AttrValue, Dataset};
use resources::{crc32, crc32_update};
use std::borrow::Borrow;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic prefix of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"ACPS";

/// Current snapshot container version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Snapshot header: magic | u32 LE version | u32 LE crc32(payload) |
/// u64 LE payload length, then the payload.
const SNAPSHOT_HEADER_LEN: usize = 4 + 4 + 4 + 8;

/// Buffer between the payload's producer and the tmp file. The encoder
/// hands over 4 KiB pieces; this is what turns them into a few large
/// writes, and it is the only payload-proportional memory a streamed
/// snapshot holds.
const SNAPSHOT_BUFFER_BYTES: usize = 64 * 1024;

/// Value of the `kernel_path` checkpoint attribute: the tag of the lanes
/// kernels, the only ones that step a model. Tag 0 belonged to the retired
/// scalar path; the oldest files carry no attribute at all.
const LANES_KERNEL_TAG: i64 = 1;

fn snapshot_header(payload_crc: u32, payload_len: u64) -> [u8; SNAPSHOT_HEADER_LEN] {
    let mut header = [0u8; SNAPSHOT_HEADER_LEN];
    header[..4].copy_from_slice(&SNAPSHOT_MAGIC);
    header[4..8].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    header[8..12].copy_from_slice(&payload_crc.to_le_bytes());
    header[12..].copy_from_slice(&payload_len.to_le_bytes());
    header
}

/// The payload side of a snapshot being written: forwards to the buffered
/// tmp file and keeps the running checksum and length the header needs.
struct PayloadSink<S: Write> {
    out: BufWriter<S>,
    crc: u32,
    len: u64,
}

impl<S: Write> Write for PayloadSink<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.out.write(buf)?;
        self.crc = crc32_update(self.crc, &buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Write `payload` to `path` as a checksummed snapshot: the bytes go to a
/// sibling `.tmp` file, are fsynced, and atomically renamed over `path`
/// (the directory is synced too, best-effort). A crash at any point
/// leaves either the old snapshot or the new one — never a mix.
pub fn write_snapshot_file(path: &Path, payload: &[u8]) -> io::Result<()> {
    write_snapshot_with(path, |out| out.write_all(payload))
}

/// [`write_snapshot_file`] for a payload that is produced piece by piece:
/// `fill` writes it into the sink it is given, in as many pieces as it
/// likes, and the container's length and checksum are taken from what
/// passed through. Same file bytes, same crash guarantee.
pub fn write_snapshot_with(
    path: &Path,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    write_snapshot_through(path, |tmp| tmp, fill)
}

/// The one container writer. The header's checksum and length are not
/// known until the payload has passed, so the tmp file starts with a
/// zeroed placeholder that is patched once the payload is down; only then
/// is the file synced and renamed. Until the rename nothing is visible at
/// `path`, so a crash mid-way leaves at worst an orphaned `.tmp` (which
/// the recovery bootstrap sweeps), never a snapshot with a placeholder
/// header. `wrap` lets tests put a failing sink between writer and file.
fn write_snapshot_through<S: Write + Seek + Borrow<File>>(
    path: &Path,
    wrap: impl FnOnce(File) -> S,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        let mut sink = PayloadSink {
            out: BufWriter::with_capacity(SNAPSHOT_BUFFER_BYTES, wrap(file)),
            crc: 0,
            len: 0,
        };
        sink.out.write_all(&[0u8; SNAPSHOT_HEADER_LEN])?;
        fill(&mut sink)?;
        let header = snapshot_header(sink.crc, sink.len);
        // `BufWriter::seek` flushes the payload's tail first.
        sink.out.seek(SeekFrom::Start(0))?;
        sink.out.write_all(&header)?;
        sink.out.flush()?;
        let file: &File = sink.out.get_ref().borrow();
        file.sync_all()?;
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
    let bad = |what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("snapshot {}: {what}", path.display()),
        )
    };
    let mut file = File::open(path)?;
    let mut header = [0u8; SNAPSHOT_HEADER_LEN];
    file.read_exact(&mut header).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => bad("shorter than its header"),
        _ => e,
    })?;
    if header[..4] != SNAPSHOT_MAGIC {
        return Err(bad("bad magic"));
    }
    let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(bad("unknown version"));
    }
    let crc = u32::from_le_bytes(header[8..12].try_into().unwrap());
    let len = u64::from_le_bytes(header[12..].try_into().unwrap());
    // The payload is read into the buffer that is handed back (sized by
    // the file, not by `len`), and the lengths are compared as u64: a
    // hostile `len` can neither reserve memory nor overflow an addition.
    let mut payload = Vec::new();
    file.read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(bad("payload length mismatch"));
    }
    if crc32(&payload) != crc {
        return Err(bad("CRC mismatch"));
    }
    Ok(payload)
}

impl WrfModel {
    /// Serialize the complete model state.
    pub fn checkpoint(&self) -> Vec<u8> {
        let record = self.checkpoint_record();
        let mut bytes = Vec::with_capacity(record.encoded_size_hint());
        record
            .write_to(&mut bytes)
            .expect("a Vec sink cannot fail, and every variable spans its own grid");
        bytes
    }

    /// Stream the bytes of [`checkpoint`](Self::checkpoint) into `out`,
    /// each field written from where it lies in the solver's grids.
    pub fn checkpoint_to<W: Write>(&self, out: W) -> io::Result<()> {
        self.checkpoint_record().write_to(out)
    }

    /// Checkpoint straight to a durable snapshot file (tmp + fsync +
    /// atomic rename).
    pub fn checkpoint_to_file(&self, path: &Path) -> io::Result<()> {
        write_snapshot_with(path, |out| self.checkpoint_to(out))
    }

    /// What a checkpoint holds — the one place its attributes, dimensions
    /// and variables are listed.
    fn checkpoint_record(&self) -> Record<'_> {
        let (cfg, fields, nest, vortex, sim_secs, steps) = self.parts();
        let mut head = Dataset::new();
        head.set_attr("kind", AttrValue::Text("wrf-lite checkpoint".into()));
        head.set_attr(
            "geom",
            AttrValue::F64List(vec![
                cfg.geom.lon_west,
                cfg.geom.lat_south,
                cfg.geom.lon_span,
                cfg.geom.lat_span,
                cfg.geom.km_per_deg_lon,
            ]),
        );
        head.set_attr(
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
        head.set_attr(
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
        head.set_attr(
            "nest_cfg",
            AttrValue::F64List(vec![
                cfg.nest.ratio as f64,
                cfg.nest.width_km,
                cfg.nest.height_km,
                cfg.nest.recenter_km,
            ]),
        );
        head.set_attr("resolution_km", AttrValue::F64(cfg.resolution_km));
        head.set_attr("decimation", AttrValue::I64(cfg.decimation as i64));
        head.set_attr("kernel_path", AttrValue::I64(LANES_KERNEL_TAG));
        head.set_attr("sim_secs", AttrValue::F64(sim_secs));
        head.set_attr("steps_taken", AttrValue::I64(steps as i64));
        head.set_attr(
            "vortex_state",
            AttrValue::F64List(vec![vortex.x_km, vortex.y_km, vortex.depth_hpa]),
        );

        let mut vars = Vec::with_capacity(8);
        put_fields(&mut head, &mut vars, "parent", fields);
        if let Some(n) = nest {
            put_fields(&mut head, &mut vars, "nest", &n.fields);
        }
        Record { head, vars }
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

fn put_fields<'a>(head: &mut Dataset, vars: &mut Vec<Var<'a>>, prefix: &str, f: &'a Fields) {
    let y = head
        .add_dim(format!("{prefix}_sn"), f.ny())
        .expect("unique dims per prefix");
    let x = head
        .add_dim(format!("{prefix}_we"), f.nx())
        .expect("unique dims per prefix");
    head.set_attr(
        format!("{prefix}_meta"),
        AttrValue::F64List(vec![f.dx_km, f.origin_x_km, f.origin_y_km]),
    );
    let grids = [("eta", &f.eta), ("u", &f.u), ("v", &f.v), ("q", &f.q)];
    vars.extend(grids.map(|(name, g)| Var {
        name: format!("{prefix}_{name}"),
        dims: [y, x],
        source: Source::Exact(g.data()),
    }));
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
    use ncdf::{Data, DimId};

    fn model() -> WrfModel {
        let cfg = ModelConfig::aila_default().with_decimation(8);
        WrfModel::new(cfg).unwrap()
    }

    /// The checkpoint as it was built before it was streamed: every grid
    /// cloned into a `Dataset`, the dataset encoded. Kept only as the
    /// oracle `checkpoint_record` is checked against — an independent
    /// listing of the attributes, dimensions and variables.
    fn checkpoint_via_dataset(m: &WrfModel) -> Vec<u8> {
        fn put_fields(ds: &mut Dataset, prefix: &str, f: &Fields) {
            let y = ds.add_dim(format!("{prefix}_sn"), f.ny()).unwrap();
            let x = ds.add_dim(format!("{prefix}_we"), f.nx()).unwrap();
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
        let (cfg, fields, nest, vortex, sim_secs, steps) = m.parts();
        let (g, p, v, n) = (&cfg.geom, &cfg.phys, &cfg.vortex, &cfg.nest);
        let mut ds = Dataset::new();
        ds.set_attr("kind", AttrValue::Text("wrf-lite checkpoint".into()));
        let list = |xs: &[f64]| AttrValue::F64List(xs.to_vec());
        ds.set_attr(
            "geom",
            list(&[
                g.lon_west,
                g.lat_south,
                g.lon_span,
                g.lat_span,
                g.km_per_deg_lon,
            ]),
        );
        ds.set_attr(
            "phys",
            list(&[
                p.gravity,
                p.mean_depth_m,
                p.coriolis_f0,
                p.beta,
                p.rayleigh,
                p.diffusion_courant,
                p.nudge_tau_secs,
                p.y_center_km,
                p.q_land,
                p.q_sea,
                p.q_vortex_boost,
                p.q_tau_secs,
            ]),
        );
        ds.set_attr(
            "vortex_params",
            list(&[
                v.start_lon,
                v.start_lat,
                v.steer_east_ms,
                v.steer_north_ms,
                v.initial_depth_hpa,
                v.max_depth_hpa,
                v.deepen_rate_per_hour,
                v.fill_rate_per_hour,
                v.radius_km,
                v.hpa_per_eta_m,
                v.wind_per_depth,
            ]),
        );
        ds.set_attr(
            "nest_cfg",
            list(&[n.ratio as f64, n.width_km, n.height_km, n.recenter_km]),
        );
        ds.set_attr("resolution_km", AttrValue::F64(cfg.resolution_km));
        ds.set_attr("decimation", AttrValue::I64(cfg.decimation as i64));
        ds.set_attr("kernel_path", AttrValue::I64(LANES_KERNEL_TAG));
        ds.set_attr("sim_secs", AttrValue::F64(sim_secs));
        ds.set_attr("steps_taken", AttrValue::I64(steps as i64));
        ds.set_attr(
            "vortex_state",
            list(&[vortex.x_km, vortex.y_km, vortex.depth_hpa]),
        );
        put_fields(&mut ds, "parent", fields);
        if let Some(n) = nest {
            put_fields(&mut ds, "nest", &n.fields);
        }
        ds.to_bytes().to_vec()
    }

    /// Decimation × resolution × steps × nest off / on / despawned: the
    /// streamed frame, checkpoint and snapshot file are byte for byte the
    /// materialised ones.
    #[test]
    fn snapshot_streamed_forms_equal_the_materialised_ones() {
        let path = tmppath("streamed");
        let collected = path.with_file_name("collected.acp");
        // Stale and longer than anything below: must be fully replaced.
        let mut frame = vec![0xa5u8; 1 << 20];
        for (decimation, resolution_km) in [(8, 24.0), (8, 10.0), (4, 18.0), (2, 24.0), (4, 12.0)] {
            for steps in [0, 1, 40] {
                // The fine grids make their point in a few steps.
                if steps == 40 && decimation < 8 {
                    continue;
                }
                let cfg = ModelConfig::aila_default()
                    .with_resolution(resolution_km)
                    .with_decimation(decimation);
                let mut m = WrfModel::new(cfg).unwrap();
                m.advance_steps(steps, 2).unwrap();
                for nest in ["off", "on", "despawned"] {
                    match nest {
                        "on" => {
                            m.spawn_nest();
                            m.advance_steps(2, 1).unwrap();
                        }
                        "despawned" => m.despawn_nest(),
                        _ => {}
                    }
                    let case =
                        format!("{resolution_km} km / {decimation}, {steps} steps, nest {nest}");
                    m.frame_into(&mut frame);
                    assert_eq!(frame, m.frame().to_bytes().to_vec(), "frame, {case}");

                    let ckpt = m.checkpoint();
                    assert_eq!(ckpt, checkpoint_via_dataset(&m), "checkpoint, {case}");
                    let mut streamed = Vec::new();
                    m.checkpoint_to(&mut streamed).unwrap();
                    assert_eq!(streamed, ckpt, "checkpoint_to, {case}");

                    m.checkpoint_to_file(&path).unwrap();
                    write_snapshot_file(&collected, &ckpt).unwrap();
                    let file = std::fs::read(&path).unwrap();
                    assert_eq!(file, std::fs::read(&collected).unwrap(), "file, {case}");
                    assert_eq!(file, legacy_snapshot_bytes(&ckpt), "header, {case}");
                }
            }
        }
    }

    /// A tmp file that takes `budget` bytes and then fails every write.
    struct FailAfter {
        file: File,
        budget: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::other("sink full"));
            }
            let n = self.file.write(&buf[..buf.len().min(self.budget)])?;
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.file.flush()
        }
    }

    impl Seek for FailAfter {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.file.seek(pos)
        }
    }

    impl Borrow<File> for FailAfter {
        fn borrow(&self) -> &File {
            &self.file
        }
    }

    #[test]
    fn snapshot_interrupted_writer_leaves_the_previous_file_intact() {
        let path = tmppath("interrupted");
        let mut m = model();
        m.checkpoint_to_file(&path).unwrap();
        let before = std::fs::read(&path).unwrap();
        m.advance_steps(3, 1).unwrap();
        // Placeholder, payload and the 20-byte header patch all pass
        // through the sink.
        let total = 2 * SNAPSHOT_HEADER_LEN + m.checkpoint().len();
        for k in [0, 19, 20, total / 2, total - 1] {
            let err = write_snapshot_through(
                &path,
                |file| FailAfter { file, budget: k },
                |out| m.checkpoint_to(out),
            )
            .expect_err("the sink failed");
            assert_eq!(err.to_string(), "sink full", "k = {k}");
            assert_eq!(std::fs::read(&path).unwrap(), before, "k = {k}");
            assert_eq!(read_snapshot_file(&path).unwrap(), before[20..], "k = {k}");
        }
        // With exactly enough room the same writer replaces the file.
        write_snapshot_through(
            &path,
            |file| FailAfter {
                file,
                budget: total,
            },
            |out| m.checkpoint_to(out),
        )
        .unwrap();
        assert_eq!(WrfModel::restore_from_file(&path).unwrap(), m);
        assert_ne!(std::fs::read(&path).unwrap()[..20], [0u8; 20]);
    }

    /// Structure-aware damage to a valid container: every case is a typed
    /// `InvalidData`, never a panic (the allocation bounds are checked
    /// under a recording allocator in the root `snapshot_stream` suite).
    #[test]
    fn snapshot_container_mutations_are_invalid_data() {
        let path = tmppath("mutations");
        let payload = model().checkpoint();
        let good = legacy_snapshot_bytes(&payload);
        let len = payload.len() as u64;
        let field = |at: usize, bytes: &[u8]| {
            let mut b = good.clone();
            b[at..at + bytes.len()].copy_from_slice(bytes);
            b
        };
        let mut corpus = vec![
            field(0, b"ACPX"),
            field(0, &[0; 20]), // the writer's placeholder
            field(4, &0u32.to_le_bytes()),
            field(4, &2u32.to_le_bytes()),
            field(8, &(!crc32(&payload)).to_le_bytes()),
            [&good[..], b"trailing garbage"].concat(),
        ];
        for hostile in [0, len - 1, len + 1, u64::MAX - 19, u64::MAX] {
            corpus.push(field(12, &hostile.to_le_bytes()));
        }
        // Truncation at every field boundary, and inside the payload.
        for cut in [0, 3, 4, 8, 12, 19, 20, 21, good.len() / 2, good.len() - 1] {
            corpus.push(good[..cut].to_vec());
        }
        for (i, bytes) in corpus.iter().enumerate() {
            std::fs::write(&path, bytes).unwrap();
            let err = read_snapshot_file(&path).expect_err("damaged container");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "case {i}: {err}");
            assert!(matches!(
                WrfModel::restore_from_file(&path),
                Err(ModelError::BadCheckpoint(_))
            ));
        }
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
        // A file the commit before the streaming writer wrote (recorded by
        // running its `write_snapshot_file` on this payload).
        const PARENT_WROTE: [u8; 35] = [
            65, 67, 80, 83, 1, 0, 0, 0, 95, 61, 118, 101, 15, 0, 0, 0, 0, 0, 0, 0, 97, 105, 108,
            97, 32, 102, 114, 97, 109, 101, 32, 48, 48, 52, 50,
        ];
        std::fs::write(&old, PARENT_WROTE).unwrap();
        assert_eq!(read_snapshot_file(&old).unwrap(), b"aila frame 0042");
        write_snapshot_file(&path, b"aila frame 0042").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), PARENT_WROTE);
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
