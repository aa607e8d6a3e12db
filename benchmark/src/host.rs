//! What the numbers depend on but the program does not control: cores,
//! the worker team the pool actually grants, the filesystem under the
//! state directories, and this process's memory and CPU accounting.

use climate_adaptive::wrf::WorkerPool;
use std::path::{Path, PathBuf};

/// The Linux user-space clock tick (`USER_HZ`) that `/proc/<pid>/stat`
/// reports CPU time in; it is 100 on every supported architecture.
const USER_HZ: f64 = 100.0;

#[derive(Debug, Clone)]
pub struct Host {
    pub cores: usize,
    /// Team size [`WorkerPool::new`] grants when asked for two ranks.
    pub team_of_two: usize,
    /// Filesystem type under the per-run temp root (fsync cost depends on it).
    pub state_fs: String,
}

impl Host {
    pub fn probe(state_root: &Path) -> Self {
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            team_of_two: WorkerPool::new(2).team_size(),
            state_fs: filesystem_of(state_root),
        }
    }

    /// Team-2 numbers say nothing about scaling on a single core.
    pub fn scaling_valid(&self) -> bool {
        self.cores >= 2 && self.team_of_two >= 2
    }
}

/// Filesystem type of the mount holding `path`, found by device number
/// in `/proc/self/mountinfo` (no path is compared, so none is built), or
/// `"unknown"`.
fn filesystem_of(path: &Path) -> String {
    use std::os::unix::fs::MetadataExt;
    let (Ok(meta), Ok(mounts)) = (
        std::fs::metadata(path),
        std::fs::read_to_string("/proc/self/mountinfo"),
    ) else {
        return "unknown".into();
    };
    // Linux `dev_t`: 12 bits of major above 20 bits of minor, the rest
    // folded in above them.
    let dev = meta.dev();
    let major = ((dev >> 8) & 0xfff) | ((dev >> 32) & !0xfff);
    let minor = (dev & 0xff) | ((dev >> 12) & !0xff);
    let wanted = format!("{major}:{minor}");
    mounts
        .lines()
        .filter_map(|line| {
            // "<id> <parent> <maj:min> <root> <mount point> ... - <fstype> <source> ..."
            let (head, tail) = line.split_once(" - ")?;
            (head.split(' ').nth(2)? == wanted).then(|| tail.split(' ').next())?
        })
        .next_back()
        .map_or_else(|| "unknown".into(), str::to_string)
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by this process (all threads).
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after the last ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line: 11 and 12 here.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// One per-run directory holding every state dir, payload dir and
/// configuration file; removed when dropped, panics included.
pub struct TempRoot {
    path: PathBuf,
    next: u32,
}

impl TempRoot {
    pub fn create(parent: &Path, seed: u64) -> std::io::Result<Self> {
        let path = parent.join(format!("tmp-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempRoot { path, next: 0 })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory.
    pub fn fresh_dir(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        let dir = self.path.join(format!("{tag}-{}", self.next));
        std::fs::create_dir_all(&dir).expect("temp root is writable");
        dir
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
