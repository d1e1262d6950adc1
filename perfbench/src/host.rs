//! The host fingerprint stored with every result. Results taken with a
//! different core count are not comparable, so it is recorded rather
//! than assumed.

use std::path::Path;

use crate::json::Json;

/// Facts about the machine and the code, taken when the run starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Cores this process may use.
    pub nproc: usize,
    /// `/proc/loadavg` 1-, 5- and 15-minute load averages at start.
    pub loadavg: [f64; 3],
    /// The commit, when the benchmark runs inside a git checkout.
    pub commit: Option<String>,
    /// CRC-32C over the source files the benchmark builds from, so a
    /// result names its code even where there is no git metadata.
    pub source_crc32c: u32,
}

impl Host {
    /// Fingerprint the current host and the checkout at `root`.
    pub fn probe(root: &Path) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg: loadavg().unwrap_or([0.0; 3]),
            commit: git_head(root),
            source_crc32c: source_crc(root),
        }
    }

    /// As JSON, with the executor shard count the workload ran on (0
    /// when it ran no threaded cluster).
    pub fn to_json(&self, executor_shards: usize) -> Json {
        Json::obj()
            .with("nproc", self.nproc)
            .with("executor_shards", executor_shards)
            .with("loadavg_1m", self.loadavg[0])
            .with("loadavg_5m", self.loadavg[1])
            .with("loadavg_15m", self.loadavg[2])
            .with("commit", self.commit.clone())
            .with("source_crc32c", format!("{:08x}", self.source_crc32c))
    }
}

fn loadavg() -> Option<[f64; 3]> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    let mut it = text.split_whitespace().map(|f| f.parse::<f64>().ok());
    Some([it.next()??, it.next()??, it.next()??])
}

/// The commit `HEAD` names, read from `.git` without running git.
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == r).then(|| id.to_owned())
    })
}

/// CRC-32C over every file under the source directories, visited in
/// sorted order so the digest is stable.
fn source_crc(root: &Path) -> u32 {
    let mut files = Vec::new();
    for dir in ["crates", "shims", "perfbench/src"] {
        collect(&root.join(dir), &mut files);
    }
    files.push(root.join("perfbench/Cargo.toml"));
    files.sort();
    let mut all = Vec::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            all.extend_from_slice(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            all.extend_from_slice(&bytes);
        }
    }
    sads_blob::storage::crc32c(&all)
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect(&p, out),
            Ok(t) if t.is_file() => {
                if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                    out.push(p);
                }
            }
            _ => {}
        }
    }
}
