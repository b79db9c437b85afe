//! The host fingerprint printed with every result. Numbers are only comparable between
//! runs with the same fingerprint.

use std::path::Path;
use std::process::Command;

/// Where and on what a result was measured.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// L2 size per core, as the kernel reports it.
    pub l2: String,
    /// L3 size, as the kernel reports it.
    pub l3: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, when the tree is a git checkout.
    pub git_rev: String,
    /// FNV-1a digest of every `.rs` and `Cargo.toml` file under `crates/`: identifies the
    /// code under test where no git revision is available.
    pub src_digest: String,
    /// The workload seed.
    pub seed: u64,
}

impl Fingerprint {
    /// Take the fingerprint of this host and the tree under `root`.
    pub fn take(root: &Path, seed: u64) -> Self {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            l2: cache_size(2),
            l3: cache_size(3),
            rustc: command_line("rustc", &["--version"], root),
            git_rev: command_line("git", &["rev-parse", "HEAD"], root),
            src_digest: format!("{:016x}", tree_digest(&root.join("crates"))),
            seed,
        }
    }

    /// One line, `key=value` pairs.
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" l2={} l3={} rustc=\"{}\" git_rev={} src_digest={} seed={}",
            self.nproc,
            self.cpu,
            self.l2,
            self.l3,
            self.rustc,
            self.git_rev,
            self.src_digest,
            self.seed
        )
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cache_size(level: u32) -> String {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(l), Some(kind)) = (read("level"), read("type")) else { continue };
        if l.trim() == level.to_string() && kind.trim() != "Instruction" {
            return read("size").map_or_else(|| "unknown".into(), |s| s.trim().to_string());
        }
    }
    "unknown".into()
}

/// First line of a command's standard output, or `unknown`; the command is waited for.
fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn tree_digest(dir: &Path) -> u64 {
    let mut files = Vec::new();
    collect(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(&f).unwrap_or_default());
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}

/// System-wide CPU time counters from the first line of `/proc/stat`, in clock ticks:
/// `(steal, total)`. Steal is time the hypervisor ran something else while a virtual CPU
/// of this machine wanted to run; `(0, 0)` where `/proc` is unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    use std::io::BufRead;
    let mut line = String::new();
    if let Ok(f) = std::fs::File::open("/proc/stat") {
        let _ = std::io::BufReader::new(f).read_line(&mut line);
    }
    let fields: Vec<u64> = line
        .strip_prefix("cpu ")
        .map(|l| l.split_whitespace().filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().take(8).sum())
}
