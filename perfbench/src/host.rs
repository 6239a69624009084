//! Host fingerprint and process memory, stamped on every result so that
//! walls from different machines are never compared as if they were one.

use std::path::Path;
use std::process::Command;

/// What a wall time depends on besides the code.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// Available hardware parallelism.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Git revision of the checkout, or `unknown` outside a git checkout.
    pub git: String,
    /// The raw `AMT_SIM_THREADS` value, if set.
    pub sim_threads_env: Option<String>,
}

impl Fingerprint {
    /// Reads the fingerprint of this host and checkout.
    pub fn read() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            rustc: first_line(Command::new("rustc").arg("-V")),
            git: git_rev(),
            sim_threads_env: std::env::var("AMT_SIM_THREADS").ok(),
        }
    }

    /// Worker threads the simulator resolves for an `n`-node run at the
    /// process default (`RunConfig::threads == 0`): `AMT_SIM_THREADS` when
    /// set, else the hardware parallelism, clamped to `1..=n`.
    pub fn sim_threads(&self, n: usize) -> usize {
        self.sim_threads_env
            .as_deref()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(self.nproc)
            .clamp(1, n.max(1))
    }

    /// One `key=value` line.
    pub fn line(&self, sim_threads: usize) -> String {
        format!(
            "host nproc={} cpu={:?} rustc={:?} git={} sim_threads={} AMT_SIM_THREADS={}",
            self.nproc,
            self.cpu,
            self.rustc,
            self.git,
            sim_threads,
            self.sim_threads_env
                .as_deref()
                .map_or("unset".into(), |v| format!("{v:?}")),
        )
    }
}

/// First line of a command's standard output, or `unknown`.
fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's git revision. Git is kept from searching above the
/// working directory, so a checkout that is not a repository reads as
/// `unknown` instead of borrowing an enclosing repository's revision.
fn git_rev() -> String {
    let Ok(cwd) = std::env::current_dir() else {
        return "unknown".into();
    };
    let ceiling = cwd.parent().unwrap_or(Path::new("/"));
    first_line(
        Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
