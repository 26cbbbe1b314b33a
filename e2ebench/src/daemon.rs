//! The daemon under test: built from this checkout's sources, spawned as
//! a child process, and stopped (and waited for) on every exit path.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use shadowdp_service::Client;

/// Builds the release `shadowdpd` of the repository this benchmark sits
/// in and returns its path. The build gets its own target directory
/// under `target`, so the benchmark's own build is never waited on.
pub fn build(repo: &Path, target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let target_dir = target.join("daemon");
    let status = Command::new(cargo)
        .args(["build", "--offline", "--release", "--quiet"])
        .args(["-p", "shadowdp-service", "--bin", "shadowdpd"])
        .arg("--manifest-path")
        .arg(repo.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building shadowdpd failed ({status})"));
    }
    Ok(target_dir.join("release").join("shadowdpd"))
}

/// A running `shadowdpd`. Dropping it kills the process if it is still
/// alive and waits for it, so no daemon outlives the benchmark.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    /// Spawn to first `PONG`: process start, store load, memo warm-up,
    /// socket bind.
    pub setup: Duration,
}

impl Daemon {
    /// Spawns `bin` on `socket` with `store` and `threads` workers and
    /// waits until it answers `PING`. Paths are relative to the current
    /// directory, which keeps the socket path short.
    pub fn spawn(bin: &Path, socket: &str, store: &str, threads: usize) -> Result<Daemon, String> {
        let log = std::fs::File::create(format!("{socket}.log"))
            .map_err(|e| format!("creating daemon log: {e}"))?;
        let start = Instant::now();
        let child = Command::new(bin)
            .args(["--socket", socket, "--store", store])
            .args(["--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            socket: PathBuf::from(socket),
            setup: Duration::ZERO,
        };
        loop {
            if let Ok(mut client) = Client::connect(&daemon.socket) {
                if client.ping().is_ok() {
                    daemon.setup = start.elapsed();
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up ({status})"));
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not answer PING within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    /// A new connection to this daemon.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("connecting: {e}"))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `SHUTDOWN` and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.connect()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("daemon did not exit after SHUTDOWN".into()),
                Err(e) => return Err(format!("waiting for daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading daemon status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in daemon status".into())
}

/// One parsed `METRICS` scrape.
pub struct Scrape(Vec<shadowdp_obs::Sample>);

impl Scrape {
    pub fn take(client: &mut Client) -> Result<Scrape, String> {
        let text = client.metrics().map_err(|e| format!("METRICS: {e}"))?;
        shadowdp_obs::parse_exposition(&text).map(Scrape)
    }

    /// The value of the series `name` (with label `key=value`, if given);
    /// 0 when the series is absent.
    pub fn value(&self, name: &str, label: Option<(&str, &str)>) -> f64 {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .find(|s| label.is_none_or(|(k, v)| s.label(k) == Some(v)))
            .map_or(0.0, |s| s.value)
    }

    /// `self − before` for one series.
    pub fn delta(&self, before: &Scrape, name: &str, label: Option<(&str, &str)>) -> f64 {
        self.value(name, label) - before.value(name, label)
    }

    /// Mean observation of a histogram over the interval since `before`
    /// (0 when nothing was observed).
    pub fn hist_mean(&self, before: &Scrape, name: &str, label: Option<(&str, &str)>) -> f64 {
        let count = self.delta(before, &format!("{name}_count"), label);
        if count > 0.0 {
            self.delta(before, &format!("{name}_sum"), label) / count
        } else {
            0.0
        }
    }
}
