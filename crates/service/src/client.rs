//! Client side of the verification service: connect (or auto-spawn a
//! daemon), submit jobs, await results.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use shadowdp::JobSpec;

use crate::proto::{encode_request, parse_response, JobOutcome, Request, Response, StatusInfo};

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// How long [`Client::connect_or_spawn`]'s spawner polls its own daemon.
const SPAWN_POLL_BUDGET: Duration = Duration::from_secs(10);

/// How long a [`Client::connect_or_spawn`] caller that lost the spawn
/// lock waits for the winner's daemon. Longer than [`SPAWN_POLL_BUDGET`]
/// so a waiter never gives up on a healthy spawn.
const SPAWN_WAIT_BUDGET: Duration = Duration::from_secs(15);

/// How long [`Client::submit`] retries a `BUSY` submission queue before
/// surfacing the rejection as an error.
const SUBMIT_BUSY_BUDGET: Duration = Duration::from_secs(5);

/// Capped exponential backoff with deterministic jitter — shared by the
/// auto-spawn poll loops and the `BUSY` submit retry. Attempt 0 waits
/// ~10 ms, each attempt doubles up to a 500 ms cap, and a jitter derived
/// from (pid, attempt) — no RNG dependency, reproducible within a process
/// — adds up to 25% so a herd of waiters spreads out instead of polling
/// in lockstep.
fn backoff(attempt: u32) -> Duration {
    let capped = 10u64.saturating_mul(1 << attempt.min(10)).min(500);
    let mut x = u64::from(std::process::id())
        ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ 0x5DEE_CE66_D1CE_4E5D;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    Duration::from_millis(capped + x % (capped / 4 + 1))
}

/// A connected protocol client. One request/response at a time, in order
/// (the protocol is strictly synchronous per connection; open more
/// connections for overlap — the daemon's workers serve all of them).
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates the socket connection error (e.g. no daemon listening).
    pub fn connect(socket: impl AsRef<Path>) -> io::Result<Client> {
        let stream = UnixStream::connect(socket.as_ref())?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Connects, auto-spawning `shadowdpd` if nothing is listening: the
    /// daemon binary is looked up next to the current executable (both
    /// live in the same cargo target directory; `SHADOWDPD_BIN` overrides),
    /// spawned detached with the given store path, and polled until its
    /// socket accepts.
    ///
    /// `store` and `threads` configure the *spawned* daemon only: if a
    /// daemon is already listening on `socket`, it keeps whatever
    /// configuration it was started with and these arguments are unused.
    ///
    /// # Concurrency
    ///
    /// Safe for concurrent callers: spawning is arbitrated by an OS
    /// exclusive file lock on a **lockfile next to the socket**
    /// (`<socket>.spawn-lock`), so exactly one caller spawns a daemon and
    /// every loser re-polls the socket until that daemon answers —
    /// nobody's listener gets orphaned by a second bind. The kernel
    /// releases the lock automatically if its holder dies, so there is no
    /// staleness heuristic to get wrong; the (empty) lockfile itself is
    /// deliberately never unlinked, because unlinking a path others may
    /// have already opened would let two callers hold "the" lock on
    /// different inodes. (The daemon itself additionally refuses to bind
    /// over a live socket.)
    ///
    /// # Errors
    ///
    /// Returns an error if spawning fails, the spawned daemon does not
    /// come up within `SPAWN_POLL_BUDGET` (~10 s), or another caller's
    /// spawn has not produced a daemon within `SPAWN_WAIT_BUDGET`
    /// (~15 s).
    pub fn connect_or_spawn(
        socket: impl AsRef<Path>,
        store: Option<&Path>,
        threads: Option<usize>,
    ) -> io::Result<Client> {
        let socket = socket.as_ref();
        let lock_path = spawn_lock_path(socket);
        let wait_deadline = Instant::now() + SPAWN_WAIT_BUDGET;
        let mut wait_attempt = 0u32;
        loop {
            if let Ok(client) = Client::connect(socket) {
                return Ok(client);
            }
            match SpawnLock::try_acquire(&lock_path)? {
                Some(_lock) => {
                    // We hold the spawn right. Re-check the socket first: a
                    // daemon may have come up between our probe and the
                    // lock (the previous holder's spawn finishing).
                    if let Ok(client) = Client::connect(socket) {
                        return Ok(client);
                    }
                    spawn_daemon(socket, store, threads)?;
                    // Poll until the spawned daemon accepts, backing off
                    // instead of hammering a fixed interval. The lock is
                    // held (released on every return path, and by the
                    // kernel if we die) while we wait, so late arrivals
                    // poll instead of double-spawning.
                    let poll_deadline = Instant::now() + SPAWN_POLL_BUDGET;
                    let mut attempt = 0u32;
                    loop {
                        std::thread::sleep(backoff(attempt));
                        attempt += 1;
                        if let Ok(client) = Client::connect(socket) {
                            return Ok(client);
                        }
                        if Instant::now() > poll_deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!(
                                    "spawned daemon did not come up on {} within {:?}",
                                    socket.display(),
                                    SPAWN_POLL_BUDGET
                                ),
                            ));
                        }
                    }
                }
                None => {
                    // Another caller is spawning; wait for its daemon.
                    std::thread::sleep(backoff(wait_attempt));
                    wait_attempt += 1;
                    if Instant::now() > wait_deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!(
                                "no daemon came up on {} within {:?} (another process holds {})",
                                socket.display(),
                                SPAWN_WAIT_BUDGET,
                                lock_path.display()
                            ),
                        ));
                    }
                }
            }
        }
    }

    fn roundtrip(&mut self, request: &Request) -> io::Result<Response> {
        writeln!(self.writer, "{}", encode_request(request))?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad_data("daemon closed the connection"));
        }
        parse_response(line.trim_end_matches(['\n', '\r'])).map_err(|e| bad_data(e.to_string()))
    }

    /// Liveness check.
    ///
    /// # Errors
    ///
    /// I/O or protocol failure.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(bad_data(format!("expected PONG, got {other:?}"))),
        }
    }

    /// Queues a job, returning its id. A `BUSY` answer (the daemon's
    /// submission queue is full) is retried with capped exponential
    /// backoff — honoring the daemon's advertised retry-after as a floor —
    /// for up to `SUBMIT_BUSY_BUDGET` before surfacing as an error.
    ///
    /// # Errors
    ///
    /// I/O or protocol failure, a daemon-side `ERR` (e.g. shutting down),
    /// or a queue that stayed full past the retry budget.
    pub fn submit(&mut self, spec: &JobSpec) -> io::Result<u64> {
        let deadline = Instant::now() + SUBMIT_BUSY_BUDGET;
        let mut attempt = 0u32;
        loop {
            match self.roundtrip(&Request::Submit(spec.clone()))? {
                Response::Queued(id) => return Ok(id),
                Response::Busy(retry_ms) => {
                    if Instant::now() > deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::WouldBlock,
                            format!(
                                "daemon busy: submission queue stayed full for {SUBMIT_BUSY_BUDGET:?}"
                            ),
                        ));
                    }
                    std::thread::sleep(backoff(attempt).max(Duration::from_millis(retry_ms)));
                    attempt += 1;
                }
                Response::Err(msg) => {
                    return Err(bad_data(format!("daemon refused submit: {msg}")))
                }
                other => return Err(bad_data(format!("expected QUEUED, got {other:?}"))),
            }
        }
    }

    /// Blocks until the job is finished and returns its outcome.
    ///
    /// # Errors
    ///
    /// I/O or protocol failure, or a daemon-side `ERR` (an id never
    /// issued, or one this connection is not owed).
    pub fn result(&mut self, id: u64) -> io::Result<JobOutcome> {
        match self.roundtrip(&Request::Result(id))? {
            Response::Result(outcome) => Ok(outcome),
            Response::Err(msg) => Err(bad_data(format!("daemon error: {msg}"))),
            other => Err(bad_data(format!("expected RESULT, got {other:?}"))),
        }
    }

    /// Fetches the daemon's counters.
    ///
    /// # Errors
    ///
    /// I/O or protocol failure.
    pub fn status(&mut self) -> io::Result<StatusInfo> {
        match self.roundtrip(&Request::Status)? {
            Response::Status(info) => Ok(info),
            other => Err(bad_data(format!("expected STATUS, got {other:?}"))),
        }
    }

    /// Fetches the daemon's full metrics registry in Prometheus text
    /// exposition format (the `METRICS` verb, unescaped back to its
    /// multi-line form).
    ///
    /// # Errors
    ///
    /// I/O or protocol failure.
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics(exposition) => Ok(exposition),
            other => Err(bad_data(format!("expected METRICS, got {other:?}"))),
        }
    }

    /// Asks the daemon to flush its store and exit.
    ///
    /// # Errors
    ///
    /// I/O or protocol failure.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(bad_data(format!("expected BYE, got {other:?}"))),
        }
    }

    /// Convenience: submit every spec, then await every result, in
    /// submission order.
    ///
    /// # Errors
    ///
    /// First I/O or protocol failure, if any.
    pub fn run_corpus(&mut self, specs: &[JobSpec]) -> io::Result<Vec<JobOutcome>> {
        let ids = specs
            .iter()
            .map(|spec| self.submit(spec))
            .collect::<io::Result<Vec<u64>>>()?;
        ids.into_iter().map(|id| self.result(id)).collect()
    }
}

/// The lockfile arbitrating concurrent auto-spawns for one socket. Lives
/// next to the socket so it is on the same (local) filesystem, where the
/// kernel lock is reliable.
fn spawn_lock_path(socket: &Path) -> PathBuf {
    crate::sibling_path(socket, ".spawn-lock")
}

/// An exclusive OS file lock on the spawn lockfile. The kernel is the
/// arbiter: `try_lock` is atomic, the lock dies with its holder (no
/// staleness heuristic, nothing to clean up after a crash), and dropping
/// the handle releases it on every exit path.
///
/// The lockfile is intentionally **never unlinked**: removing a path
/// other callers may already have open would hand out locks on two
/// different inodes for "the same" file. An empty `<socket>.spawn-lock`
/// sitting next to the socket is the whole cost.
struct SpawnLock {
    _file: std::fs::File,
}

impl SpawnLock {
    /// Tries to acquire: `Ok(Some)` = we hold it, `Ok(None)` = another
    /// live caller does (poll and retry).
    ///
    /// # Errors
    ///
    /// Filesystem errors (unwritable directory, lock not supported) —
    /// waiting would never succeed.
    fn try_acquire(path: &Path) -> io::Result<Option<SpawnLock>> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        match file.try_lock() {
            Ok(()) => Ok(Some(SpawnLock { _file: file })),
            Err(std::fs::TryLockError::WouldBlock) => Ok(None),
            Err(std::fs::TryLockError::Error(e)) => Err(e),
        }
    }
}

/// Spawns a detached `shadowdpd` for `socket`. Called only while holding
/// the spawn lock.
fn spawn_daemon(socket: &Path, store: Option<&Path>, threads: Option<usize>) -> io::Result<()> {
    let daemon_bin = daemon_binary()?;
    let mut cmd = Command::new(&daemon_bin);
    cmd.arg("--socket").arg(socket);
    if let Some(store) = store {
        cmd.arg("--store").arg(store);
    }
    if let Some(threads) = threads {
        cmd.args(["--threads", &threads.to_string()]);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    cmd.spawn()
        .map(|_| ())
        .map_err(|e| io::Error::new(e.kind(), format!("spawning {}: {e}", daemon_bin.display())))
}

/// Locates the `shadowdpd` binary: the `SHADOWDPD_BIN` environment
/// variable if set, else next to the current executable (cargo puts every
/// workspace binary in the same target directory), else — for test
/// binaries, which live one level down in `target/<profile>/deps/` — next
/// to the executable's parent directory.
fn daemon_binary() -> io::Result<PathBuf> {
    if let Some(path) = std::env::var_os("SHADOWDPD_BIN") {
        let path = PathBuf::from(path);
        if path.exists() {
            return Ok(path);
        }
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("SHADOWDPD_BIN points at missing {}", path.display()),
        ));
    }
    let exe = std::env::current_exe()?;
    let sibling = exe.with_file_name("shadowdpd");
    if sibling.exists() {
        return Ok(sibling);
    }
    if let Some(above_deps) = exe
        .parent()
        .filter(|dir| dir.file_name().is_some_and(|n| n == "deps"))
        .and_then(Path::parent)
    {
        let candidate = above_deps.join("shadowdpd");
        if candidate.exists() {
            return Ok(candidate);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        format!(
            "no daemon at {} — build it with `cargo build -p shadowdp-service`",
            sibling.display()
        ),
    ))
}
