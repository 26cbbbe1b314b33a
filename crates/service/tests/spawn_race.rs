//! Auto-spawn arbitration: concurrent `Client::connect_or_spawn` callers
//! on one socket must all obtain working clients while **exactly one**
//! daemon process survives (the lockfile next to the socket arbitrates who
//! spawns), and a stale socket file left by a crashed daemon must not
//! block a later auto-spawn (the daemon probes before replacing it, and
//! refuses to clobber a *live* listener).
//!
//! These tests spawn real `shadowdpd` processes via `Command`, so the
//! race is genuinely multi-process; the callers race from threads.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use shadowdp::{corpus, JobSpec};
use shadowdp_service::daemon::{self, DaemonConfig};
use shadowdp_service::Client;

/// Keeps the test that spawns daemons apart from the one that fabricates
/// a stale socket: a child forked from this process while that socket's
/// listener is still open inherits the listener until it execs, so a
/// concurrent spawn can briefly keep the "stale" socket accepting.
static FORK_LOCK: Mutex<()> = Mutex::new(());

fn fork_lock() -> MutexGuard<'static, ()> {
    FORK_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn temp_socket(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sdpd-race-{}-{tag}-{n}.sock", std::process::id()))
}

/// Points the client's daemon lookup at the binary cargo built for this
/// test run (test binaries live in `target/<profile>/deps/`, one level
/// below the real binaries — the env override is the precise way in).
fn use_built_daemon() {
    std::env::set_var("SHADOWDPD_BIN", env!("CARGO_BIN_EXE_shadowdpd"));
}

/// PIDs of live `shadowdpd` processes serving `socket`, found by their
/// command line (each spawned daemon carries `--socket <path>` in argv).
fn daemons_serving(socket: &Path) -> Vec<u32> {
    let needle = socket.to_string_lossy().into_owned();
    let mut pids = Vec::new();
    let Ok(proc_dir) = std::fs::read_dir("/proc") else {
        return pids;
    };
    for entry in proc_dir.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|name| name.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(cmdline) = std::fs::read(entry.path().join("cmdline")) else {
            continue;
        };
        let cmdline = String::from_utf8_lossy(&cmdline);
        if cmdline.contains("shadowdpd") && cmdline.contains(needle.as_str()) {
            pids.push(pid);
        }
    }
    pids
}

/// The acceptance criterion: several concurrent `connect_or_spawn`
/// callers on the same socket all get working clients, and exactly one
/// daemon process survives the stampede.
#[test]
fn concurrent_connect_or_spawn_leaves_exactly_one_daemon() {
    let _fork = fork_lock();
    use_built_daemon();
    let socket = temp_socket("stampede");

    const CALLERS: usize = 4;
    let workers: Vec<thread::JoinHandle<()>> = (0..CALLERS)
        .map(|_| {
            let socket = socket.clone();
            thread::spawn(move || {
                let mut client = Client::connect_or_spawn(&socket, None, Some(1))
                    .expect("every racer gets a client");
                // Working client = full protocol round trips, not just an
                // accepted connection.
                client.ping().expect("ping");
                let spec = JobSpec::new(corpus::laplace_mechanism().source);
                let outcome = client.run_corpus(std::slice::from_ref(&spec)).expect("run");
                assert_eq!(outcome[0].verdict, "proved");
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("racer thread");
    }

    // Exactly one daemon is serving the socket.
    let pids = daemons_serving(&socket);
    assert_eq!(
        pids.len(),
        1,
        "stampede must spawn exactly one daemon: {pids:?}"
    );
    // The arbitration lock was released (the lockfile itself persists by
    // design — unlinking a locked path would split the lock across
    // inodes): a fresh exclusive lock must succeed immediately.
    let lock_path = {
        let mut name = socket.file_name().unwrap().to_os_string();
        name.push(".spawn-lock");
        socket.with_file_name(name)
    };
    let lock_file = std::fs::OpenOptions::new()
        .write(true)
        .open(&lock_path)
        .expect("lockfile persists");
    assert!(
        lock_file.try_lock().is_ok(),
        "spawn lock released after arbitration"
    );
    drop(lock_file);

    // Shut it down; nothing may be left listening (an orphaned second
    // daemon would still show up in the process table).
    Client::connect(&socket)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    for _ in 0..200 {
        if daemons_serving(&socket).is_empty() {
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }
    assert!(
        daemons_serving(&socket).is_empty(),
        "no daemon survives shutdown"
    );
    let _ = std::fs::remove_file(&socket);
}

/// A socket file left behind by a crashed daemon (the file exists, nobody
/// listens) must not make auto-spawn fail: the daemon probes it, gets
/// ECONNREFUSED, and replaces it.
#[test]
fn stale_socket_file_does_not_block_auto_spawn() {
    let _fork = fork_lock();
    use_built_daemon();
    let socket = temp_socket("stale");

    // Fabricate the crash artifact: bind a listener, then drop it without
    // unlinking — exactly what a SIGKILLed daemon leaves.
    {
        let _listener = std::os::unix::net::UnixListener::bind(&socket).expect("bind");
    }
    assert!(socket.exists(), "stale socket file is in place");
    assert!(
        Client::connect(&socket).is_err(),
        "nothing is listening behind the stale file"
    );

    let mut client =
        Client::connect_or_spawn(&socket, None, Some(1)).expect("auto-spawn over a stale socket");
    client.ping().expect("ping");
    client.shutdown().expect("shutdown");
    for _ in 0..200 {
        if daemons_serving(&socket).is_empty() {
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }
    let _ = std::fs::remove_file(&socket);
}

/// The other half of the probe: a daemon asked to bind where a *live*
/// daemon is serving must refuse instead of silently unlinking the live
/// listener's socket (which would orphan it).
#[test]
fn daemon_refuses_to_clobber_a_live_socket() {
    let socket = temp_socket("clobber");
    let config = DaemonConfig {
        socket: socket.clone(),
        store: None,
        threads: Some(1),
        compact_ratio: shadowdp_service::DEFAULT_COMPACT_RATIO,
        queue_limit: None,
        io_timeout: None,
        max_pipeline_entries: None,
    };
    let run_config = config.clone();
    let first = thread::spawn(move || daemon::run(run_config).expect("first daemon runs"));
    let mut client = loop {
        if let Ok(mut c) = Client::connect(&socket) {
            if c.ping().is_ok() {
                break c;
            }
        }
        thread::sleep(Duration::from_millis(25));
    };

    let err = daemon::run(config).expect_err("second daemon must refuse");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");

    // The first daemon is unharmed.
    client.ping().expect("first daemon still serves");
    client.shutdown().expect("shutdown");
    first.join().expect("first daemon exits");
}
