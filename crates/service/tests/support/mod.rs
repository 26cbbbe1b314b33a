//! Helpers shared by the daemon test binaries: scratch paths, an
//! in-process daemon, and hand-built journal records.

// Each test binary uses a subset of these.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use shadowdp_fault::PlanHandle;
use shadowdp_service::daemon::{self, DaemonConfig};
use shadowdp_service::{fnv128, Client};

/// Unique socket/store paths per test (tests in one binary run in
/// parallel).
pub fn temp_paths(tag: &str) -> (PathBuf, PathBuf) {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    (
        dir.join(format!("sdpt-{pid}-{tag}-{n}.sock")),
        dir.join(format!("sdpt-{pid}-{tag}-{n}.store")),
    )
}

/// Starts an in-process daemon under the calling test's fault plan and
/// waits until its socket answers PING.
pub fn start_daemon(config: DaemonConfig) -> (JoinHandle<()>, Client) {
    let run_config = config.clone();
    let faults = PlanHandle::current();
    let handle = thread::spawn(move || {
        let _faults = faults.bind();
        daemon::run(run_config).expect("daemon runs");
    });
    for _ in 0..200 {
        if let Ok(mut client) = Client::connect(&config.socket) {
            if client.ping().is_ok() {
                return (handle, client);
            }
        }
        thread::sleep(Duration::from_millis(25));
    }
    panic!("daemon did not come up on {}", config.socket.display());
}

/// The daemon derives the journal path by appending `.journal` to the
/// store path; tests that inspect the journal must do the same.
pub fn journal_path(store: &Path) -> PathBuf {
    let mut name = store.file_name().unwrap().to_os_string();
    name.push(".journal");
    store.with_file_name(name)
}

/// One journal record, mirroring the daemon's framing: `u32` LE payload
/// length, payload (an encoded `SUBMIT` line), fnv128 of the payload LE.
pub fn journal_frame(line: &str) -> Vec<u8> {
    let payload = line.as_bytes();
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv128(payload).to_le_bytes());
    out
}
