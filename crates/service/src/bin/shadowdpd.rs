//! The verification daemon binary.
//!
//! ```text
//! shadowdpd --socket <path> [--store <path>] [--threads <workers>]
//!           [--queue-limit <n>] [--store-max-pipeline-entries <n>]   (n ≥ 1)
//! ```
//!
//! Listens on the Unix socket, runs each submitted job on the first free
//! of `--threads` workers (default: one per core), and persists verdicts
//! to the store — an append-only record log that is compacted when it
//! holds more than twice as many logged entries as live ones, and on
//! clean shutdown. `--queue-limit` bounds the submission queue (`SUBMIT`
//! past it answers `BUSY`);
//! `--store-max-pipeline-entries` caps the pipeline tier of the store,
//! evicting the least recently served entries past the cap after each
//! job. Both caps are at least 1; 0 is a usage error. See
//! `shadowdp_service` for the protocol and formats. Exits on a client
//! `SHUTDOWN`.

use std::path::PathBuf;
use std::process::ExitCode;

use shadowdp_service::daemon::{self, DaemonConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: shadowdpd --socket <path> [--store <path>] [--threads <workers>] \
         [--queue-limit <n>] [--store-max-pipeline-entries <n>]  (n >= 1)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut socket: Option<PathBuf> = None;
    let mut store: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut queue_limit: Option<usize> = None;
    let mut max_pipeline_entries: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => socket = args.next().map(PathBuf::from),
            "--store" => store = args.next().map(PathBuf::from),
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => threads = Some(n),
                None => return usage(),
            },
            // A zero cap is a config mistake, not a meaningful bound: the
            // queue would refuse every SUBMIT, and the pipeline tier would
            // evict every entry after every job.
            "--queue-limit" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => queue_limit = Some(n),
                _ => return usage(),
            },
            "--store-max-pipeline-entries" => {
                match args.next().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n > 0 => max_pipeline_entries = Some(n),
                    _ => return usage(),
                }
            }
            _ => return usage(),
        }
    }
    let Some(socket) = socket else {
        return usage();
    };

    println!(
        "shadowdpd: listening on {} (store: {})",
        socket.display(),
        store
            .as_ref()
            .map_or_else(|| "in-memory".into(), |p| p.display().to_string())
    );
    match daemon::run(DaemonConfig {
        socket,
        store,
        threads,
        queue_limit,
        max_pipeline_entries,
    }) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("shadowdpd: {e}");
            ExitCode::FAILURE
        }
    }
}
