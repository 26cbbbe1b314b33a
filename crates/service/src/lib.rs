//! **shadowdp-service** — the verification service around the ShadowDP
//! pipeline: a persistent verdict store, a Unix-socket daemon that runs
//! each submitted job on the first free worker, and a client.
//!
//! The paper's pitch is that checking one algorithm takes seconds; this
//! crate is what turns that into infrastructure. Every verification the
//! process has ever done is remembered at two granularities
//! ([`store::VerdictStore`], an append-only record log with periodic
//! compaction — flushes are O(job), not O(store)):
//!
//! - **solver tier** — validity-query verdicts keyed by arena-independent
//!   structural fingerprints (the contents of a
//!   [`shadowdp_solver::QueryMemo`]), so a restarted daemon re-proves
//!   nothing it has proved before, even for *new* programs that share
//!   obligations with old ones;
//! - **pipeline tier** — whole-program verdict + report digest + solver
//!   dependency set keyed by (source, options), so a resubmitted program
//!   is answered without running at all.
//!
//! The daemon ([`daemon::run`]) hands each submitted job to the first free
//! of its workers, which verifies it through
//! [`shadowdp::Pipeline::verify_corpus_parallel_with_memo`] against one
//! long-lived shared memo — the CheckDP-style serving shape, where a loop
//! submitting near-identical candidates is dominated by cache hits.
//! [`client::Client`] (and the `shadowdp` binary) talk the line protocol
//! of [`proto`]; `shadowdpd` is the daemon binary.
//!
//! # Quickstart (in-process daemon)
//!
//! ```no_run
//! use shadowdp::JobSpec;
//! use shadowdp_service::{client::Client, daemon};
//!
//! let config = daemon::DaemonConfig {
//!     store: Some("/tmp/shadowdpd.store".into()),
//!     ..daemon::DaemonConfig::new("/tmp/shadowdpd.sock")
//! };
//! std::thread::spawn(move || daemon::run(config).unwrap());
//! let mut client = Client::connect_or_spawn("/tmp/shadowdpd.sock", None, None).unwrap();
//! let alg = shadowdp::corpus::laplace_mechanism();
//! let outcome = client
//!     .run_corpus(&[JobSpec::new(alg.source)])
//!     .unwrap()
//!     .remove(0);
//! assert_eq!(outcome.verdict, "proved");
//! ```

pub mod client;
pub mod daemon;
mod log;
pub mod proto;
pub mod store;

/// Derives a sibling of `path` in the same directory by appending
/// `suffix` to its file name (`/run/x.sock` + `.lock` →
/// `/run/x.sock.lock`). Same-directory placement matters everywhere this
/// is used: rename targets must not cross filesystems and lockfiles must
/// live beside the resource they guard.
pub(crate) fn sibling_path(path: &std::path::Path, suffix: &str) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(suffix);
    path.with_file_name(name)
}

pub use client::Client;
pub use daemon::{outcome_kind, render_verdict, wire_digest, DaemonConfig, BUSY_RETRY_MS};
pub use proto::{JobOutcome, OutcomeKind, ProtoError, Request, Response, StatusInfo};
pub use store::{fnv128, hex128, CompactStats, PipelineEntry, VerdictStore};
