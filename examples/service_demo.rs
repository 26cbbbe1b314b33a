//! The verification service end to end, in one process: start `shadowdpd`
//! on a temp socket, submit a small corpus twice, restart the daemon, and
//! show the second generation serving everything from the persistent
//! verdict store — byte-identical digests, zero fresh solver work.
//!
//! Run with `cargo run --release --example service_demo`. This is the
//! in-process flavor; the same flow over real binaries is
//! `shadowdpd --socket … --store …` + `shadowdp table1 --socket …`
//! (which the CI `service` job drives).

use std::thread;

use shadowdp::{corpus, JobSpec};
use shadowdp_service::daemon::{self, DaemonConfig};
use shadowdp_service::Client;

fn start(config: &DaemonConfig) -> (thread::JoinHandle<()>, Client) {
    let run_config = config.clone();
    let handle = thread::spawn(move || daemon::run(run_config).expect("daemon runs"));
    for _ in 0..200 {
        if let Ok(mut client) = Client::connect(&config.socket) {
            if client.ping().is_ok() {
                return (handle, client);
            }
        }
        thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("daemon did not come up");
}

fn main() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let config = DaemonConfig {
        store: Some(dir.join(format!("shadowdp-demo-{pid}.store"))),
        ..DaemonConfig::new(dir.join(format!("shadowdp-demo-{pid}.sock")))
    };

    let specs: Vec<JobSpec> = [
        corpus::laplace_mechanism(),
        corpus::noisy_max(),
        corpus::partial_sum(),
    ]
    .iter()
    .map(|alg| JobSpec::new(alg.source))
    .collect();

    println!("=== generation 1: cold daemon ===");
    let (handle, mut client) = start(&config);
    let pass1 = client.run_corpus(&specs).expect("pass 1");
    for outcome in &pass1 {
        println!(
            "  job {}: {} (from {}, {} solver checks, {} theory calls)",
            outcome.id,
            outcome.verdict,
            if outcome.from_store {
                "store"
            } else {
                "fresh run"
            },
            outcome.checks,
            outcome.theory_calls,
        );
    }
    let status = client.status().expect("status");
    println!(
        "  daemon: memo={} entries, pipeline store={} entries",
        status.memo_entries, status.pipeline_store
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");

    println!("=== generation 2: restarted daemon, same store ===");
    let (handle, mut client) = start(&config);
    let pass2 = client.run_corpus(&specs).expect("pass 2");
    for (a, b) in pass1.iter().zip(&pass2) {
        assert_eq!(a.digest, b.digest, "restart must not change results");
        assert!(b.from_store, "restart must serve from the store");
        println!(
            "  job {}: {} (from {}, digest identical: {})",
            b.id,
            b.verdict,
            if b.from_store { "store" } else { "fresh run" },
            a.digest == b.digest,
        );
    }
    println!(
        "  daemon: store served {} of {} jobs, zero fresh verifications",
        pass2.iter().filter(|o| o.from_store).count(),
        pass2.len()
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("clean exit");

    if let Some(store) = &config.store {
        let _ = std::fs::remove_file(store);
    }
    println!("ok");
}
