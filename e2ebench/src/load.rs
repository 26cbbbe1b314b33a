//! The end-to-end load: generated jobs sent to the daemon through
//! `shadowdp_service::Client`, each timed from its `SUBMIT` being sent to
//! its `RESULT` being received.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use shadowdp_service::{Client, JobOutcome};

use crate::inputs::Input;

/// One job as the client saw it.
pub struct Record {
    /// Index into the generated stream.
    pub input: usize,
    pub sent: Instant,
    pub queued: Instant,
    pub received: Instant,
    pub outcome: Result<JobOutcome, String>,
}

/// Reads the daemon's peak RSS once, when the `at`-th job completes, so
/// that the figure belongs to a fixed amount of work rather than to
/// however many jobs the run's time allowed.
pub struct RssProbe {
    pid: u32,
    at: usize,
    done: AtomicUsize,
    pub reading: Mutex<Option<f64>>,
}

impl RssProbe {
    pub fn new(pid: u32, at: usize) -> RssProbe {
        RssProbe {
            pid,
            at,
            done: AtomicUsize::new(0),
            reading: Mutex::new(None),
        }
    }

    fn completed(&self) {
        if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            let rss = crate::daemon::peak_rss_mb(self.pid).ok();
            *self.reading.lock().expect("probe lock") = rss;
        }
    }
}

fn failed(input: usize, sent: Instant, error: String) -> Record {
    let now = Instant::now();
    Record {
        input,
        sent,
        queued: now,
        received: now,
        outcome: Err(error),
    }
}

/// A closed loop: every client keeps exactly one job outstanding and
/// takes the next input when its `RESULT` arrives, until `deadline`.
/// Returns the clients (for the after-run scrape) and every record.
pub fn closed_loop(
    clients: Vec<Client>,
    inputs: &[Input],
    deadline: Instant,
    probe: &RssProbe,
) -> (Vec<Client>, Vec<Record>) {
    let next = AtomicUsize::new(0);
    let per_client: Vec<(Client, Vec<Record>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                scope.spawn(move || {
                    let mut records = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(input) = inputs.get(i) else { break };
                        let sent = Instant::now();
                        let id = match client.submit(&input.spec) {
                            Ok(id) => id,
                            Err(e) => {
                                records.push(failed(i, sent, format!("submit: {e}")));
                                break;
                            }
                        };
                        let queued = Instant::now();
                        let outcome = client.result(id).map_err(|e| format!("result: {e}"));
                        probe.completed();
                        let broken = outcome.is_err();
                        records.push(Record {
                            input: i,
                            sent,
                            queued,
                            received: Instant::now(),
                            outcome,
                        });
                        if broken {
                            break;
                        }
                    }
                    (client, records)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let mut clients = Vec::new();
    let mut records = Vec::new();
    for (client, recs) in per_client {
        clients.push(client);
        records.extend(recs);
    }
    records.sort_by_key(|r| r.input);
    (clients, records)
}

/// Pipelined bursts on one connection: submit a whole block, then
/// collect every result, then start the next block, until `deadline`.
pub fn bursts(
    client: &mut Client,
    inputs: &[Input],
    block: usize,
    deadline: Instant,
    probe: &RssProbe,
) -> Vec<Record> {
    let mut records = Vec::new();
    for (b, chunk) in inputs.chunks(block).enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let mut pending = Vec::with_capacity(chunk.len());
        for (k, input) in chunk.iter().enumerate() {
            let i = b * block + k;
            let sent = Instant::now();
            match client.submit(&input.spec) {
                Ok(id) => pending.push((i, sent, Instant::now(), id)),
                Err(e) => {
                    records.push(failed(i, sent, format!("submit: {e}")));
                    return records;
                }
            }
        }
        for (i, sent, queued, id) in pending {
            let outcome = client.result(id).map_err(|e| format!("result: {e}"));
            probe.completed();
            let broken = outcome.is_err();
            records.push(Record {
                input: i,
                sent,
                queued,
                received: Instant::now(),
                outcome,
            });
            if broken {
                return records;
            }
        }
    }
    records
}
