//! The record log behind both durable files of the service, the verdict
//! store (`store.rs`) and the daemon's in-flight journal (`daemon.rs`).
//! It owns the framing and the disk discipline; each owner encodes its
//! payloads and decides which ones replay.
//!
//! ```text
//! magic   8 bytes per owner (b"SDPVERD2" store, b"SDPJRNL1" journal)
//! record* u32 LE payload length | payload | u128 LE fnv128(payload)
//! ```
//!
//! - **Replay** keeps the valid prefix: it stops at the first torn or
//!   corrupt record, or the first payload the owner rejects. Only a short
//!   or foreign magic rejects the whole file.
//! - **Append** truncates the file to the valid prefix (dropping what a
//!   crashed or failed append left), writes one record and fsyncs; if a
//!   step fails or panics, the file is cut back to the valid prefix. On
//!   an empty log it creates the file and writes the magic first.
//! - **Rewrite** writes a sibling temp file, fsyncs it and renames it
//!   over the file, so a crash leaves the old file or the new one.
//!   Rewriting to zero records removes the file.
//!
//! After a rejected header, or a failed append whose cut-back failed too,
//! the log refuses appends until a rewrite: a record behind damage would
//! never replay. Each I/O step is a fault site,
//! `<owner>.append.{open,setlen,write,sync}` and
//! `<owner>.rewrite.{create,write,sync,rename}` (removing the file is the
//! `rename` step).

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use shadowdp_fault::{fail_point, write_all};

use crate::store::fnv128;

/// Length field plus checksum: a record's bytes beyond its payload.
const FRAME_OVERHEAD: usize = 4 + 16;

/// One durable record log (see the module docs).
#[derive(Debug)]
pub(crate) struct RecordLog {
    path: PathBuf,
    magic: &'static [u8; 8],
    /// Names the fault sites and the load note: `store` or `journal`.
    owner: &'static str,
    /// Bytes of the valid prefix on disk (magic and accepted records), 0
    /// for no file; `None` while appends are refused.
    valid_len: Option<u64>,
}

/// What [`replay`] kept: the valid prefix's length and its records.
pub(crate) struct Replay {
    pub(crate) valid_len: u64,
    pub(crate) records: u64,
}

/// Replays a log image, handing each checksum-valid payload in order to
/// `accept` until it rejects one.
///
/// # Errors
///
/// Why the header was rejected (`truncated` or `bad magic`).
pub(crate) fn replay(
    bytes: &[u8],
    magic: &[u8; 8],
    mut accept: impl FnMut(&[u8]) -> bool,
) -> Result<Replay, &'static str> {
    match bytes.get(..magic.len()) {
        None => return Err("truncated"),
        Some(header) if header != magic => return Err("bad magic"),
        Some(_) => {}
    }
    let mut at = magic.len();
    let mut records = 0;
    while let Some(payload) = next_payload(&bytes[at..]) {
        if !accept(payload) {
            break;
        }
        at += FRAME_OVERHEAD + payload.len();
        records += 1;
    }
    Ok(Replay {
        valid_len: at as u64,
        records,
    })
}

/// The payload of the record at the start of `bytes`, if the record is
/// whole and its checksum matches.
fn next_payload(bytes: &[u8]) -> Option<&[u8]> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let end = 4usize.checked_add(len)?;
    let payload = bytes.get(4..end)?;
    let sum = bytes.get(end..end.checked_add(16)?)?;
    (sum == fnv128(payload).to_le_bytes()).then_some(payload)
}

/// Appends one framed record to `out`.
///
/// # Errors
///
/// A payload over the u32 length limit is refused, not wrapped: a wrapped
/// length would replay as a torn tail and drop the record (for a store
/// rewrite, the whole store).
fn frame(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    let Ok(len) = u32::try_from(payload.len()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "record payload ({} bytes) exceeds the u32 frame limit",
                payload.len()
            ),
        ));
    };
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv128(payload).to_le_bytes());
    Ok(())
}

/// The magic and `payloads`, framed: the bytes a rewrite writes.
///
/// # Errors
///
/// A payload over the frame limit (see [`frame`]).
pub(crate) fn image<P: AsRef<[u8]>>(magic: &[u8; 8], payloads: &[P]) -> io::Result<Vec<u8>> {
    let mut out = magic.to_vec();
    for payload in payloads {
        frame(&mut out, payload.as_ref())?;
    }
    Ok(out)
}

impl RecordLog {
    /// Opens the log at `path`, replaying it through `accept` (see
    /// [`replay`]). Returns a note when the header was rejected or bytes
    /// after the valid prefix were dropped; a missing file is a quiet
    /// empty log. Never fails and never panics on file contents.
    pub(crate) fn open(
        path: PathBuf,
        magic: &'static [u8; 8],
        owner: &'static str,
        accept: impl FnMut(&[u8]) -> bool,
    ) -> (RecordLog, Option<String>) {
        let mut log = RecordLog {
            path,
            magic,
            owner,
            valid_len: Some(0),
        };
        let Ok(bytes) = std::fs::read(&log.path) else {
            return (log, None); // missing (or unreadable): empty
        };
        let shown = log.path.display();
        let note = match replay(&bytes, magic, accept) {
            Err(why) => {
                log.valid_len = None;
                Some(format!("{owner} {shown} unusable ({why}); starting empty"))
            }
            Ok(kept) => {
                log.valid_len = Some(kept.valid_len);
                (kept.valid_len < bytes.len() as u64).then(|| {
                    format!(
                        "{owner} {shown}: dropped {} trailing bytes after the last valid \
                         record ({} records replayed)",
                        bytes.len() as u64 - kept.valid_len,
                        kept.records,
                    )
                })
            }
        };
        (log, note)
    }

    /// Bytes of the valid prefix an append extends: 0 for none (no file,
    /// or appends refused).
    pub(crate) fn len(&self) -> u64 {
        self.valid_len.unwrap_or(0)
    }

    /// Appends one record and fsyncs it (see the module docs).
    ///
    /// # Errors
    ///
    /// The failing step's error, after the cut-back; or a refusal.
    pub(crate) fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let Some(keep) = self.valid_len else {
            return Err(io::Error::other(format!(
                "{} {} has no valid prefix to append to until it is rewritten",
                self.owner,
                self.path.display()
            )));
        };
        let mut bytes = Vec::new();
        if keep == 0 {
            bytes.extend_from_slice(self.magic);
        }
        frame(&mut bytes, payload)?;
        let site = |step: &str| format!("{}.append.{step}", self.owner);
        let mut cut = CutBack {
            path: &self.path,
            valid_len: &mut self.valid_len,
            keep,
            armed: true,
        };
        fail_point(&site("open"))?;
        let mut file = OpenOptions::new()
            .write(true)
            .create(keep == 0)
            .open(cut.path)?;
        fail_point(&site("setlen"))?;
        file.set_len(keep)?;
        file.seek(SeekFrom::Start(keep))?;
        write_all(&site("write"), &mut file, &bytes)?;
        fail_point(&site("sync"))?;
        file.sync_all()?;
        cut.armed = false;
        *cut.valid_len = Some(keep + bytes.len() as u64);
        Ok(())
    }

    /// Replaces the file with `payloads`, atomically (see the module
    /// docs), which also ends a refusal of appends.
    ///
    /// # Errors
    ///
    /// The failing step's error; the file is then as it was before.
    pub(crate) fn rewrite<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> io::Result<()> {
        let site = |step: &str| format!("{}.rewrite.{step}", self.owner);
        if payloads.is_empty() {
            fail_point(&site("rename"))?;
            remove(&self.path)?;
            self.valid_len = Some(0);
            return Ok(());
        }
        let bytes = image(self.magic, payloads)?;
        let tmp = crate::sibling_path(&self.path, ".tmp");
        {
            fail_point(&site("create"))?;
            let mut file = File::create(&tmp)?;
            write_all(&site("write"), &mut file, &bytes)?;
            fail_point(&site("sync"))?;
            file.sync_all()?;
        }
        fail_point(&site("rename"))?;
        if let Err(e) = std::fs::rename(&tmp, &self.path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        self.valid_len = Some(bytes.len() as u64);
        Ok(())
    }
}

/// While armed, cuts the file back to `keep` bytes when dropped (on a
/// failed append step and on a panic alike), or refuses further appends
/// if that fails too.
struct CutBack<'a> {
    path: &'a Path,
    valid_len: &'a mut Option<u64>,
    keep: u64,
    armed: bool,
}

impl Drop for CutBack<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // An empty log is no file, as a rewrite to zero records leaves it.
        let cut = if self.keep == 0 {
            remove(self.path)
        } else {
            OpenOptions::new()
                .write(true)
                .open(self.path)
                .and_then(|file| file.set_len(self.keep))
        };
        if cut.is_err() {
            *self.valid_len = None;
        }
    }
}

/// Removes `path`; an already missing file is not an error.
fn remove(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    use shadowdp_fault::{FaultKind, FaultPlan};

    const MAGIC: &[u8; 8] = b"SDPJRNL1";

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        std::env::temp_dir().join(format!("shadowdp-logunit-{pid}-{tag}-{n}.journal"))
    }

    /// Opens `path`, with the records a replay accepts.
    fn open(path: &Path) -> (RecordLog, Vec<Vec<u8>>) {
        let mut records = Vec::new();
        let (log, _) = RecordLog::open(path.to_path_buf(), MAGIC, "journal", |payload| {
            records.push(payload.to_vec());
            true
        });
        (log, records)
    }

    /// Every journal I/O site under every fault kind, on an empty log and
    /// on one of two records: after the faulted call, a replay gives
    /// exactly the records of the calls that returned `Ok`, and the next
    /// append lands right behind them.
    #[test]
    fn journal_sites_keep_exactly_the_acknowledged_records() {
        let kinds = [
            FaultKind::Error,
            FaultKind::TornWrite { keep: 7 },
            FaultKind::Panic,
            FaultKind::Delay { millis: 1 },
        ];
        let [a, b, c]: [&[u8]; 3] = [b"SUBMIT\ta", b"SUBMIT\tb", b"SUBMIT\tc"];
        // (site, the call: an append of its one record, or a rewrite)
        let calls: [(&str, bool, Vec<&[u8]>); 9] = [
            ("append.open", true, vec![c]),
            ("append.setlen", true, vec![c]),
            ("append.write", true, vec![c]),
            ("append.sync", true, vec![c]),
            ("rewrite.create", false, vec![b, c]),
            ("rewrite.write", false, vec![b, c]),
            ("rewrite.sync", false, vec![b, c]),
            ("rewrite.rename", false, vec![b, c]),
            ("rewrite.rename", false, vec![]),
        ];
        for (step, appends, records) in &calls {
            for kind in &kinds {
                for initial in [0, 2] {
                    let case = format!("journal.{step} {kind:?} after {initial} records");
                    let path = temp_path("sweep");
                    let (mut log, _) = open(&path);
                    let mut acked: Vec<Vec<u8>> =
                        [a, b][..initial].iter().map(|r| r.to_vec()).collect();
                    for record in &acked {
                        log.append(record).expect("clean append");
                    }
                    let guard = FaultPlan::new()
                        .once(&format!("journal.{step}"), kind.clone())
                        .install();
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        if *appends {
                            log.append(records[0])
                        } else {
                            log.rewrite(records)
                        }
                    }));
                    drop(guard);
                    let ok = matches!(result, Ok(Ok(())));
                    assert_eq!(ok, matches!(kind, FaultKind::Delay { .. }), "{case}");
                    if ok && *appends {
                        acked.push(records[0].to_vec());
                    } else if ok {
                        acked = records.iter().map(|r| r.to_vec()).collect();
                    }
                    assert_eq!(open(&path).1, acked, "{case}");

                    log.append(b"next").expect("the next append succeeds");
                    acked.push(b"next".to_vec());
                    assert_eq!(open(&path).1, acked, "{case}: next append");
                    let on_disk = std::fs::metadata(&path).expect("log exists").len();
                    assert_eq!(log.len(), on_disk, "{case}");
                    let _ = std::fs::remove_file(&path);
                    let _ = std::fs::remove_file(crate::sibling_path(&path, ".tmp"));
                }
            }
        }
    }

    /// Nothing is appended behind a rejected header; a rewrite heals it.
    #[test]
    fn a_rejected_header_refuses_appends_until_a_rewrite() {
        let path = temp_path("header");
        std::fs::write(&path, b"not a journal").expect("write foreign file");
        let (mut log, records) = open(&path);
        assert!(records.is_empty() && log.append(b"lost").is_err());
        assert_eq!(std::fs::read(&path).expect("untouched"), b"not a journal");
        log.rewrite(&[b"kept"]).expect("rewrite heals");
        log.append(b"next").expect("appends resume");
        assert_eq!(open(&path).1, [b"kept".to_vec(), b"next".to_vec()]);
        log.rewrite::<&[u8]>(&[]).expect("empty rewrite");
        assert!(!path.exists(), "zero records remove the file");
    }
}
