//! The record log behind both durable files of the service, the verdict
//! store (`store.rs`) and the daemon's in-flight journal (`daemon.rs`).
//! It owns the framing and the disk discipline; each owner encodes its
//! payloads and decides which ones replay.
//!
//! ```text
//! magic   8 bytes per owner (store: b"SDPV3E" + two-digit verifier
//!         epoch; journal: b"SDPJRNL1")
//! record* u32 LE payload length | payload | u128 LE fnv128(payload)
//! ```
//!
//! - **Replay** keeps the valid prefix: it stops at the first torn or
//!   corrupt record, or the first payload the owner rejects. Only a short
//!   or foreign magic rejects the whole file.
//! - **Append** truncates the file to the valid prefix (dropping what a
//!   crashed or failed append left), writes one record and fsyncs; if a
//!   step fails or panics, the file is cut back to the valid prefix. On
//!   an empty log it creates the file, writes the magic first and fsyncs
//!   the directory, so the new file survives a power loss.
//! - **Rewrite** writes a sibling temp file, fsyncs it, renames it over
//!   the file and fsyncs the directory, so a crash leaves the old file or
//!   the new one. Rewriting to zero records removes the file.
//! - **Clear** cuts the file back to its magic, without an fsync: it is
//!   for records whose effect is already durable elsewhere (a lost cut
//!   only replays them again), and the next append's fsync makes the new
//!   length durable.
//!
//! After a rejected header, or a failed append whose cut-back failed too,
//! the log refuses appends until a rewrite (a clear of a refused log is
//! one): a record behind damage would never replay. Each I/O step is a
//! fault site, `<owner>.append.{open,setlen,write,sync,dirsync}`,
//! `<owner>.rewrite.{create,write,sync,rename,dirsync}` (removing the file
//! is the `rename` step) and `<owner>.clear.setlen`; every fsync that
//! succeeds counts in `shadowdp_log_syncs_total{site}` under its step's
//! site.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use shadowdp_fault::{fail_point, write_all};
use shadowdp_obs::LazyCounterFamily;

use crate::store::fnv128;

/// Length field plus checksum: a record's bytes beyond its payload.
const FRAME_OVERHEAD: usize = 4 + 16;

static LOG_SYNCS: LazyCounterFamily = LazyCounterFamily::new(
    "shadowdp_log_syncs_total",
    "Successful fsyncs of the store and journal logs, by the fault site of \
     the sync step (file syncs and directory syncs)",
    "site",
);

/// Registers every member of `shadowdp_log_syncs_total`, so a scrape
/// shows a sync step that has not run yet as 0.
pub(crate) fn register_metrics() {
    for owner in ["store", "journal"] {
        for step in [
            "append.sync",
            "append.dirsync",
            "rewrite.sync",
            "rewrite.dirsync",
        ] {
            LOG_SYNCS.with(&format!("{owner}.{step}"));
        }
    }
}

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
    /// Records in the valid prefix: what a replay now would hand back
    /// (the last known prefix while appends are refused).
    records: u64,
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
    /// empty log. A rejected header that `known` recognises is noted with
    /// the reason `known` gives instead of `bad magic`. Never fails and
    /// never panics on file contents.
    pub(crate) fn open(
        path: PathBuf,
        magic: &'static [u8; 8],
        owner: &'static str,
        known: fn(&[u8]) -> Option<String>,
        accept: impl FnMut(&[u8]) -> bool,
    ) -> (RecordLog, Option<String>) {
        let mut log = RecordLog {
            path,
            magic,
            owner,
            valid_len: Some(0),
            records: 0,
        };
        let Ok(bytes) = std::fs::read(&log.path) else {
            return (log, None); // missing (or unreadable): empty
        };
        let shown = log.path.display();
        let note = match replay(&bytes, magic, accept) {
            Err(why) => {
                log.valid_len = None;
                let why = bytes
                    .get(..magic.len())
                    .and_then(known)
                    .unwrap_or_else(|| why.to_string());
                Some(format!("{owner} {shown} unusable ({why}); starting empty"))
            }
            Ok(kept) => {
                log.valid_len = Some(kept.valid_len);
                log.records = kept.records;
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

    /// Records in the valid prefix: what a replay now would hand back.
    pub(crate) fn records(&self) -> u64 {
        self.records
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
        sync(&site("sync"), || file.sync_all())?;
        if keep == 0 {
            sync(&site("dirsync"), || sync_dir(cut.path))?;
        }
        cut.armed = false;
        *cut.valid_len = Some(keep + bytes.len() as u64);
        self.records += 1;
        Ok(())
    }

    /// Replaces the file with `payloads`, atomically (see the module
    /// docs), which also ends a refusal of appends.
    ///
    /// # Errors
    ///
    /// The failing step's error. The file is then as it was before,
    /// unless only the directory fsync failed: the new file is then in
    /// place, and the log describes it.
    pub(crate) fn rewrite<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> io::Result<()> {
        let site = |step: &str| format!("{}.rewrite.{step}", self.owner);
        if payloads.is_empty() {
            fail_point(&site("rename"))?;
            remove(&self.path)?;
            self.valid_len = Some(0);
            self.records = 0;
            return Ok(());
        }
        let bytes = image(self.magic, payloads)?;
        let tmp = crate::sibling_path(&self.path, ".tmp");
        {
            fail_point(&site("create"))?;
            let mut file = File::create(&tmp)?;
            write_all(&site("write"), &mut file, &bytes)?;
            sync(&site("sync"), || file.sync_all())?;
        }
        fail_point(&site("rename"))?;
        if let Err(e) = std::fs::rename(&tmp, &self.path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        self.valid_len = Some(bytes.len() as u64);
        self.records = payloads.len() as u64;
        sync(&site("dirsync"), || sync_dir(&self.path))
    }

    /// Cuts the file back to its magic, dropping every record without an
    /// fsync (see the module docs). A refused log is rewritten to zero
    /// records instead, which removes the file.
    ///
    /// # Errors
    ///
    /// The failing step's error; the file is then as it was before.
    pub(crate) fn clear(&mut self) -> io::Result<()> {
        fail_point(&format!("{}.clear.setlen", self.owner))?;
        let magic = self.magic.len() as u64;
        match self.valid_len {
            None => return self.rewrite::<&[u8]>(&[]),
            Some(len) if len > magic => {
                OpenOptions::new()
                    .write(true)
                    .open(&self.path)?
                    .set_len(magic)?;
                self.valid_len = Some(magic);
            }
            Some(_) => {} // no file, or the bare magic
        }
        self.records = 0;
        Ok(())
    }
}

/// One fsync step: its fault site, then `fsync`, counted under the site
/// in `shadowdp_log_syncs_total` once it succeeds.
fn sync(site: &str, fsync: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
    fail_point(site)?;
    fsync()?;
    LOG_SYNCS.with(site).inc();
    Ok(())
}

/// Fsyncs the directory holding `path`, which makes a file created or
/// renamed there durable.
fn sync_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
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
        let (log, _) = RecordLog::open(
            path.to_path_buf(),
            MAGIC,
            "journal",
            |_| None,
            |payload| {
                records.push(payload.to_vec());
                true
            },
        );
        (log, records)
    }

    /// A call the sweep faults, and the records it leaves once it lands.
    enum Call {
        Append(&'static [u8]),
        Rewrite(Vec<&'static [u8]>),
        Clear,
    }

    /// Every journal I/O site under every fault kind, on an empty log and
    /// on one of two records: after the faulted call, a replay gives
    /// exactly the records of the calls that returned `Ok` (and those of
    /// a rewrite whose directory fsync failed after its rename), the
    /// log's record count agrees, and the next append lands right behind
    /// them.
    #[test]
    fn journal_sites_keep_exactly_the_acknowledged_records() {
        let kinds = [
            FaultKind::Error,
            FaultKind::TornWrite { keep: 7 },
            FaultKind::Panic,
            FaultKind::Delay { millis: 1 },
        ];
        let [a, b, c]: [&'static [u8]; 3] = [b"SUBMIT\ta", b"SUBMIT\tb", b"SUBMIT\tc"];
        // (site, the call, the initial record counts at which it reaches
        // the site: only an append that creates the file syncs the
        // directory)
        let calls: [(&str, Call, &[usize]); 12] = [
            ("append.open", Call::Append(c), &[0, 2]),
            ("append.setlen", Call::Append(c), &[0, 2]),
            ("append.write", Call::Append(c), &[0, 2]),
            ("append.sync", Call::Append(c), &[0, 2]),
            ("append.dirsync", Call::Append(c), &[0]),
            ("rewrite.create", Call::Rewrite(vec![b, c]), &[0, 2]),
            ("rewrite.write", Call::Rewrite(vec![b, c]), &[0, 2]),
            ("rewrite.sync", Call::Rewrite(vec![b, c]), &[0, 2]),
            ("rewrite.rename", Call::Rewrite(vec![b, c]), &[0, 2]),
            ("rewrite.dirsync", Call::Rewrite(vec![b, c]), &[0, 2]),
            ("rewrite.rename", Call::Rewrite(vec![]), &[0, 2]),
            ("clear.setlen", Call::Clear, &[0, 2]),
        ];
        for (step, call, initials) in &calls {
            for kind in &kinds {
                for &initial in *initials {
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
                    let result = catch_unwind(AssertUnwindSafe(|| match call {
                        Call::Append(record) => log.append(record),
                        Call::Rewrite(records) => log.rewrite(records),
                        Call::Clear => log.clear(),
                    }));
                    drop(guard);
                    let ok = matches!(result, Ok(Ok(())));
                    assert_eq!(ok, matches!(kind, FaultKind::Delay { .. }), "{case}");
                    if ok || *step == "rewrite.dirsync" {
                        match call {
                            Call::Append(record) => acked.push(record.to_vec()),
                            Call::Rewrite(records) => {
                                acked = records.iter().map(|r| r.to_vec()).collect();
                            }
                            Call::Clear => acked.clear(),
                        }
                    }
                    assert_eq!(open(&path).1, acked, "{case}");
                    assert_eq!(log.records(), acked.len() as u64, "{case}");

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

    /// Nothing is appended behind a rejected header; a rewrite heals it,
    /// and so does a clear.
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

        std::fs::write(&path, b"not a journal").expect("write foreign file");
        let (mut log, _) = open(&path);
        log.clear().expect("a clear heals by removing the file");
        log.append(b"next").expect("appends resume");
        assert_eq!(open(&path).1, [b"next".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }
}
