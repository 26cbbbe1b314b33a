//! Deterministic fault injection for the verification service.
//!
//! Crash-safety claims are only as good as the faults they were tested
//! against. This crate turns the service's ad-hoc "kill the write at every
//! byte" experiments into one shared vocabulary: code under test declares
//! named **sites** (`store.append.write`, `daemon.socket.read`,
//! `solver.step`, …), and a [`FaultPlan`] — installed programmatically by a
//! test, or armed via the `SHADOWDP_FAULTS` environment variable for
//! soak-testing real daemon processes — decides deterministically which hit
//! of which site fails, and how.
//!
//! # Fault kinds
//!
//! - [`FaultKind::Error`] — the site reports an injected I/O error.
//! - [`FaultKind::TornWrite`] — a write site persists only the first
//!   `keep` bytes of its buffer, then reports an error (the on-disk state
//!   a crash mid-write leaves behind).
//! - [`FaultKind::Panic`] — the site panics (what a logic bug does).
//! - [`FaultKind::Delay`] — the site stalls for a fixed duration (what a
//!   wedged disk or peer does).
//!
//! # Determinism and cost
//!
//! A plan fires on an exact hit count per site (`@n`, 1-based, default the
//! first hit), optionally on every hit from there on (`sticky`). There is
//! no randomness at fire time; the optional seed only parameterizes
//! torn-write lengths when a plan asks for seed-derived ones. When no plan
//! is armed, a site check is a single relaxed atomic load.
//!
//! # Arming from the environment
//!
//! `SHADOWDP_FAULTS` holds a comma-separated list of `site=kind` items,
//! where `kind` is `error`, `panic`, `delay:<millis>`, or `torn:<keep>`,
//! optionally suffixed with `@<hit>` (fire on the n-th hit) and/or `+`
//! (sticky — keep firing on every later hit too):
//!
//! ```text
//! SHADOWDP_FAULTS="store.append.write=torn:7@2,daemon.socket.read=delay:50+"
//! ```
//!
//! The variable is read once, on the first site check in the process.
//!
//! # Scoped plans
//!
//! [`FaultPlan::install`] binds a plan to the installing thread and returns
//! a guard that disarms it on drop. Only code running on that thread — or
//! on a thread it starts and hands the plan to through [`PlanHandle`] —
//! sees the plan's faults and advances its hit counters, so a test's plan
//! never fires inside a sibling test running on another thread. The
//! corpus driver's workers and the daemon's workers and connection
//! threads take their starter's plan this way. A thread with no plan bound
//! falls back to the `SHADOWDP_FAULTS` plan, which is process-wide.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, PoisonError};
use std::time::Duration;

/// What an injected fault does at its site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The site reports an injected error.
    Error,
    /// A write persists only the first `keep` bytes, then errors.
    TornWrite {
        /// Bytes of the buffer that reach their destination.
        keep: u64,
    },
    /// The site panics.
    Panic,
    /// The site stalls before proceeding normally.
    Delay {
        /// Stall duration in milliseconds.
        millis: u64,
    },
}

/// One scheduled fault: a site, a kind, and when it fires.
#[derive(Clone, Debug)]
struct SiteFault {
    site: String,
    kind: FaultKind,
    /// 1-based hit number on which the fault fires.
    at_hit: u64,
    /// Whether the fault also fires on every hit after `at_hit`.
    sticky: bool,
}

/// A deterministic schedule of faults, keyed by site name and hit count.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<SiteFault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing until faults are added).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a fault firing on the first hit of `site`.
    #[must_use]
    pub fn once(self, site: &str, kind: FaultKind) -> FaultPlan {
        self.at(site, kind, 1)
    }

    /// Adds a fault firing on the `at_hit`-th (1-based) hit of `site`.
    #[must_use]
    pub fn at(mut self, site: &str, kind: FaultKind, at_hit: u64) -> FaultPlan {
        self.faults.push(SiteFault {
            site: site.to_string(),
            kind,
            at_hit: at_hit.max(1),
            sticky: false,
        });
        self
    }

    /// Adds a fault firing on the `at_hit`-th hit of `site` **and every
    /// hit after it**.
    #[must_use]
    pub fn sticky(mut self, site: &str, kind: FaultKind, at_hit: u64) -> FaultPlan {
        self.faults.push(SiteFault {
            site: site.to_string(),
            kind,
            at_hit: at_hit.max(1),
            sticky: true,
        });
        self
    }

    /// Whether the plan schedules anything at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parses the `SHADOWDP_FAULTS` specification format (see the crate
    /// docs).
    ///
    /// # Errors
    ///
    /// A message naming the malformed item.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (site, mut rest) = item
                .split_once('=')
                .ok_or_else(|| format!("fault item `{item}` is missing `=`"))?;
            let sticky = rest.ends_with('+');
            if sticky {
                rest = &rest[..rest.len() - 1];
            }
            let (kind_str, at_hit) = match rest.split_once('@') {
                Some((k, n)) => (
                    k,
                    n.parse::<u64>()
                        .map_err(|_| format!("fault item `{item}`: bad hit count `{n}`"))?,
                ),
                None => (rest, 1),
            };
            let kind = match kind_str.split_once(':') {
                None => match kind_str {
                    "error" => FaultKind::Error,
                    "panic" => FaultKind::Panic,
                    other => return Err(format!("fault item `{item}`: unknown kind `{other}`")),
                },
                Some(("delay", ms)) => FaultKind::Delay {
                    millis: ms
                        .parse()
                        .map_err(|_| format!("fault item `{item}`: bad delay `{ms}`"))?,
                },
                Some(("torn", keep)) => FaultKind::TornWrite {
                    keep: keep
                        .parse()
                        .map_err(|_| format!("fault item `{item}`: bad torn length `{keep}`"))?,
                },
                Some((other, _)) => {
                    return Err(format!("fault item `{item}`: unknown kind `{other}`"))
                }
            };
            let fault = SiteFault {
                site: site.trim().to_string(),
                kind,
                at_hit: at_hit.max(1),
                sticky,
            };
            if fault.site.is_empty() {
                return Err(format!("fault item `{item}` has an empty site"));
            }
            plan.faults.push(fault);
        }
        Ok(plan)
    }

    /// Arms the plan for the calling thread, and for every thread that
    /// later binds this thread's [`PlanHandle`]. The returned guard disarms
    /// the plan — on all of those threads at once — and restores the
    /// calling thread's previous plan when dropped.
    pub fn install(self) -> PlanGuard {
        let armed = Arc::new(Armed::new(self));
        LIVE.fetch_add(1, Ordering::Release);
        PlanGuard {
            _binding: PlanHandle(Some(armed.clone())).bind(),
            armed,
        }
    }
}

/// Keeps an installed [`FaultPlan`] armed; disarms it on drop.
#[must_use = "the plan is disarmed when the guard drops"]
pub struct PlanGuard {
    armed: Arc<Armed>,
    /// Restores the installing thread's previous plan once the plan is
    /// disarmed.
    _binding: Binding,
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        self.armed.live.store(false, Ordering::Release);
        LIVE.fetch_sub(1, Ordering::Release);
    }
}

/// The plan bound to a thread (possibly none), as a value that can move to
/// a thread it starts: [`PlanHandle::bind`] there makes the new thread see
/// the same faults and share the same hit counters.
#[derive(Clone, Debug, Default)]
pub struct PlanHandle(Option<Arc<Armed>>);

impl PlanHandle {
    /// The calling thread's plan.
    pub fn current() -> PlanHandle {
        PlanHandle(BOUND.with(|b| b.borrow().clone()))
    }

    /// Binds this plan to the calling thread until the returned guard
    /// drops.
    pub fn bind(&self) -> Binding {
        Binding {
            prev: BOUND.with(|b| b.replace(self.0.clone())),
            _thread: PhantomData,
        }
    }
}

/// Keeps a [`PlanHandle`] bound to a thread; restores the thread's
/// previous plan on drop.
#[must_use = "the plan is unbound when the guard drops"]
pub struct Binding {
    prev: Option<Arc<Armed>>,
    /// The binding is thread-local, so it must drop on the thread that
    /// made it.
    _thread: PhantomData<*const ()>,
}

impl Drop for Binding {
    fn drop(&mut self) {
        // `try_with`: a drop during thread teardown must not panic.
        let _ = BOUND.try_with(|b| *b.borrow_mut() = self.prev.take());
    }
}

/// An armed plan and its hit counters, shared by every thread it is bound
/// to.
#[derive(Debug)]
struct Armed {
    plan: FaultPlan,
    /// Cleared when the installing guard drops.
    live: AtomicBool,
    hits: Mutex<HashMap<String, u64>>,
}

impl Armed {
    fn new(plan: FaultPlan) -> Armed {
        Armed {
            plan,
            live: AtomicBool::new(true),
            hits: Mutex::new(HashMap::new()),
        }
    }

    /// Records one hit of `site` and returns the fault scheduled for it.
    fn fire(&self, site: &str) -> Option<FaultKind> {
        if !self.live.load(Ordering::Acquire) || !self.plan.faults.iter().any(|f| f.site == site) {
            return None;
        }
        let hit = {
            let mut hits = self.hits.lock().unwrap_or_else(PoisonError::into_inner);
            let hit = hits.entry(site.to_string()).or_insert(0);
            *hit += 1;
            *hit
        };
        self.plan
            .faults
            .iter()
            .find(|f| f.site == site && (hit == f.at_hit || (f.sticky && hit >= f.at_hit)))
            .map(|f| f.kind.clone())
    }
}

/// How many plans are armed anywhere in the process (installed ones plus
/// the environment's). While zero, a site check is one relaxed load. The
/// count only gates that fast path and publishes no plan data: a plan
/// reaches a thread through its binding, installed on that thread or
/// moved in before the thread started.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static ENV_INIT: Once = Once::new();
static ENV_PLAN: OnceLock<Arc<Armed>> = OnceLock::new();

thread_local! {
    /// The plan bound to this thread by [`FaultPlan::install`] or
    /// [`PlanHandle::bind`].
    static BOUND: RefCell<Option<Arc<Armed>>> = const { RefCell::new(None) };
}

/// Arms the plan from `SHADOWDP_FAULTS` exactly once per process. A parse
/// error disables injection (a soak harness misconfiguring its faults must
/// not silently test nothing: the error goes to stderr).
fn env_init() {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var("SHADOWDP_FAULTS") {
            match FaultPlan::parse(&spec) {
                Ok(plan) if !plan.is_empty() => {
                    if ENV_PLAN.set(Arc::new(Armed::new(plan))).is_ok() {
                        LIVE.fetch_add(1, Ordering::Release);
                    }
                }
                Ok(_) => {}
                Err(e) => eprintln!("SHADOWDP_FAULTS ignored: {e}"),
            }
        }
    });
}

/// Records one hit of `site` and returns the fault to inject there, if the
/// plan bound to this thread — or, when none is bound, the
/// `SHADOWDP_FAULTS` plan — schedules one for this hit. The disabled path
/// is one relaxed atomic load (after a one-time environment probe).
pub fn check(site: &str) -> Option<FaultKind> {
    env_init();
    if LIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let bound = BOUND.with(|b| b.borrow().clone());
    bound.as_ref().or(ENV_PLAN.get())?.fire(site)
}

/// An injected-error constructor, distinguishable in messages.
fn injected(site: &str, what: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {site}: {what}"))
}

/// A plain fail point for non-write sites (opens, fsyncs, renames, socket
/// reads, solver steps): applies the scheduled fault, if any.
///
/// `Error` and `TornWrite` (meaningless without a buffer) report an
/// injected error; `Panic` panics; `Delay` stalls, then succeeds.
///
/// # Errors
///
/// The injected error, when the plan schedules one for this hit.
pub fn fail_point(site: &str) -> std::io::Result<()> {
    match check(site) {
        None => Ok(()),
        Some(FaultKind::Delay { millis }) => {
            std::thread::sleep(Duration::from_millis(millis));
            Ok(())
        }
        Some(FaultKind::Panic) => panic!("injected panic at {site}"),
        Some(FaultKind::Error) => Err(injected(site, "error")),
        Some(FaultKind::TornWrite { .. }) => Err(injected(site, "error (torn at non-write site)")),
    }
}

/// A fault-aware `write_all` for write sites: on `TornWrite { keep }`,
/// writes only the first `keep` bytes of `buf` and reports an injected
/// error — exactly the bytes a crash mid-write leaves behind.
///
/// # Errors
///
/// The writer's own errors, or the injected one.
pub fn write_all(site: &str, writer: &mut impl std::io::Write, buf: &[u8]) -> std::io::Result<()> {
    match check(site) {
        None => writer.write_all(buf),
        Some(FaultKind::Delay { millis }) => {
            std::thread::sleep(Duration::from_millis(millis));
            writer.write_all(buf)
        }
        Some(FaultKind::Panic) => panic!("injected panic at {site}"),
        Some(FaultKind::Error) => Err(injected(site, "write error")),
        Some(FaultKind::TornWrite { keep }) => {
            let keep = (keep as usize).min(buf.len());
            writer.write_all(&buf[..keep])?;
            writer.flush()?;
            Err(injected(site, &format!("torn write after {keep} bytes")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_are_quiet() {
        // No plan installed: every site is a no-op.
        assert_eq!(check("nowhere"), None);
        assert!(fail_point("nowhere").is_ok());
    }

    #[test]
    fn fires_on_the_scheduled_hit_only() {
        let _guard = FaultPlan::new().at("site.a", FaultKind::Error, 3).install();
        assert_eq!(check("site.a"), None, "hit 1");
        assert_eq!(check("site.a"), None, "hit 2");
        assert_eq!(check("site.a"), Some(FaultKind::Error), "hit 3 fires");
        assert_eq!(check("site.a"), None, "hit 4: one-shot");
        assert_eq!(check("site.b"), None, "other sites unaffected");
    }

    #[test]
    fn sticky_faults_keep_firing() {
        let _guard = FaultPlan::new()
            .sticky("site.s", FaultKind::Error, 2)
            .install();
        assert_eq!(check("site.s"), None);
        for hit in 2..5 {
            assert_eq!(check("site.s"), Some(FaultKind::Error), "hit {hit}");
        }
    }

    #[test]
    fn torn_write_keeps_a_prefix_and_errors() {
        let _guard = FaultPlan::new()
            .once("w", FaultKind::TornWrite { keep: 3 })
            .install();
        let mut out = Vec::new();
        let err = write_all("w", &mut out, b"abcdef").expect_err("torn write errors");
        assert_eq!(out, b"abc");
        assert!(err.to_string().contains("injected fault at w"), "{err}");
        // The next write at the site goes through whole.
        write_all("w", &mut out, b"ghi").expect("one-shot");
        assert_eq!(out, b"abcghi");
    }

    #[test]
    fn plans_parse_from_the_env_format() {
        let plan = FaultPlan::parse("a.b=error, c=torn:7@2,d=delay:50+,e=panic@4").expect("parses");
        assert_eq!(plan.faults.len(), 4);
        assert_eq!(plan.faults[0].site, "a.b");
        assert_eq!(plan.faults[0].kind, FaultKind::Error);
        assert_eq!(plan.faults[0].at_hit, 1);
        assert_eq!(plan.faults[1].kind, FaultKind::TornWrite { keep: 7 });
        assert_eq!(plan.faults[1].at_hit, 2);
        assert_eq!(plan.faults[2].kind, FaultKind::Delay { millis: 50 });
        assert!(plan.faults[2].sticky);
        assert_eq!(plan.faults[3].kind, FaultKind::Panic);
        assert_eq!(plan.faults[3].at_hit, 4);

        for bad in [
            "justasite",
            "x=frobnicate",
            "x=torn:abc",
            "=error",
            "x=delay:",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must not parse");
        }
        assert!(FaultPlan::parse("").expect("empty spec").is_empty());
    }

    #[test]
    fn injected_panic_is_catchable() {
        let _guard = FaultPlan::new().once("p", FaultKind::Panic).install();
        let caught = std::panic::catch_unwind(|| fail_point("p"));
        assert!(caught.is_err(), "panic fault panics");
        assert!(fail_point("p").is_ok(), "one-shot");
    }

    #[test]
    fn plans_reach_only_their_thread_and_the_threads_it_hands_them_to() {
        let guard = FaultPlan::new()
            .sticky("scoped", FaultKind::Error, 2)
            .install();
        // An unrelated thread sees nothing and leaves the counters alone.
        let stranger = std::thread::spawn(|| [check("scoped"), check("scoped")]);
        assert_eq!(stranger.join().unwrap(), [None, None]);
        // A thread handed the plan shares its hit counters.
        let plan = PlanHandle::current();
        let heir = std::thread::spawn(move || {
            let _bound = plan.bind();
            check("scoped")
        });
        assert_eq!(heir.join().unwrap(), None, "hit 1");
        assert_eq!(check("scoped"), Some(FaultKind::Error), "hit 2");
        // Dropping the guard disarms the plan on every thread holding it.
        let plan = PlanHandle::current();
        drop(guard);
        let late = std::thread::spawn(move || {
            let _bound = plan.bind();
            check("scoped")
        });
        assert_eq!(late.join().unwrap(), None);
        assert_eq!(check("scoped"), None);
    }

    #[test]
    fn guard_drop_disarms() {
        {
            let _guard = FaultPlan::new().once("g", FaultKind::Error).install();
            assert_eq!(check("g"), Some(FaultKind::Error));
        }
        assert_eq!(check("g"), None, "disarmed after guard drop");
    }
}
