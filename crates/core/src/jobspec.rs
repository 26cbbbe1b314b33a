//! Wire-friendly corpus-job descriptions.
//!
//! The verification daemon receives jobs over a Unix socket, so every
//! field of a [`crate::pipeline::CorpusJob`] needs a plain-text form that
//! round-trips: [`JobSpec`] is that form. Verification options travel as
//! an [`OptionsSpec`] whose fields are strings and integers — BMC
//! assumptions are pretty-printed expressions re-parsed on arrival, the
//! cost-linearization mode is a `scaled`/`fixeps:<n>/<d>` token — and
//! [`JobSpec::canonical`] renders the whole spec as one deterministic
//! string, which is what the service's pipeline-tier verdict cache hashes
//! into its key. Both sides of the socket construct jobs through this
//! module, so a spec that round-trips here is exactly a job the daemon
//! can schedule.

use std::fmt;

use shadowdp_num::Rat;
use shadowdp_syntax::{parse_expr, pretty_expr};
use shadowdp_verify::{BmcOptions, Engine, InductiveOptions, Options, VerifyMode};

use crate::pipeline::CorpusJob;

/// A malformed job specification (unknown token or unparseable
/// assumption expression).
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpecError(pub String);

impl fmt::Display for JobSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed job spec: {}", self.0)
    }
}

impl std::error::Error for JobSpecError {}

/// Plain-text form of [`shadowdp_verify::Options`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptionsSpec {
    /// `scaled` or `fixeps:<numer>/<denom>`.
    pub mode: String,
    /// `inductive`, `bmc`, or `inductive+bmc`.
    pub engine: String,
    /// [`BmcOptions::list_len`].
    pub list_len: usize,
    /// [`BmcOptions::max_unroll`].
    pub max_unroll: Option<usize>,
    /// [`BmcOptions::assumptions`], pretty-printed; re-parsed with
    /// [`shadowdp_syntax::parse_expr`] when the spec is instantiated.
    pub assumptions: Vec<String>,
    /// [`InductiveOptions::max_rounds`].
    pub max_rounds: usize,
    /// Resource-budget wall-clock deadline in milliseconds
    /// ([`shadowdp_verify::Options::budget`]); `None` = no deadline.
    pub budget_millis: Option<u64>,
    /// Resource-budget theory-call cap; `None` = no cap.
    pub budget_theory_calls: Option<u64>,
}

impl OptionsSpec {
    /// The plain-text form of concrete options (always round-trips:
    /// pretty-printed expressions re-parse to themselves).
    pub fn from_options(options: &Options) -> OptionsSpec {
        OptionsSpec {
            mode: match &options.mode {
                VerifyMode::Scaled => "scaled".to_string(),
                VerifyMode::FixEps(r) => format!("fixeps:{}/{}", r.numer(), r.denom()),
            },
            engine: match options.engine {
                Engine::Inductive => "inductive",
                Engine::Bmc => "bmc",
                Engine::InductiveThenBmc => "inductive+bmc",
            }
            .to_string(),
            list_len: options.bmc.list_len,
            max_unroll: options.bmc.max_unroll,
            assumptions: options.bmc.assumptions.iter().map(pretty_expr).collect(),
            max_rounds: options.inductive.max_rounds,
            budget_millis: options
                .budget
                .as_ref()
                .and_then(|b| b.deadline)
                .map(|d| d.as_millis().min(u64::MAX as u128) as u64),
            budget_theory_calls: options.budget.as_ref().and_then(|b| b.max_theory_calls),
        }
    }

    /// Instantiates concrete options.
    ///
    /// # Errors
    ///
    /// Returns [`JobSpecError`] on an unknown mode/engine token, a fix-ε
    /// that is not positive, or an assumption that does not parse as an
    /// expression.
    pub fn to_options(&self) -> Result<Options, JobSpecError> {
        let mode = if self.mode == "scaled" {
            VerifyMode::Scaled
        } else if let Some(frac) = self.mode.strip_prefix("fixeps:") {
            let (n, d) = frac.split_once('/').ok_or_else(|| {
                JobSpecError(format!("mode `{}`: expected fixeps:<n>/<d>", self.mode))
            })?;
            let n: i128 = n
                .parse()
                .map_err(|_| JobSpecError(format!("mode `{}`: bad numerator", self.mode)))?;
            let d: i128 = d
                .parse()
                .map_err(|_| JobSpecError(format!("mode `{}`: bad denominator", self.mode)))?;
            // `Rat::new` panics on a zero denominator and its reduction
            // (gcd via `abs`, negation of a negative denominator)
            // overflows on i128::MIN — and this runs on a daemon
            // worker thread, so a crafted request must be an error here,
            // never a panic there.
            if d == 0 || d == i128::MIN || n == i128::MIN {
                return Err(JobSpecError(format!(
                    "mode `{}`: unrepresentable rational",
                    self.mode
                )));
            }
            // ε ≤ 0 carries no privacy guarantee: a proof under it would be
            // a stored `proved` that means nothing.
            let eps = Rat::new(n, d);
            if !eps.is_positive() {
                return Err(JobSpecError(format!(
                    "mode `{}`: ε must be positive",
                    self.mode
                )));
            }
            VerifyMode::FixEps(eps)
        } else {
            return Err(JobSpecError(format!("unknown mode `{}`", self.mode)));
        };
        let engine = match self.engine.as_str() {
            "inductive" => Engine::Inductive,
            "bmc" => Engine::Bmc,
            "inductive+bmc" => Engine::InductiveThenBmc,
            other => return Err(JobSpecError(format!("unknown engine `{other}`"))),
        };
        let assumptions = self
            .assumptions
            .iter()
            .map(|s| parse_expr(s).map_err(|e| JobSpecError(format!("assumption `{s}`: {e}"))))
            .collect::<Result<Vec<_>, _>>()?;
        let budget = match (self.budget_millis, self.budget_theory_calls) {
            (None, None) => None,
            (millis, calls) => Some(shadowdp_solver::Budget {
                deadline: millis.map(std::time::Duration::from_millis),
                max_theory_calls: calls,
            }),
        };
        Ok(Options {
            mode,
            engine,
            bmc: BmcOptions {
                list_len: self.list_len,
                max_unroll: self.max_unroll,
                assumptions,
            },
            inductive: InductiveOptions {
                max_rounds: self.max_rounds,
                ..InductiveOptions::default()
            },
            budget,
        })
    }
}

/// Wire-friendly form of one [`CorpusJob`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// ShadowDP source text.
    pub source: String,
    /// Per-job options; `None` inherits the daemon pipeline's defaults.
    pub options: Option<OptionsSpec>,
    /// [`CorpusJob::isolated_memo`].
    pub isolated_memo: bool,
}

impl JobSpec {
    /// A spec with default (inherited) options and the shared memo.
    pub fn new(source: impl Into<String>) -> JobSpec {
        JobSpec {
            source: source.into(),
            options: None,
            isolated_memo: false,
        }
    }

    /// The plain-text form of an in-process job.
    pub fn from_job(job: &CorpusJob) -> JobSpec {
        JobSpec {
            source: job.source.clone(),
            options: job.options.as_ref().map(OptionsSpec::from_options),
            isolated_memo: job.isolated_memo,
        }
    }

    /// Instantiates the schedulable job.
    ///
    /// # Errors
    ///
    /// Returns [`JobSpecError`] if the options spec is malformed (the
    /// source is *not* validated here — parse failures are a per-job
    /// pipeline outcome, not a protocol error).
    pub fn to_job(&self) -> Result<CorpusJob, JobSpecError> {
        let mut job = match &self.options {
            None => CorpusJob::new(self.source.clone()),
            Some(spec) => CorpusJob::with_options(self.source.clone(), spec.to_options()?),
        };
        if self.isolated_memo {
            job = job.with_isolated_memo();
        }
        Ok(job)
    }

    /// A deterministic, injective rendering of the whole spec: every field
    /// is length-prefixed, so distinct specs can never render equal. The
    /// service's pipeline-tier verdict cache hashes this string as its
    /// key — two submissions with this rendering equal are the same
    /// verification by construction.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut field = |tag: &str, value: &str| {
            let _ = write!(out, "{tag}:{}:{value};", value.len());
        };
        field("source", &self.source);
        field("isolated", if self.isolated_memo { "1" } else { "0" });
        match &self.options {
            None => field("options", "default"),
            Some(o) => {
                field("mode", &o.mode);
                field("engine", &o.engine);
                field("list_len", &o.list_len.to_string());
                field(
                    "max_unroll",
                    &o.max_unroll.map_or_else(|| "-".into(), |n| n.to_string()),
                );
                field("max_rounds", &o.max_rounds.to_string());
                // Budget fields are emitted only when set, so specs
                // predating resource budgets keep their store keys — and a
                // resubmission with a larger budget gets a *distinct* key,
                // which is what lets it bypass a ResourceExhausted-era
                // cache line and re-verify for real.
                if let Some(ms) = o.budget_millis {
                    field("budget_ms", &ms.to_string());
                }
                if let Some(calls) = o.budget_theory_calls {
                    field("budget_calls", &calls.to_string());
                }
                field("assumptions", &o.assumptions.len().to_string());
                for a in &o.assumptions {
                    field("assume", a);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1;

    /// Every Table 1 job round-trips through its wire form: spec → job
    /// rebuilds identical options (witnessed by re-rendering the spec).
    #[test]
    fn table1_jobs_round_trip() {
        for job in table1::corpus_jobs() {
            let spec = JobSpec::from_job(&job);
            let rebuilt = spec.to_job().expect("table1 specs are well-formed");
            assert_eq!(spec, JobSpec::from_job(&rebuilt));
            assert_eq!(job.isolated_memo, rebuilt.isolated_memo);
        }
    }

    #[test]
    fn fixeps_mode_round_trips() {
        let options = Options {
            mode: VerifyMode::FixEps(Rat::new(3, 7)),
            ..Options::default()
        };
        let spec = OptionsSpec::from_options(&options);
        assert_eq!(spec.mode, "fixeps:3/7");
        let back = spec.to_options().unwrap();
        assert_eq!(back.mode, VerifyMode::FixEps(Rat::new(3, 7)));
    }

    #[test]
    fn malformed_specs_are_rejected_not_panicked() {
        let mut spec = OptionsSpec::from_options(&Options::default());
        spec.mode = "quantum".into();
        assert!(spec.to_options().is_err());
        spec.mode = "fixeps:1/0".into();
        assert!(spec.to_options().is_err());
        // i128::MIN would panic inside Rat's reduction; must be an error.
        spec.mode = format!("fixeps:1/{}", i128::MIN);
        assert!(spec.to_options().is_err());
        spec.mode = format!("fixeps:{}/1", i128::MIN);
        assert!(spec.to_options().is_err());
        // ε ≤ 0 is no privacy guarantee; a negative over a negative is.
        for mode in ["fixeps:0/1", "fixeps:-1/1", "fixeps:1/-2"] {
            spec.mode = mode.into();
            let err = spec.to_options().expect_err(mode);
            assert!(err.0.ends_with("ε must be positive"), "{err}");
        }
        spec.mode = "fixeps:-1/-2".into();
        assert!(spec.to_options().is_ok());
        spec.mode = "scaled".into();
        spec.engine = "oracle".into();
        assert!(spec.to_options().is_err());
        spec.engine = "bmc".into();
        spec.assumptions = vec!["((".into()];
        assert!(spec.to_options().is_err());
    }

    /// The canonical rendering is injective on the fields that matter:
    /// changing any field changes the rendering.
    #[test]
    fn canonical_rendering_separates_distinct_specs() {
        let base = JobSpec::new("function F() returns o: num(0,0) { o := 0; }");
        let mut variants = vec![base.clone()];
        let mut with_source = base.clone();
        with_source.source.push(' ');
        variants.push(with_source);
        let mut isolated = base.clone();
        isolated.isolated_memo = true;
        variants.push(isolated);
        let mut with_options = base.clone();
        with_options.options = Some(OptionsSpec::from_options(&Options::default()));
        variants.push(with_options.clone());
        let mut other_mode = with_options.clone();
        other_mode.options.as_mut().unwrap().mode = "fixeps:1/1".into();
        variants.push(other_mode);
        let mut other_assume = with_options.clone();
        other_assume.options.as_mut().unwrap().assumptions = vec!["NN == 1".into()];
        variants.push(other_assume);

        let rendered: Vec<String> = variants.iter().map(JobSpec::canonical).collect();
        for (i, a) in rendered.iter().enumerate() {
            for (j, b) in rendered.iter().enumerate() {
                assert_eq!(a == b, i == j, "specs {i} and {j}");
            }
        }
    }
}
