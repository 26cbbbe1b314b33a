//! The seeded input generator: every job the benchmark sends comes from
//! here, as a function of the seed alone.
//!
//! The base corpus is the 18 Table 1 service jobs plus the 4 buggy
//! Sparse Vector / Noisy Max variants, each labelled with the verdict
//! the corpus declares for it ([`shadowdp::Expected`]) — a label the
//! verifier did not produce. Streams are built from seeded permutations
//! of the base corpus, in blocks of 22:
//!
//! - a *cold variant* α-renames the program's assigned locals to fresh
//!   names, so every solver query mentioning them has a new fingerprint
//!   while the verdict stays the label's;
//! - a *warm variant* appends a unique whitespace tail, so the pipeline
//!   key is new but the AST (and every solver query) is the base's;
//! - an *exact* input is the base spec itself (a pipeline-tier hit).

use std::collections::HashSet;

use shadowdp::corpus::{buggy_algorithms, table1_algorithms};
use shadowdp::{table1, Expected, JobSpec};
use shadowdp_service::{fnv128, hex128, VerdictStore};
use shadowdp_syntax::{parse_function, Lexer, TokenKind};

/// One program of the base corpus with its label.
#[derive(Clone, Debug)]
pub struct BaseJob {
    /// Display name (`algorithm [mode]`).
    pub name: String,
    /// The spec as the daemon receives it.
    pub spec: JobSpec,
    /// The corpus label the verdict is checked against.
    pub expect: Expected,
}

/// The 22-program base corpus, in a fixed order.
pub fn base_corpus() -> Vec<BaseJob> {
    let mut out: Vec<BaseJob> = Vec::new();
    for (alg, pair) in table1_algorithms()
        .iter()
        .zip(table1::service_jobs().chunks(2))
    {
        for (job, mode) in pair.iter().zip(["scaled", "fix-eps"]) {
            out.push(BaseJob {
                name: format!("{} [{mode}]", alg.name),
                spec: JobSpec::from_job(job),
                expect: alg.expect,
            });
        }
    }
    for alg in buggy_algorithms() {
        out.push(BaseJob {
            name: alg.name.to_string(),
            spec: JobSpec::new(alg.source),
            expect: alg.expect,
        });
    }
    out
}

/// How a stream derives its inputs from the base corpus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// α-renamed assigned locals (new fingerprints, same verdict).
    Cold,
    /// A unique whitespace tail (new pipeline key, same AST).
    Warm,
    /// The base spec itself.
    Exact,
}

/// One generated job: which base program it derives from, and the spec.
#[derive(Clone, Debug)]
pub struct Input {
    /// Index into the base corpus (the label lives there).
    pub base: usize,
    /// The spec sent to the daemon.
    pub spec: JobSpec,
}

/// splitmix64: small, seedable, and identical on every platform.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5D)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn base36(mut n: u64) -> String {
    const DIGITS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
    let mut out = Vec::new();
    loop {
        out.push(DIGITS[(n % 36) as usize]);
        n /= 36;
        if n == 0 {
            break;
        }
    }
    out.reverse();
    String::from_utf8(out).expect("ASCII digits")
}

/// Where a program's assigned locals occur: every identifier on the left
/// of `:=` that is neither a parameter nor the return variable, at every
/// position it appears (hat sigils included, since `^x` lexes as `^` and
/// `x`). Parameters stay untouched: `eps` and `size` are matched by name
/// in the verifier. Computed once per base program.
struct Renamer {
    source: String,
    /// `(start, end)` byte range and name of each occurrence, in order.
    sites: Vec<(usize, usize, String)>,
    locals: Vec<String>,
    idents: HashSet<String>,
}

impl Renamer {
    /// # Errors
    ///
    /// The source does not lex or parse.
    fn new(source: &str) -> Result<Renamer, String> {
        let f = parse_function(source).map_err(|e| format!("base does not parse: {e}"))?;
        let tokens = Lexer::new(source).lex().map_err(|e| e.to_string())?;
        let fixed: HashSet<&str> = f
            .params
            .iter()
            .map(|p| p.name.as_str())
            .chain([f.ret.name.as_str()])
            .collect();
        let mut locals: Vec<String> = Vec::new();
        for w in tokens.windows(2) {
            if let (TokenKind::Ident(name), TokenKind::Assign) = (&w[0].kind, &w[1].kind) {
                if !fixed.contains(name.as_str()) && !locals.contains(name) {
                    locals.push(name.clone());
                }
            }
        }
        let mut sites = Vec::new();
        let mut idents = HashSet::new();
        for t in &tokens {
            if let TokenKind::Ident(name) = &t.kind {
                idents.insert(name.clone());
                if locals.contains(name) {
                    sites.push((t.span.start, t.span.end, name.clone()));
                }
            }
        }
        Ok(Renamer {
            source: source.to_string(),
            sites,
            locals,
            idents,
        })
    }

    /// The program with every assigned local `x` renamed to `x_<tag>`.
    ///
    /// # Errors
    ///
    /// A fresh name collides with an existing identifier, or the renamed
    /// program does not parse.
    fn rename(&self, tag: &str) -> Result<String, String> {
        for local in &self.locals {
            let fresh = format!("{local}_{tag}");
            if self.idents.contains(&fresh) {
                return Err(format!("fresh name `{fresh}` already occurs"));
            }
        }
        let mut out = String::with_capacity(self.source.len() + (tag.len() + 1) * self.sites.len());
        let mut copied = 0;
        for (start, end, name) in &self.sites {
            out.push_str(&self.source[copied..*start]);
            out.push_str(name);
            out.push('_');
            out.push_str(tag);
            copied = *end;
        }
        out.push_str(&self.source[copied..]);
        parse_function(&out).map_err(|e| format!("renamed program does not parse: {e}"))?;
        Ok(out)
    }
}

/// Appends a whitespace tail that spells `index` in binary (space = 0,
/// tab = 1): distinct indices give distinct sources, and the lexer sees
/// exactly the base program.
fn whitespace_tail(source: &str, index: u64) -> String {
    let mut out = String::with_capacity(source.len() + 66);
    out.push_str(source);
    out.push('\n');
    let mut n = index;
    loop {
        out.push(if n & 1 == 1 { '\t' } else { ' ' });
        n >>= 1;
        if n == 0 {
            break;
        }
    }
    out.push('\n');
    out
}

/// A generated stream plus the digest of its bytes.
pub struct Stream {
    pub inputs: Vec<Input>,
    pub digest: String,
}

/// Generates `blocks` seeded permutations of the base corpus as
/// `variant` inputs, checking every generator invariant: each variant
/// parses, a warm variant's AST equals its base's, and no two inputs of a
/// cold or warm stream share a pipeline key. Inputs are numbered from
/// `first`; the number goes into cold tags and warm tails, so streams
/// numbered from disjoint ranges never share a pipeline key either.
///
/// # Errors
///
/// The first violated invariant.
pub fn generate(
    base: &[BaseJob],
    variant: Variant,
    seed: u64,
    first: u64,
    blocks: usize,
) -> Result<Stream, String> {
    let mut rng = Rng::new(seed);
    let parsed: Vec<_> = base
        .iter()
        .map(|b| parse_function(&b.spec.source).map_err(|e| format!("{}: {e}", b.name)))
        .collect::<Result<_, _>>()?;
    let renamers: Vec<Renamer> = base
        .iter()
        .map(|b| Renamer::new(&b.spec.source).map_err(|e| format!("{}: {e}", b.name)))
        .collect::<Result<_, _>>()?;
    let mut inputs = Vec::with_capacity(blocks * base.len());
    let mut keys: HashSet<u128> = base
        .iter()
        .map(|b| VerdictStore::job_key(&b.spec))
        .collect();
    let mut digest_text = String::new();
    for _ in 0..blocks {
        let mut order: Vec<usize> = (0..base.len()).collect();
        rng.shuffle(&mut order);
        for b in order {
            let index = first + inputs.len() as u64;
            let mut spec = base[b].spec.clone();
            match variant {
                Variant::Exact => {}
                Variant::Cold => {
                    // `_` is outside the base-36 alphabet, so distinct
                    // indices always give distinct tags.
                    let tag = format!("{}_{}", base36(index), base36(rng.next_u64() % 46_656));
                    spec.source = renamers[b]
                        .rename(&tag)
                        .map_err(|e| format!("{}: {e}", base[b].name))?;
                }
                Variant::Warm => {
                    spec.source = whitespace_tail(&spec.source, index);
                    let f = parse_function(&spec.source)
                        .map_err(|e| format!("{}: warm variant: {e}", base[b].name))?;
                    if f != parsed[b] {
                        return Err(format!("{}: warm variant changed the AST", base[b].name));
                    }
                }
            }
            if variant != Variant::Exact && !keys.insert(VerdictStore::job_key(&spec)) {
                return Err(format!("{}: duplicate pipeline key", base[b].name));
            }
            digest_text.push_str(&spec.canonical());
            inputs.push(Input { base: b, spec });
        }
    }
    Ok(Stream {
        inputs,
        digest: hex128(fnv128(digest_text.as_bytes())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renaming_touches_locals_only() {
        let src = "function F(eps, size: num(0,0), q: list num(*,*)) returns out: num(0,0)
             precondition eps > 0
             { i := 0; sum := 0; out := 0;
               while (i < size) { sum := sum + ^q[i]; i := i + 1; } }";
        let renamed = Renamer::new(src).unwrap().rename("t").unwrap();
        assert!(renamed.contains("i_t := 0") && renamed.contains("sum_t + ^q[i_t]"));
        assert!(renamed.contains("eps > 0") && renamed.contains("out := 0"));
        assert!(renamed.contains("i_t < size"));
    }

    #[test]
    fn same_seed_same_bytes() {
        let base = base_corpus();
        assert_eq!(base.len(), 22);
        for variant in [Variant::Cold, Variant::Warm, Variant::Exact] {
            let a = generate(&base, variant, 7, 0, 2).unwrap();
            let b = generate(&base, variant, 7, 0, 2).unwrap();
            let c = generate(&base, variant, 8, 0, 2).unwrap();
            assert_eq!(a.digest, b.digest);
            assert_ne!(a.digest, c.digest);
        }
    }

    /// Seed 704 over a 45 s stream (1637 blocks) once produced two cold
    /// variants with one pipeline key: index and random part were joined
    /// by `x`, which is a base-36 digit.
    #[test]
    fn cold_tags_never_collide() {
        generate(&base_corpus(), Variant::Cold, 704, 0, 1637).unwrap();
    }
}
