//! The buggy corpus's pinned counterexamples, shared by the tests that
//! check them (`counterexample_pin.rs`, `witness_order.rs`).

use shadowdp::corpus;
use shadowdp::CorpusJob;
use shadowdp_verify::{BmcOptions, Engine, Options};

/// Per [`corpus::buggy_algorithms`] entry, in order: the rendered verdict
/// and the wire digest of its report digest.
pub const PINNED: [(&str, &str); 4] = [
    (
        "refuted: violates assert(!(q[i] + ^q[i] + eta2 >= tt)) with T#3 = 1, ^q[0] = 1, \
         ^q[1] = 0, ^q[2] = 0, eps#1 = 1, size#2 = 3, ~q[0] = 1, ~q[1] = 0, ~q[2] = 0",
        "c594a2adf896e6e3dec9d72f203b0926",
    ),
    (
        "refuted: violates assert(q[i] + ^q[i] + eta2 >= tt + 1) with T#3 = 0, ^q[0] = -1, \
         ^q[1] = 0, ^q[2] = 0, eps#1 = 1, size#2 = 3, ~q[0] = -1, ~q[1] = 0, ~q[2] = 0",
        "8b4dcc52c04a20af72e516a2ba617d8d",
    ),
    (
        "refuted: violates assert(v_eps <= 4) with T#3 = 0, ^q[0] = 0, ^q[1] = 0, ^q[2] = 0, \
         eps#1 = 1, eta2#5 = 0, eta2#6 = 0, size#2 = 3, ~q[0] = 0, ~q[1] = 0, ~q[2] = 0",
        "74ec1327209f0546375884c34d316d03",
    ),
    (
        "error in TypeCheck: type error: alignment `0 - eta` for sample `eta` is not \
         injective (rule T-Laplace)",
        "6e18bb2d7074a21f7e578b9355f2efc1",
    ),
];

/// The options `examples/bug_finding.rs` verifies a buggy variant with.
pub fn job_for(alg: &corpus::Algorithm) -> CorpusJob {
    let options = Options {
        engine: Engine::InductiveThenBmc,
        bmc: BmcOptions {
            list_len: 3,
            max_unroll: None,
            assumptions: alg
                .bmc_assumptions
                .iter()
                .map(|s| shadowdp_syntax::parse_expr(s).unwrap())
                .collect(),
        },
        ..Options::default()
    };
    CorpusJob::with_options(alg.source, options)
}
