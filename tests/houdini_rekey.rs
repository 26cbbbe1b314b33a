//! Regression locks for the per-candidate Houdini assumption keying.
//!
//! The re-keying's correctness bar is that it changes *performance
//! characteristics only*: the drop decisions, surviving invariants, logs,
//! and target programs — everything [`CorpusOutcome::digest`] renders —
//! must be byte-identical to the monolithic-prefix driver it replaced.
//! The digests below were generated by the pre-change driver on the full
//! Table 1 corpus and are pinned verbatim; any engine change that alters
//! observable verification output must be a deliberate decision that
//! updates this table, never a silent side effect.

use shadowdp::table1;
use shadowdp::Pipeline;
use shadowdp_service::wire_digest;

/// Per-job fnv128 wire digests of the Table 1 corpus ([`table1::corpus_jobs`]
/// order: scaled/fix-ε pairs for each of the nine algorithms), captured
/// from the pre-rekeying driver.
const PRE_REKEYING_DIGESTS: [&str; 18] = [
    "7b9efd2efbf439c57692701360de7bae", // Report Noisy Max (scaled)
    "7b9efd2efbf439c57692701360de7bae", // Report Noisy Max (fix ε)
    "29dee81968d59f108cf08066bb8432ab", // SVT N=1 (scaled)
    "29dee81968d59f108cf08066bb8432ab", // SVT N=1 (fix ε)
    "0516a56ea40bff1e03c04700f7644203", // SVT (scaled)
    "0516a56ea40bff1e03c04700f7644203", // SVT (fix ε)
    "bf80cd0c225d76b71225cf1dcbfcea19", // NumSVT N=1 (scaled)
    "bf80cd0c225d76b71225cf1dcbfcea19", // NumSVT N=1 (fix ε)
    "cc7d45168f1231723750300b2d72f421", // NumSVT (scaled)
    "cc7d45168f1231723750300b2d72f421", // NumSVT (fix ε)
    "9f3921f3324c09381c376d29d6673151", // Gap SVT (scaled)
    "9f3921f3324c09381c376d29d6673151", // Gap SVT (fix ε)
    "dbfde9f609430c51e8834535d7b6d7aa", // Partial Sum (scaled)
    "dbfde9f609430c51e8834535d7b6d7aa", // Partial Sum (fix ε)
    "e3ed3d970de0396b8cd94ac89689fe93", // Prefix Sum (scaled)
    "e3ed3d970de0396b8cd94ac89689fe93", // Prefix Sum (fix ε)
    "56c1a446c8de6de47488b50b56481372", // Smart Sum (scaled)
    "56c1a446c8de6de47488b50b56481372", // Smart Sum (fix ε)
];

/// The verifier epoch the digests above belong to, and the wire digest of
/// their concatenation. A stored verdict is served only under the epoch
/// that wrote it, so a change that moves a digest must also bump
/// [`shadowdp::VERIFIER_EPOCH`]; editing the table alone fails
/// `digest_table_is_pinned_to_the_verifier_epoch`.
const DIGESTS_EPOCH: (u8, &str) = (2, "a0c7cb659ac50dd9110b879fab3c3551");

#[test]
fn digest_table_is_pinned_to_the_verifier_epoch() {
    let table = wire_digest(&PRE_REKEYING_DIGESTS.concat());
    assert_eq!(
        (shadowdp::VERIFIER_EPOCH, table.as_str()),
        DIGESTS_EPOCH,
        "the digest table changed: bump shadowdp::VERIFIER_EPOCH and re-pin both"
    );
}

#[test]
fn corpus_digests_are_byte_identical_to_the_pre_rekeying_driver() {
    let jobs = table1::corpus_jobs();
    assert_eq!(jobs.len(), PRE_REKEYING_DIGESTS.len());
    let outcome = Pipeline::new().verify_corpus(&jobs);
    for (i, expected) in PRE_REKEYING_DIGESTS.iter().enumerate() {
        let got = wire_digest(&outcome.report_digest(i));
        assert_eq!(
            &got, expected,
            "job {i}: report digest diverged from the pre-rekeying driver"
        );
    }
}
