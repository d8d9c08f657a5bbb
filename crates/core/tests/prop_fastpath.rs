//! Campaign-level zero-divergence, test-enforced: a campaign run on the
//! execution fast path — warm campaign-wide shared decoded store, epoch
//! snapshot forks handing children promoted superblocks — produces
//! record streams, per-class metrics and instruction totals **byte
//! identical** to the per-instruction slow path, at one worker and at
//! four. The class list includes `Text`: those trials poke code, so
//! the copy-on-poke re-decode of a bank is inside the contract too.
//!
//! This is the contract that lets `faultlab campaign` turn the fast path
//! on by default: the speedup must be observationally free. The exec
//! cache telemetry (hit/side-exit counters) is deliberately excluded —
//! it is the one campaign output that *may* differ across paths and
//! worker counts, which is why it is emitted as trailing telemetry
//! rather than woven into the per-class rows.

use fl_inject::{
    run_spec, sort_records_jsonl, CampaignSpec, EngineControl, SpecOutcome, TargetClass, VecSink,
};
use proptest::prelude::*;

fn spec(seed: u64, fastpath: bool, threads: usize) -> CampaignSpec {
    let mut spec = CampaignSpec::new(fl_apps::AppKind::Wavetoy);
    spec.tiny = true;
    spec.classes = vec![
        TargetClass::RegularReg,
        TargetClass::Stack,
        TargetClass::Text,
    ];
    spec.campaign.injections = 4;
    spec.campaign.seed = seed;
    spec.campaign.threads = threads;
    spec.campaign.obs_capacity = 128;
    spec.campaign.fastpath = fastpath;
    spec
}

/// Run one campaign and return (canonical records, metrics, insns).
fn run(seed: u64, fastpath: bool, threads: usize) -> (String, String, u64) {
    let spec = spec(seed, fastpath, threads);
    let sink = VecSink::new(spec.app);
    let out = run_spec(&spec, &sink, &EngineControl::new(), None)
        .expect("uncontrolled run cannot stop early");
    let SpecOutcome::Campaign(result) = out else {
        panic!("campaign spec must produce a campaign outcome");
    };
    let records = sort_records_jsonl(&(sink.into_lines().join("\n") + "\n"));
    let metrics = result
        .metrics
        .expect("ring was configured")
        .to_jsonl(spec.app);
    (records, metrics, result.insns_total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Warm-shared fast path ≡ slow path, at 1 and 4 workers.
    #[test]
    fn fastpath_campaign_is_byte_identical(seed in 0u64..1_000_000) {
        let (rec_fast1, met_fast1, insns_fast1) = run(seed, true, 1);
        let (rec_fast4, met_fast4, insns_fast4) = run(seed, true, 4);
        let (rec_slow1, met_slow1, insns_slow1) = run(seed, false, 1);
        let (rec_slow4, _, insns_slow4) = run(seed, false, 4);
        // Worker count is invisible.
        prop_assert_eq!(&rec_fast1, &rec_fast4);
        prop_assert_eq!(&rec_slow1, &rec_slow4);
        // The execution path is invisible.
        prop_assert_eq!(&rec_fast1, &rec_slow1);
        prop_assert_eq!(&met_fast1, &met_slow1);
        prop_assert_eq!(&met_fast1, &met_fast4);
        prop_assert_eq!(insns_fast1, insns_slow1);
        prop_assert_eq!(insns_fast1, insns_fast4);
        prop_assert_eq!(insns_slow1, insns_slow4);
    }
}
