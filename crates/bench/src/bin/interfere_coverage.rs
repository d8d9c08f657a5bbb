//! Regenerate the **performance-interference detection matrix**: every
//! perturb fault model (quantum tax, co-scheduled hog, memory stall,
//! plus the kill/wedge detection denominator) run under every detection
//! column (none, fixed threshold, accrual) on the byte-identical fault
//! draw, across all four applications — the fl-perturb answer to "does
//! a slow rank look dead, and to which detector".
//!
//! ```sh
//! cargo run --release -p fl-bench --bin interfere_coverage -- 10
//! ```
//!
//! Exits non-zero if any floor misses its contract: the accrual
//! detector must produce **zero** false positives over pure-interference
//! trials, and both real detectors must convert at least 90 % of true
//! kills and wedges into explicit failure verdicts.

use fl_apps::AppKind;
use fl_inject::PerturbPolicy;

fn main() {
    fl_bench::matrix_coverage("interfere_coverage", &AppKind::ALL, 0x9E27, |b| {
        b.perturb(PerturbPolicy::default()).run_perturb()
    });
}
