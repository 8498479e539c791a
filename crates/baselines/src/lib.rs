//! # dcs-baselines — what the Distinct-Count Sketch is measured against
//!
//! Every comparator the paper names (or leans on conceptually), built
//! from scratch so the benchmark harness can reproduce the paper's
//! qualitative claims:
//!
//! * [`exact::ExactDistinctTracker`] — the "brute-force scheme" of §6.1:
//!   per-pair net counts plus per-group distinct counts. Ground truth
//!   for every accuracy experiment, and the 96 MB-at-8M-pairs memory
//!   yardstick.
//! * [`fm::FmSketch`] / [`fm::PerGroupFm`] — Flajolet–Martin PCSA
//!   distinct counting \[12\], per group. Insert-only: demonstrates the
//!   deletion gap the Distinct-Count Sketch closes.
//! * [`hyperloglog::HyperLogLog`] — the modern insert-only distinct
//!   counter, same gap, tighter space.
//! * [`countmin::CountMinSketch`] and [`spacesaving::SpaceSaving`] —
//!   volume-based heavy-hitter detection in the Estan–Varghese style
//!   \[10\]: finds *large flows*, and therefore confuses flash crowds
//!   with attacks and misses SYN floods entirely (half-open flows carry
//!   no volume). The flash-crowd experiments quantify this.
//! * [`superspreader::SuperspreaderSampler`] — flow-sampling
//!   superspreader detection in the Venkataraman et al. style \[32\]:
//!   threshold-based, insert-only, source-oriented.
//! * [`cascaded::CascadedSummary`] — Cormode–Muthukrishnan cascaded
//!   multigraph summaries \[8\] (Count-Min over HyperLogLog cells);
//!   insert-only, the §1 contrast point for delete-resilience.
//! * [`sample_and_hold::SampleAndHold`] — Estan–Varghese byte-sampled
//!   flow tables \[10\]; structurally blind to zero-payload SYN floods.
//! * [`synfin::SynFinCusum`] — Wang et al.'s aggregate SYN−FIN CUSUM
//!   \[36\]: detects *that* a flood is underway at one router, but
//!   identifies no victim and cannot aggregate across an ISP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cascaded;
pub mod countmin;
pub mod exact;
pub mod fm;
pub mod hyperloglog;
pub mod sample_and_hold;
pub mod spacesaving;
pub mod superspreader;
pub mod synfin;

pub use cascaded::CascadedSummary;
pub use countmin::CountMinSketch;
pub use exact::ExactDistinctTracker;
pub use fm::{FmSketch, PerGroupFm};
pub use hyperloglog::HyperLogLog;
pub use sample_and_hold::SampleAndHold;
pub use spacesaving::SpaceSaving;
pub use superspreader::SuperspreaderSampler;
pub use synfin::SynFinCusum;
