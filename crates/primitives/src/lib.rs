#![warn(missing_docs)]
//! Fundamental parallel primitives for symmetric multiprocessors.
//!
//! The Tarjan–Vishkin biconnected-components pipeline is built from the
//! classic PRAM toolbox; this crate provides SMP adaptations of every
//! primitive the paper names in §1:
//!
//! | primitive | module | SMP algorithm |
//! |-----------|--------|---------------|
//! | prefix sum | [`scan`] | Helman–JáJá block scan: local sums → p-scan → rescan |
//! | pointer jumping / list ranking | [`list_rank`] | Wyllie's jumping **and** Helman–JáJá sampled sublists |
//! | sorting | [`sort`] | Helman–JáJá parallel sample sort, plus LSD radix sort |
//! | compaction | [`compact`] | scan-based stream compaction |
//! | reductions | [`reduce`] | block-parallel sum/min/max |
//!
//! Every primitive takes a [`bcc_smp::Pool`] and works for any thread
//! count `p >= 1`; the `p = 1` path degenerates to the straightforward
//! sequential loop (so parallel overheads are purely algorithmic, as the
//! paper's analysis assumes).

pub mod compact;
pub mod kernels;
pub mod list_rank;
pub mod reduce;
pub mod rmq;
pub mod scan;
pub mod sort;

pub use compact::{compact_indices, compact_indices_ws, compact_with, compact_with_ws};
pub use list_rank::{
    list_rank_hj, list_rank_hj_ws, list_rank_seq, list_rank_seq_ws, list_rank_wyllie,
    list_rank_wyllie_ws,
};
pub use reduce::{par_max, par_min, par_sum_u64};
pub use rmq::{Extremum, RangeTable};
pub use scan::{
    exclusive_scan_par, exclusive_scan_par_ws, exclusive_scan_seq, inclusive_scan_par,
    inclusive_scan_par_ws, inclusive_scan_seq,
};
pub use sort::{
    par_radix_sort_u64, par_radix_sort_u64_ws, par_sample_sort, par_sample_sort_by_key,
    par_sample_sort_by_key_ws,
};
