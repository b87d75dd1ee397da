//! Experiment harness: one runner per table and figure of the DAISM
//! paper, plus the reproduction's own ablations.
//!
//! Every experiment is a pure function returning a typed result with a
//! `Display` implementation that prints the same rows/series the paper
//! reports; the `src/bin/` wrappers are one-liners. `EXPERIMENTS.md`
//! records the printed output against the paper's published numbers.
//!
//! | artifact | runner | binary |
//! |----------|--------|--------|
//! | Table I   | [`table1::run`] | `cargo run -p daism-bench --bin table1` |
//! | Table II  | [`table2::run`] | `…--bin table2` |
//! | Table III | [`table3::run`] | `…--bin table3` |
//! | Fig. 4    | [`fig4::run`]   | `…--bin fig4 --release` |
//! | Fig. 5    | [`fig5::run`]   | `…--bin fig5` |
//! | Fig. 6    | [`fig6::run`]   | `…--bin fig6` |
//! | Fig. 7    | [`fig7::run`]   | `…--bin fig7` |
//! | Fig. 8    | [`fig8::run`]   | `…--bin fig8` |
//! | ablations | [`ablations::run`] | `…--bin ablations` |
//! | error analysis | [`error_tables::run`] | `…--bin error_tables` |
//! | VGG-8 end-to-end (ext.) | [`vgg8_e2e::run`] | `…--bin vgg8_e2e` |
//! | fault study (ext.) | [`fault_study::run`] | `…--bin fault_study` |
//! | width sweep (ext.) | [`format_sweep::run`] | `…--bin format_sweep` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod error_tables;
pub mod fault_study;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod format_sweep;
pub mod harness;
pub mod par;
pub mod serve;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod vgg8_e2e;
