#![warn(missing_docs)]

//! Shared helpers for the Cohesion benchmark harness: the design-point
//! matrix, result-table formatting, and experiment runners used by the CLI
//! binaries (one per figure), and in part by the `benchmark/` package and
//! `cohesiond`.

pub mod csv;
pub mod figures;
pub mod harness;
pub mod jsonv;
pub mod table;
