//! Shared scaffolding for the experiment binaries that regenerate every
//! table and figure of the paper (see DESIGN.md for the index).
//!
//! All experiments draw from the same calibrated synthetic market
//! ([`setup::paper_market`]) and the same workload constructors, so results
//! are comparable across binaries and reproducible (fixed seeds; override
//! replica counts with the `SOMPI_REPLICAS` environment variable).

#![forbid(unsafe_code)]

pub mod setup;
pub mod table;

pub use setup::*;
pub use table::Table;
