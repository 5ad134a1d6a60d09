//! Library surface of the `sompi` CLI (see `main.rs` for the binary):
//! argument parsing, market/app construction from flags, and the
//! subcommand implementations, exposed for integration testing.

#![forbid(unsafe_code)]

pub mod args;
pub mod build;
pub mod commands;
pub mod serve;
