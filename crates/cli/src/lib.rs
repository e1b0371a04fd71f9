//! Library backing the `archdse` command-line tool.
//!
//! The CLI wraps the [`archdse`] crate's `Explorer` and experiment
//! drivers behind subcommands, so the whole reproduction is usable
//! without writing Rust:
//!
//! ```text
//! archdse space
//! archdse explore --benchmark mm --area 7.5 --seed 42
//! archdse table2 --full
//! archdse fig5 | fig6 | fig7 | ablations [--full] [--json FILE]
//! ```
//!
//! Every subcommand and flag is declared once, in the command table
//! (`table.rs`), which generates the help text, the flag checks and the
//! defaults; [`commands`] holds the handlers and `stack.rs` the
//! self-hosted serving stacks of `serve --shards` and `loadgen`. Parsing
//! is hand-rolled to stay within the workspace's dependency budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::process::ExitCode;

pub mod args;
pub mod commands;
mod stack;
mod table;
pub mod trace_report;

pub use args::{ArgError, Args};

/// The `archdse` entry point shared by both binaries: parses the process
/// arguments, runs the command and maps the outcome to an exit code.
pub fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", table::usage());
            return ExitCode::from(2);
        }
    };
    match commands::run(&args) {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
