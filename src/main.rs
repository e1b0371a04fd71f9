//! Workspace-root entry point: `cargo run --release -- <command>` from
//! the repository root behaves exactly like the `archdse` binary.

fn main() -> std::process::ExitCode {
    archdse_cli::main()
}
