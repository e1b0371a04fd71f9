//! The `archdse` command-line entry point.

fn main() -> std::process::ExitCode {
    archdse_cli::main()
}
