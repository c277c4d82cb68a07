//! `ewh-bench <subcommand> [flags]` — see [`ewh_bench::cli`].

fn main() {
    std::process::exit(ewh_bench::cli::run(std::env::args().skip(1).collect()));
}
