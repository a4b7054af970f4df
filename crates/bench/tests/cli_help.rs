//! `--help` drift guard for the streaming benchmark binaries.
//!
//! Each binary's flag table feeds both its parser and its `--help` output
//! (`bench::args`); these tests run the real binaries (Cargo exposes their
//! paths via `CARGO_BIN_EXE_*`) and assert that every flag listed here is
//! mentioned in the help text, and that a bad command line — an unknown flag,
//! a flag whose value is missing, a value that does not parse — exits with
//! status 2 and a pointer at the flag's help instead of a panic.

use std::process::Command;

/// Every flag `stream_throughput`'s parser accepts.
const STREAM_THROUGHPUT_FLAGS: &[&str] = &[
    "--sf",
    "--batches",
    "--batch-size",
    "--warmup",
    "--seed",
    "--deletions",
    "--query",
    "--variant",
    "--threads",
    "--shards",
    "--partitioner",
    "--rebalance",
    "--hot-tree",
    "--pipeline",
    "--queue-depth",
    "--kill-shard",
    "--recover",
    "--checkpoint-every",
    "--reshard",
    "--checkpoint-dir",
    "--smoke",
    "--help",
];

/// Every flag `serve_throughput`'s parser accepts.
const SERVE_THROUGHPUT_FLAGS: &[&str] = &[
    "--sf",
    "--batches",
    "--batch-size",
    "--warmup",
    "--seed",
    "--deletions",
    "--query",
    "--shards",
    "--threads",
    "--workload",
    "--readers",
    "--smoke",
    "--help",
];

/// Every flag `figure5`'s parser accepts.
const FIGURE5_FLAGS: &[&str] = &[
    "--query", "--phase", "--max-sf", "--runs", "--json", "--help",
];

/// Every flag `table2`'s parser accepts.
const TABLE2_FLAGS: &[&str] = &["--max-sf", "--help"];

/// Every flag `ttc_benchmark`'s parser accepts.
const TTC_BENCHMARK_FLAGS: &[&str] = &["--sf", "--runs", "--query", "--tools", "--help"];

fn help_text(bin: &str) -> String {
    let output = Command::new(bin)
        .arg("--help")
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "--help must exit 0, got {:?}",
        output.status
    );
    String::from_utf8(output.stdout).expect("help is UTF-8")
}

#[test]
fn stream_throughput_help_mentions_every_accepted_flag() {
    let help = help_text(env!("CARGO_BIN_EXE_stream_throughput"));
    for flag in STREAM_THROUGHPUT_FLAGS {
        assert!(help.contains(flag), "`{flag}` missing from --help:\n{help}");
    }
}

#[test]
fn serve_throughput_help_mentions_every_accepted_flag() {
    let help = help_text(env!("CARGO_BIN_EXE_serve_throughput"));
    for flag in SERVE_THROUGHPUT_FLAGS {
        assert!(help.contains(flag), "`{flag}` missing from --help:\n{help}");
    }
}

#[test]
fn figure5_help_mentions_every_accepted_flag() {
    let help = help_text(env!("CARGO_BIN_EXE_figure5"));
    for flag in FIGURE5_FLAGS {
        assert!(help.contains(flag), "`{flag}` missing from --help:\n{help}");
    }
}

#[test]
fn table2_help_mentions_every_accepted_flag() {
    let help = help_text(env!("CARGO_BIN_EXE_table2"));
    for flag in TABLE2_FLAGS {
        assert!(help.contains(flag), "`{flag}` missing from --help:\n{help}");
    }
}

#[test]
fn ttc_benchmark_help_mentions_every_accepted_flag() {
    let help = help_text(env!("CARGO_BIN_EXE_ttc_benchmark"));
    for flag in TTC_BENCHMARK_FLAGS {
        assert!(help.contains(flag), "`{flag}` missing from --help:\n{help}");
    }
}

#[test]
fn unknown_flags_are_rejected_with_a_help_hint() {
    for bin in [
        env!("CARGO_BIN_EXE_stream_throughput"),
        env!("CARGO_BIN_EXE_serve_throughput"),
        env!("CARGO_BIN_EXE_figure5"),
        env!("CARGO_BIN_EXE_table2"),
        env!("CARGO_BIN_EXE_ttc_benchmark"),
    ] {
        let output = Command::new(bin)
            .arg("--no-such-flag")
            .output()
            .expect("binary runs");
        assert_eq!(output.status.code(), Some(2), "unknown flag must exit 2");
        let err = String::from_utf8_lossy(&output.stderr);
        assert!(
            err.contains("--help"),
            "rejection should point at --help: {err}"
        );
    }
}

/// Run `bin` with `args`, require exit status 2 (not a panic's 101) and a
/// complaint that names `flag` and points at `--help`.
fn assert_rejected(bin: &str, args: &[&str], flag: &str) {
    let output = Command::new(bin).args(args).output().expect("binary runs");
    let err = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{bin} {args:?} must exit 2: {err}"
    );
    assert!(
        err.contains(flag) && err.contains("--help") && !err.contains("panicked"),
        "{bin} {args:?} should name {flag} and point at --help: {err}"
    );
}

/// One value-taking flag per binary: with the value missing (the command
/// line ends) and with a value that does not parse.
#[test]
fn missing_and_garbage_values_are_rejected_with_the_flags_help() {
    for (bin, flag) in [
        (env!("CARGO_BIN_EXE_stream_throughput"), "--batches"),
        (env!("CARGO_BIN_EXE_serve_throughput"), "--readers"),
        (env!("CARGO_BIN_EXE_figure5"), "--runs"),
        (env!("CARGO_BIN_EXE_table2"), "--max-sf"),
        (env!("CARGO_BIN_EXE_ttc_benchmark"), "--sf"),
    ] {
        assert_rejected(bin, &[flag], flag);
        assert_rejected(bin, &[flag, "lots"], flag);
    }
    // the checks a binary makes on a parsed value are rejections too
    let stream = env!("CARGO_BIN_EXE_stream_throughput");
    assert_rejected(stream, &["--reshard", "6-4"], "--reshard");
    assert_rejected(stream, &["--hot-tree", "1.5"], "--hot-tree");
}
