//! `repro`'s command line: a bad invocation is a usage error (exit 2)
//! that runs no experiment, never a panic.

use std::process::Command;

#[test]
fn bad_invocations_exit_2_without_running_an_experiment() {
    for args in [&["--ops"][..], &["--scale", "x"], &["concurrency"], &["fig1", "--threads", "4"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "repro {args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran something: {out:?}");
    }
}
