//! `debug_report`'s positional arguments: a bad benchmark name or scale
//! is a usage error (exit 2, the cause on stderr) before any cell runs,
//! never a worker panic or a silent fallback to the default scale.

use std::process::Command;

#[test]
fn bad_positionals_are_usage_errors() {
    for (args, cause) in [
        (&["SOR-ws", "abc"][..], "`abc`"),
        (&["SOR-ws", "-1"][..], "`-1`"),
        (&["SOR-ws", "3.0"][..], "`3.0`"),
        (&["NoSuch"][..], "`NoSuch`"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_debug_report"))
            .args(args)
            .arg("--no-store")
            .output()
            .expect("debug_report starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(cause),
            "{args:?} must name {cause}: {stderr}"
        );
        assert!(
            !stderr.contains("panicked") && !stdout.contains("panicked"),
            "{args:?} panicked: {stderr}"
        );
    }
}
