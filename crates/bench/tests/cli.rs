//! Bad input to a grid bin is a usage error (exit 2, the cause on
//! stderr) before any cell runs: never a worker panic, and never a
//! silent fallback to the paper-scale grid. Every row passes `--list`,
//! so even a bin that wrongly accepted its input would run no cell.

use std::process::Command;

/// The built binary of each bin the rows name.
fn exe(bin: &str) -> &'static str {
    match bin {
        "debug_report" => env!("CARGO_BIN_EXE_debug_report"),
        "fig2" => env!("CARGO_BIN_EXE_fig2"),
        "fig10" => env!("CARGO_BIN_EXE_fig10"),
        "table1" => env!("CARGO_BIN_EXE_table1"),
        "table3" => env!("CARGO_BIN_EXE_table3"),
        _ => unreachable!("no row runs {bin}"),
    }
}

#[test]
fn bad_arguments_are_usage_errors() {
    // (bin, arguments, CUTTLEFISH_SCALE, what stderr must name)
    let rows: [(&str, &[&str], Option<&str>, &str); 10] = [
        ("debug_report", &["SOR-ws", "abc"], None, "`abc`"),
        ("debug_report", &["SOR-ws", "-1"], None, "`-1`"),
        ("debug_report", &["SOR-ws", "3.0"], None, "`3.0`"),
        ("debug_report", &["NoSuch"], None, "`NoSuch`"),
        (
            "debug_report",
            &["SOR-ws", "0.05", "extra"],
            None,
            "`extra`",
        ),
        ("fig10", &["-smoke"], None, "`-smoke`"),
        ("fig10", &["bogus", "--smoke"], None, "`bogus`"),
        ("table3", &["--smoke", "extra"], None, "`extra`"),
        ("fig2", &[], Some("0,05"), "`0,05`"),
        ("table1", &["--no-store"], Some("NaN"), "`NaN`"),
    ];
    for (bin, args, scale, cause) in rows {
        let mut cmd = Command::new(exe(bin));
        cmd.args(args).arg("--list");
        match scale {
            Some(s) => cmd.env("CUTTLEFISH_SCALE", s),
            None => cmd.env_remove("CUTTLEFISH_SCALE"),
        };
        let out = cmd.output().expect("the bin starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let row = format!("{bin} {args:?} CUTTLEFISH_SCALE={scale:?}");
        assert_eq!(out.status.code(), Some(2), "{row}: {stderr}");
        assert!(stderr.contains(cause), "{row} must name {cause}: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stdout.contains("panicked"),
            "{row} panicked: {stderr}"
        );
    }
}
