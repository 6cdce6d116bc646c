//! Bad command-line input is rejected up front: every case below must
//! exit with status 2 and a usage message, never panic, and never leave
//! a `BENCH_repro.json` behind (it fails before any workload is built).

use std::process::Command;

#[test]
fn bad_input_exits_2_with_a_message_and_no_record() {
    let cases: [&[&str]; 6] = [
        &["--scale", "0", "dump"],
        &["--threads", "0", "fig9"],
        &["--sample-period", "2", "fig9"],
        &["--learn", "fig9"],
        &["fig99"],
        &["--intra-threads", "2", "bench"],
    ];
    let dir = std::env::temp_dir().join(format!("esp-cli-input-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("repro must spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert!(stderr.contains("error: "), "{args:?}: no message in {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: panicked: {stderr}");
        assert!(!dir.join("BENCH_repro.json").exists(), "{args:?} left a BENCH_repro.json behind");
    }
    std::fs::remove_dir_all(&dir).ok();
}
