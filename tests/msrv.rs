//! MSRV enforcement: the README's claimed minimum supported Rust version
//! must be declared by every crate in the workspace and match the single
//! source of truth (`[workspace.package] rust-version`), so `cargo`
//! refuses old toolchains everywhere and the CI MSRV job tests exactly
//! the documented version.

use std::path::Path;

/// The version CI's MSRV matrix entry installs. If this changes, update
/// `.github/workflows/ci.yml` and the README together.
const MSRV: &str = "1.87";

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let p = workspace_root().join(rel);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("reading {}: {e}", p.display()))
}

#[test]
fn workspace_declares_the_documented_msrv() {
    let root = read("Cargo.toml");
    assert!(
        root.contains(&format!("rust-version = \"{MSRV}\"")),
        "workspace Cargo.toml must pin rust-version = \"{MSRV}\""
    );
}

#[test]
fn every_crate_inherits_the_workspace_msrv() {
    let mut checked = 0;
    for dir in ["crates", "vendor"] {
        let base = workspace_root().join(dir);
        for entry in std::fs::read_dir(&base).unwrap() {
            let path = entry.unwrap().path().join("Cargo.toml");
            if !path.is_file() {
                continue;
            }
            let manifest = std::fs::read_to_string(&path).unwrap();
            assert!(
                manifest.contains("rust-version.workspace = true")
                    || manifest.contains(&format!("rust-version = \"{MSRV}\"")),
                "{} does not declare the workspace MSRV",
                path.display()
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 11,
        "expected all 7 crates + 4 vendored stubs, found {checked}"
    );
}

#[test]
fn ci_tests_the_documented_msrv() {
    let ci = read(".github/workflows/ci.yml");
    assert!(
        ci.contains(&format!("toolchain: \"{MSRV}\"")),
        "ci.yml must carry a matrix entry for the MSRV toolchain {MSRV}"
    );
}

#[test]
fn ci_lints_the_msrv_toolchain() {
    // The MSRV matrix entry must run clippy, not just build and test:
    // lints that only hold on stable are worthless to a crate claiming
    // 1.87 support. Two things make that true in ci.yml — the MSRV
    // include block carries `clippy: true`, and the clippy step is
    // parameterized over the matrix toolchain.
    let ci = read(".github/workflows/ci.yml");
    let lines: Vec<&str> = ci.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.contains(&format!("toolchain: \"{MSRV}\"")))
        .expect("MSRV matrix entry present (asserted above)");
    let block = lines[at..(at + 4).min(lines.len())].join("\n");
    assert!(
        block.contains("clippy: true"),
        "the {MSRV} matrix entry must set `clippy: true` (got:\n{block})"
    );
    assert!(
        ci.contains("cargo +${{ matrix.toolchain }} clippy"),
        "the build-test clippy step must use the matrix toolchain so the \
         {MSRV} entry is linted too"
    );
    assert!(
        ci.contains("--component clippy"),
        "matrix toolchain installs must include the clippy component"
    );
}

#[test]
fn ci_has_the_tiered_matrix() {
    // The tiered layout: a fast `check` job gates the build-test matrix
    // and the perf gate, and a scheduled nightly job owns the full-size
    // benchmark A/A run with an artifact retention policy.
    let ci = read(".github/workflows/ci.yml");
    for needle in [
        "check:",
        "needs: check",
        "perf-gate:",
        "nightly:",
        "schedule:",
        "workflow_dispatch:",
        "retention-days:",
    ] {
        assert!(ci.contains(needle), "ci.yml tiered matrix lost `{needle}`");
    }
    assert!(
        ci.matches("needs: check").count() >= 2,
        "both build-test and perf-gate must be gated on the fast check job"
    );
}

#[test]
fn ci_caches_builds_keyed_on_lockfile_and_toolchain() {
    // Every tier that compiles the workspace must restore a build cache
    // keyed on the lockfile + toolchain — NOT on source hashes, which
    // change every push and reduce the cache to a stale-prefix restore
    // (the cold-build-every-run failure this pin exists to prevent).
    let ci = read(".github/workflows/ci.yml");
    assert!(
        ci.matches("uses: actions/cache@v4").count() >= 4,
        "check, build-test, perf-gate, and nightly must all carry a cache step"
    );
    assert!(
        ci.matches("hashFiles('Cargo.lock')").count() >= 4,
        "every cache key must be keyed on the lockfile"
    );
    assert!(
        !ci.contains("hashFiles('**/Cargo.toml', '**/*.rs')"),
        "source-hash cache keys cold-build every push; key on Cargo.lock instead"
    );
    assert!(
        ci.contains(
            "cargo-${{ matrix.toolchain }}-${{ runner.os }}-${{ hashFiles('Cargo.lock') }}"
        ),
        "the build-test matrix cache must be keyed per toolchain"
    );
    assert!(
        ci.matches("~/.cargo/registry").count() >= 4,
        "caches must include the cargo registry alongside target/"
    );
    // The key scheme only works if the lockfile is in the checkout: a
    // gitignored Cargo.lock makes hashFiles('Cargo.lock') the empty
    // string, every key a constant, and the first run's cache immortal.
    assert!(
        workspace_root().join("Cargo.lock").is_file(),
        "Cargo.lock must exist at the workspace root"
    );
    let gitignore = read(".gitignore");
    assert!(
        !gitignore.lines().any(|l| l.trim() == "Cargo.lock"),
        "Cargo.lock must be committed (workspaces with binaries commit it); \
         ignoring it empties every hashFiles('Cargo.lock') cache key in CI"
    );
}

#[test]
fn readme_states_the_documented_msrv() {
    let readme = read("README.md");
    assert!(
        readme.contains(MSRV),
        "README must state the MSRV ({MSRV}) it advertises"
    );
}
