//! Scenario-file loader suite.
//!
//! Three layers of coverage for `pax_workloads::scenario`:
//!
//! 1. **Cookbook goldens** — every `examples/scenarios/*.json` shipped
//!    with the repo (the files `docs/SCENARIO_FORMAT.md` documents) must
//!    load, validate, build, and run green.
//! 2. **Diagnostics** — malformed documents must fail with the typed
//!    [`ScenarioError`] carrying the offending line and dotted field
//!    path, not a panic or a bare string.
//! 3. **Round-trip property** — for randomized valid scenarios,
//!    `Scenario::parse(s.to_json()) == s`, and the parsed document
//!    builds a runnable simulation.
//! 4. **Hostile input** — a scenario file comes from outside the
//!    program: documents that used to panic, overflow the stack, exhaust
//!    memory or wrap tick arithmetic are named regressions, and a
//!    byte-level property leg checks that no input makes the loader (or
//!    the builders behind it) panic.

use pax_core::prelude::{
    AdmissionPolicy, ArrivalProcess, ClassAffinity, DurationDist, FaultModel, FaultPlan,
    ProcessorClass, ResourcePool, RetryPolicy, RunReport, ScriptedFault, SimDuration, SimTime,
    TaskSizing,
};
use pax_workloads::scenario::{
    MachineDoc, MappingDoc, PhaseDoc, PolicyDoc, ProgramDoc, Scenario, ScenarioErrorKind, StreamDoc,
};
use std::path::PathBuf;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("examples")
        .join("scenarios")
}

/// The checked-in cookbook scenarios, in name order.
fn cookbook_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("examples/scenarios exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 4,
        "expected the four documented cookbook scenarios, found {files:?}"
    );
    files
}

/// Every checked-in cookbook scenario loads and runs, and written back
/// out re-parses to the same document, which runs to the same report.
#[test]
fn every_cookbook_scenario_loads_and_runs() {
    for file in cookbook_files() {
        let run = |scenario: &Scenario| {
            scenario
                .build()
                .unwrap_or_else(|e| panic!("{}: {e}", file.display()))
                .run()
                .unwrap_or_else(|e| panic!("{}: {e:?}", file.display()))
        };
        let scenario =
            Scenario::load_path(&file).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        let report = run(&scenario);
        assert!(
            report.makespan.ticks() > 0,
            "{}: degenerate run",
            file.display()
        );
        let text = scenario.to_json();
        let again = Scenario::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(again, scenario, "{}", file.display());
        let rerun = run(&again);
        let signature = |r: &RunReport| {
            let counts = (r.makespan, r.events, r.tasks_dispatched, r.crashes);
            (counts, r.class_reports.clone(), r.pool_reports.clone())
        };
        assert_eq!(signature(&rerun), signature(&report), "{}", file.display());
    }
}

/// The two-speed cookbook scenario actually produces per-class
/// accounting, and the fast class out-runs the base class per worker.
#[test]
fn fast_slow_cookbook_reports_class_utilization() {
    let s = Scenario::load_path(scenarios_dir().join("fast_slow_classes.json")).unwrap();
    let r = s.build().unwrap().run().unwrap();
    assert_eq!(r.class_reports.len(), 2);
    let fast = &r.class_reports[0];
    let base = &r.class_reports[1];
    assert_eq!(fast.name, "fast");
    assert_eq!(fast.tasks + base.tasks, r.tasks_dispatched);
    let fast_per_worker = fast.tasks as f64 / fast.processors as f64;
    let base_per_worker = base.tasks as f64 / base.processors as f64;
    assert!(
        fast_per_worker > base_per_worker,
        "fast {fast_per_worker:.2} vs base {base_per_worker:.2} tasks/worker"
    );
}

/// The operator cookbook scenario contends on its single-token pool.
#[test]
fn operator_cookbook_shows_pool_contention() {
    let s = Scenario::load_path(scenarios_dir().join("operator_pipeline.json")).unwrap();
    let r = s.build().unwrap().run().unwrap();
    let operator = r.pool_report("operator").expect("operator pool reported");
    assert_eq!(operator.tokens, 1);
    assert!(operator.waits > 0, "mounts should contend for the operator");
    assert!(operator.wait_ticks.ticks() > 0);
}

/// The service-stream cookbook admits its whole stream despite the
/// bounded-defer gate (deferral, not loss).
#[test]
fn service_stream_cookbook_completes_all_jobs() {
    let s = Scenario::load_path(scenarios_dir().join("hetero_service_stream.json")).unwrap();
    let r = s.build().unwrap().run().unwrap();
    assert_eq!(r.jobs.len(), 24);
    assert_eq!(r.jobs_rejected, 0);
    assert!(r.jobs.iter().all(|j| j.finished_at.is_some()));
}

/// A cookbook file written before the calendar backends were removed —
/// `hetero_service_stream.json` asked for `"wheel"`, the deleted
/// `hier_calendar_stream.json` for tuned rings — is rejected at the
/// line that names the backend, never run on the heap behind the
/// author's back.
#[test]
fn removed_calendar_backends_fail_loudly() {
    let current = std::fs::read_to_string(scenarios_dir().join("hetero_service_stream.json"))
        .expect("cookbook file");
    for old in [
        r#""calendar": "wheel","#,
        r#""calendar": { "kind": "hier", "slots": 64, "bucket_ticks": 1, "levels": 3 },"#,
    ] {
        let text = current.replacen(
            "\"ideal\": true,",
            &format!("\"ideal\": true,\n    {old}"),
            1,
        );
        assert_ne!(text, current, "the splice point moved");
        let e = Scenario::parse(&text).unwrap_err();
        assert_eq!(e.path, "machine.calendar", "{old}");
        assert_eq!(e.line, 7, "{old}");
        assert!(
            matches!(e.kind, ScenarioErrorKind::Invalid(ref m) if m.contains("removed")),
            "{old}: {e}"
        );
    }
}

/// Missing files are I/O errors, not panics.
#[test]
fn missing_file_is_an_io_error() {
    let e = Scenario::load_path(scenarios_dir().join("no_such_scenario.json")).unwrap_err();
    assert!(matches!(e.kind, ScenarioErrorKind::Io(_)));
    assert_eq!(e.line, 0);
}

/// Diagnostics carry line and dotted path for deep fields.
#[test]
fn deep_field_errors_locate_line_and_path() {
    let text = "{\n\
                \"machine\": {\n\
                  \"processors\": 4,\n\
                  \"resources\": [\n\
                    { \"name\": \"op\", \"tokens\": true }\n\
                  ]\n\
                },\n\
                \"workload\": [ { \"name\": \"w\", \"phases\": [\n\
                  { \"name\": \"p\", \"granules\": 4, \"cost\": { \"dist\": \"constant\", \"ticks\": 1 } }\n\
                ] } ]\n}";
    let e = Scenario::parse(text).unwrap_err();
    assert_eq!(e.line, 5);
    assert_eq!(e.path, "machine.resources[0].tokens");
    assert_eq!(
        e.kind,
        ScenarioErrorKind::WrongType {
            expected: "number",
            found: "boolean"
        }
    );
}

/// A bad enum tag names the allowed values in its message.
#[test]
fn bad_enum_tag_lists_alternatives() {
    let text = r#"{
        "machine": { "processors": 2 },
        "workload": [ { "name": "w", "phases": [
            { "name": "p", "granules": 4,
              "cost": { "dist": "gaussian", "ticks": 1 } }
        ] } ]
    }"#;
    let e = Scenario::parse(text).unwrap_err();
    assert_eq!(e.path, "workload[0].phases[0].cost.dist");
    match e.kind {
        ScenarioErrorKind::Invalid(msg) => {
            assert!(
                msg.contains("gaussian") && msg.contains("exponential"),
                "{msg}"
            );
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
}

/// A two-processor, one-program document with `machine`, `program` and
/// `tail` fields spliced in: the hostile-input regressions each bend one.
fn doc_with(machine: &str, program: &str, tail: &str) -> String {
    format!(
        r#"{{
  "machine": {{ "processors": 2{machine} }},
  "workload": [ {{
    "name": "w"{program},
    "phases": [ {{ "name": "p", "granules": 4,
                   "cost": {{ "dist": "constant", "ticks": 5 }} }} ]
  }} ]{tail}
}}"#
    )
}

fn assert_invalid_at(text: &str, line: usize, path: &str) {
    let e = Scenario::parse(text).unwrap_err();
    assert!(matches!(e.kind, ScenarioErrorKind::Invalid(_)), "{e}");
    assert_eq!((e.line, e.path.as_str()), (line, path), "{e}\n{text}");
}

/// A zero cost is `constant` 0 and giving up at the first loss is a
/// reissue budget of 0: the old `"zero"` and `"abandon"` tags are unknown
/// tags, and the error lists what is valid instead.
#[test]
fn one_spelling_per_behaviour() {
    let zero = doc_with("", "", "").replace(r#""constant", "ticks": 5"#, r#""zero""#);
    let abandon = doc_with(
        r#", "faults": { "model": "scripted", "events": [], "retry": "abandon" }"#,
        "",
        "",
    );
    for (text, tag, valid) in [
        (zero, "'zero'", "'constant'"),
        (abandon, "'abandon'", "bounded"),
    ] {
        let e = Scenario::parse(&text).unwrap_err();
        match e.kind {
            ScenarioErrorKind::Invalid(msg) => {
                assert!(msg.contains(tag) && msg.contains(valid), "{msg}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }
}

/// `lo > hi` used to parse, build, and panic in `gen_range` at the first
/// sample. `parse_dist` serves phase costs and fault spans alike.
#[test]
fn uniform_with_lo_above_hi_is_rejected_at_load() {
    let bad = r#"{ "dist": "uniform", "lo": 10, "hi": 5 }"#;
    let cost = doc_with("", "", "").replace(r#"{ "dist": "constant", "ticks": 5 }"#, bad);
    assert_invalid_at(&cost, 6, "workload[0].phases[0].cost.hi");
    let span = format!(
        r#",
    "faults": {{ "model": "random",
      "time_to_failure": {{ "dist": "constant", "ticks": 50 }},
      "time_to_repair": {bad} }}"#
    );
    assert_invalid_at(
        &doc_with(&span, "", ""),
        5,
        "machine.faults.time_to_repair.hi",
    );
}

/// A key given twice used to load silently as its first value
/// (`"processors": 2, "processors": 4` as 2 processors). The second
/// occurrence is rejected, at its own line and path, in every object.
#[test]
fn duplicate_keys_are_rejected_at_the_second_occurrence() {
    let processors = doc_with(",\n \"processors\": 4", "", "");
    assert_invalid_at(&processors, 3, "machine.processors");
    let ideal = doc_with(", \"ideal\": true,\n \"ideal\": false", "", "");
    assert_invalid_at(&ideal, 3, "machine.ideal");
    let granules =
        doc_with("", "", "").replace(r#""granules": 4"#, r#""granules": 4, "granules": 8"#);
    assert_invalid_at(&granules, 5, "workload[0].phases[0].granules");
    let seed = doc_with("", "", ",\n  \"seed\": 1,\n  \"seed\": 2");
    assert_invalid_at(&seed, 9, "$.seed");
    let e = Scenario::parse(&processors).unwrap_err();
    assert!(e.to_string().contains("duplicate key 'processors'"), "{e}");
}

/// `policy.sizing.per_processor` used to take any number: `1e400` loaded
/// as infinity and wrote back as `inf`, which does not re-parse, and `0`
/// or `-3` silently meant one task a phase.
#[test]
fn per_processor_sizing_must_be_positive_and_finite() {
    for ratio in ["1e400", "0", "-3"] {
        let sizing =
            format!(",\n  \"policy\": {{ \"sizing\":\n    {{ \"per_processor\": {ratio} }} }}");
        assert_invalid_at(&doc_with("", "", &sizing), 9, "policy.sizing.per_processor");
    }
    let sizing = ",\n  \"policy\": { \"sizing\": { \"per_processor\": 0.5 } }";
    Scenario::parse(&doc_with("", "", sizing)).unwrap();
}

/// `"granules": 0` used to panic inside `Scenario::parse`, in
/// `PhaseDef::new`.
#[test]
fn zero_granule_phase_is_rejected_at_load() {
    let text = doc_with("", "", "").replace(r#""granules": 4"#, r#""granules": 0"#);
    assert_invalid_at(&text, 5, "workload[0].phases[0].granules");
}

/// 200 000 nested `[` used to overflow the stack of the recursive
/// reader and abort the process.
#[test]
fn deep_nesting_is_a_syntax_error_not_a_stack_overflow() {
    for open in ["[", "{\"k\":"] {
        let e = Scenario::parse(&open.repeat(200_000)).unwrap_err();
        assert!(matches!(e.kind, ScenarioErrorKind::Syntax(_)), "{e}");
        assert_eq!((e.line, e.path.as_str()), (1, "$"));
    }
    // The deepest value the format defines is well inside the cap.
    Scenario::parse(&doc_with("", "", "")).unwrap();
}

/// `"processors": 4000000000` used to allocate until the OOM killer took
/// the process; so did the lane and job counts. Each is now refused
/// before anything is sized from it. (`machine.shards` is clamped to the
/// group count and never allocated for.)
#[test]
fn sizes_above_the_ceilings_are_rejected_before_allocation() {
    let stream = |count: u64| {
        format!(
            r#",
  "stream": {{ "program": "w",
    "count": {count},
    "arrivals": {{ "process": "poisson", "mean_gap": 10 }} }}"#
        )
    };
    let huge_processors =
        doc_with("", "", "").replace(r#""processors": 2"#, r#""processors": 4000000000"#);
    assert_invalid_at(&huge_processors, 2, "machine.processors");
    let huge_lanes = doc_with(",\n \"lanes\": 4000000000", "", "");
    assert_invalid_at(&huge_lanes, 3, "machine.lanes");
    let huge_count = doc_with("", ",\n \"count\": 4000000000", "");
    assert_invalid_at(&huge_count, 5, "workload[0].count");
    let huge_stream = doc_with("", "", &stream(4_000_000_000));
    assert_invalid_at(&huge_stream, 9, "stream.count");
    // The ceiling is on the jobs of the whole document.
    let together = doc_with("", ",\n \"count\": 600000", &stream(600_000));
    assert_invalid_at(&together, 10, "stream.count");
    let shards = doc_with(",\n \"shards\": 4000000000", "", "");
    Scenario::parse(&shards)
        .unwrap()
        .build()
        .unwrap()
        .into_session()
        .unwrap();
}

/// 3 000 jobs of one 2^53-tick granule on one processor used to panic
/// `attempt to add with overflow` in a debug build and wrap silently in
/// a release one. The loader bounds the run's tick sums with checked
/// arithmetic and refuses a document that can exceed `u64`, naming the
/// largest term; one that fits still loads.
#[test]
fn tick_sums_that_can_leave_u64_are_rejected_at_load() {
    let huge = |count: u32| {
        doc_with("", &format!(",\n \"count\": {count}"), "")
            .replace(r#""processors": 2"#, r#""processors": 1"#)
            .replace(r#""granules": 4"#, r#""granules": 1"#)
            .replace(r#""ticks": 5"#, r#""ticks": 9007199254740992"#)
    };
    assert_invalid_at(&huge(3_000), 3, "workload[0]");
    Scenario::parse(&huge(300)).unwrap();
    // Arrival instants are sums too: a million 2^53-tick gaps.
    let gaps = r#",
  "stream": { "program": "w", "count": 1000000,
    "arrivals": { "process": "poisson", "mean_gap": 9007199254740992 } }"#;
    assert_invalid_at(&doc_with("", "", gaps), 9, "stream.arrivals");
}

/// `"requires": ["bus", "bus"]` used to load and build, then fail the
/// run with `phase 'p' requires pool 'bus' twice` and no position.
#[test]
fn a_pool_required_twice_is_rejected_at_the_repeat() {
    let bus = ",\n \"resources\": [ { \"name\": \"bus\", \"tokens\": 1 } ]";
    let requires = |list: &str| {
        doc_with(bus, "", "").replace(
            r#""granules": 4"#,
            &format!("\"granules\": 4,\n \"requires\": [{list}]"),
        )
    };
    assert_invalid_at(
        &requires("\"bus\",\n \"bus\""),
        8,
        "workload[0].phases[0].requires[1]",
    );
    let e = Scenario::parse(&requires("\"bus\", \"bus\"")).unwrap_err();
    assert!(
        e.to_string().contains("requires resource pool 'bus' twice"),
        "{e}"
    );
    Scenario::parse(&requires("\"bus\""))
        .unwrap()
        .build()
        .unwrap()
        .run()
        .unwrap();
}

/// The last phase's `mapping` leads nowhere and is ignored: a document
/// that names one loads, builds and runs to the report of one that says
/// `"null"`.
#[test]
fn the_last_phase_mapping_is_ignored() {
    let run = |last: &str| {
        let text = format!(
            r#"{{
  "machine": {{ "processors": 3, "ideal": true }},
  "workload": [ {{
    "name": "w",
    "phases": [
      {{ "name": "a", "granules": 8, "mapping": "identity",
         "cost": {{ "dist": "uniform", "lo": 5, "hi": 20 }} }},
      {{ "name": "b", "granules": 8, "mapping": "{last}",
         "cost": {{ "dist": "uniform", "lo": 5, "hi": 20 }} }}
    ]
  }} ],
  "policy": {{ "overlap": true, "sizing": {{ "fixed": 1 }} }}
}}"#
        );
        let scenario = Scenario::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        scenario.build().unwrap().run().unwrap()
    };
    let null = run("null");
    assert!(null.phases[1].stats.overlap_granules > 0, "{null}");
    assert_eq!(run("identity"), null);
    assert_eq!(run("universal"), null);
}

/// A document whose every `count` is 0 and whose stream is absent or
/// admits no job used to load and build, then fail the run with
/// `invalid program: no jobs`.
#[test]
fn a_document_with_no_jobs_is_rejected_at_load() {
    let idle = ",\n \"count\": 0";
    assert_invalid_at(&doc_with("", idle, ""), 3, "workload");
    let stream = |count: u32, arrivals: &str| {
        format!(
            ",\n  \"stream\": {{ \"program\": \"w\",\n    \"count\": {count},\n    \
             \"arrivals\": {arrivals} }}"
        )
    };
    let poisson = r#"{ "process": "poisson", "mean_gap": 10 }"#;
    let empty_trace = r#"{ "process": "trace", "instants": [] }"#;
    assert_invalid_at(&doc_with("", idle, &stream(0, poisson)), 10, "stream.count");
    assert_invalid_at(
        &doc_with("", idle, &stream(3, empty_trace)),
        10,
        "stream.count",
    );
    let report = Scenario::parse(&doc_with("", idle, &stream(2, poisson)))
        .unwrap()
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(report.jobs.len(), 2);
}

/// The rules that relate two values of a document are checked once the
/// whole document is read, each at the line of the value it names.
#[test]
fn cross_reference_errors_locate_line_and_path() {
    let second_program = doc_with("", "", "").replace(
        "  } ]",
        "  },\n  { \"phases\": [ { \"name\": \"q\", \"granules\": 1,\n    \
         \"cost\": { \"dist\": \"constant\", \"ticks\": 0 } } ],\n    \"name\": \"w\" } ]",
    );
    let unknown_program = doc_with(
        "",
        "",
        ",\n  \"stream\": { \"count\": 1,\n    \"program\": \"nope\",\n    \
         \"arrivals\": { \"process\": \"poisson\", \"mean_gap\": 10 } }",
    );
    let no_programs = "{\n  \"machine\": { \"processors\": 2 },\n  \"workload\":\n    []\n}";
    let no_phases = "{\n  \"machine\": { \"processors\": 2 },\n  \"workload\": [ {\n    \
                     \"name\": \"w\",\n    \"phases\":\n      [] } ]\n}";
    let cases = [
        (second_program.as_str(), 10, "workload[1].name"),
        (unknown_program.as_str(), 9, "stream.program"),
        (no_programs, 4, "workload"),
        (no_phases, 6, "workload[0].phases"),
    ];
    for (text, line, path) in cases {
        assert_invalid_at(text, line, path);
    }
}

/// A character outside the Basic Multilingual Plane written as a JSON
/// surrogate pair (as Python's `json.dumps` writes one by default) reads
/// as the character, and a lone half of a pair is a syntax error.
#[test]
fn surrogate_pair_escapes_read_as_one_character() {
    let text = doc_with("", "", "").replace("\"w\"", r#""\ud83d\ude00 \uD83D\uDE00""#);
    let scenario = Scenario::parse(&text).unwrap();
    assert_eq!(scenario.workload[0].name, "😀 😀");
    assert_eq!(Scenario::parse(&scenario.to_json()).unwrap(), scenario);
    for lone in [r"\ud83d", r"\ud83d x", r"\ud83d\u0041", r"\ude00"] {
        let text = doc_with("", "", "").replace("\"w\"", &format!("\"{lone}\""));
        let e = Scenario::parse(&text).unwrap_err();
        assert!(
            matches!(e.kind, ScenarioErrorKind::Syntax(_)),
            "{lone}: {e}"
        );
        assert_eq!(e.line, 4, "{lone}");
    }
}

mod hostile_bytes {
    use super::*;
    use proptest::prelude::*;

    /// Whatever the bytes hold, the loader returns; and what it accepts,
    /// the simulation builder and the session builder take without
    /// panicking (either may refuse it with an error).
    fn load(bytes: &[u8]) {
        if let Ok(scenario) = Scenario::parse(&String::from_utf8_lossy(bytes)) {
            if let Ok(sim) = scenario.build() {
                let _ = sim.into_session();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_never_panic_the_loader(
            bytes in proptest::collection::vec(0u8..=255, 0..512),
        ) {
            load(&bytes);
        }

        /// A cookbook file under a random truncation, byte flip or
        /// duplicated span: mostly still JSON, often still a scenario,
        /// with a field missing, a number or a name changed, or a value
        /// given twice.
        #[test]
        fn damaged_cookbook_files_never_panic_the_loader(
            file in 0usize..1_000,
            damage in 0u8..3,
            at in 0usize..1_000_000,
            len in 1usize..64,
            byte in 0u8..=255,
        ) {
            let files = cookbook_files();
            let mut bytes = std::fs::read(&files[file % files.len()]).expect("cookbook file");
            let at = at % bytes.len();
            match damage {
                0 => bytes.truncate(at),
                1 => bytes[at] = byte,
                _ => {
                    let span = bytes[at..(at + len).min(bytes.len())].to_vec();
                    bytes.splice(at..at, span);
                }
            }
            load(&bytes);
        }
    }
}

mod round_trip {
    use super::*;
    use proptest::prelude::*;

    /// Each of the four shapes, by `kind`.
    fn dist_from(kind: u8, a: u64, b: u64) -> DurationDist {
        match kind % 4 {
            0 => DurationDist::constant(a),
            1 => DurationDist::uniform(a.min(b), a.max(b)),
            2 => DurationDist::exponential(a.max(1)),
            _ => DurationDist::Bimodal {
                short: SimDuration(a.min(b)),
                long: SimDuration(a.max(b)),
                p_long: f64::from(kind) / 255.0,
            },
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn scenario_from(
        seed: u64,
        processors: usize,
        split: usize,
        speed: u32,
        affinity: u8,
        pools: usize,
        tokens: u32,
        phases: usize,
        granules: u32,
        cost_kind: u8,
        mapping_kind: u8,
        admission: u8,
        fault_kind: u8,
        retry_kind: u8,
        stream_kind: u8,
        overlap: bool,
        sizing_kind: u8,
        quoted_name: bool,
    ) -> Scenario {
        let classes = match split {
            0 => Vec::new(),
            s if s >= processors => vec![ProcessorClass {
                name: "only \"class\"".into(),
                count: processors,
                speed_percent: speed,
                affinity: ClassAffinity::Any,
            }],
            s => vec![
                ProcessorClass {
                    name: "head".into(),
                    count: s,
                    speed_percent: speed,
                    affinity: ClassAffinity::Any,
                },
                ProcessorClass {
                    name: "tail".into(),
                    count: processors - s,
                    speed_percent: 100,
                    affinity: match affinity % 3 {
                        0 => ClassAffinity::Any,
                        1 => ClassAffinity::ElevatedOnly,
                        _ => ClassAffinity::NormalOnly,
                    },
                },
            ],
        };
        let resources: Vec<ResourcePool> = (0..pools)
            .map(|i| ResourcePool {
                name: format!("pool{i}"),
                tokens,
            })
            .collect();
        let phase_docs: Vec<PhaseDoc> = (0..phases)
            .map(|j| PhaseDoc {
                name: format!("ph{j}"),
                granules,
                cost: dist_from(cost_kind.wrapping_add(j as u8), 5 + j as u64, 20),
                lines: j as u32 * 7,
                requires: resources
                    .iter()
                    .take(if j % 2 == 0 { pools } else { 0 })
                    .map(|p| p.name.clone())
                    .collect(),
                mapping: match mapping_kind % 3 {
                    0 => MappingDoc::Null,
                    1 => MappingDoc::Identity,
                    _ => MappingDoc::Universal,
                },
            })
            .collect();
        Scenario {
            name: if quoted_name {
                "line1\nline2 \"quoted\" \\slash\t".into()
            } else {
                "plain".into()
            },
            seed,
            machine: MachineDoc {
                processors,
                ideal: seed.is_multiple_of(2),
                lanes: if seed.is_multiple_of(3) {
                    Some(2)
                } else {
                    None
                },
                shards: if seed.is_multiple_of(5) {
                    Some(2)
                } else {
                    None
                },
                classes,
                resources,
                admission: match admission % 3 {
                    0 => AdmissionPolicy::AcceptAll,
                    1 => AdmissionPolicy::BoundedDefer { max_in_flight: 3 },
                    _ => AdmissionPolicy::Shed { max_in_flight: 3 },
                },
                faults: match fault_kind % 3 {
                    0 => None,
                    1 => Some(FaultPlan {
                        model: FaultModel::Random {
                            time_to_failure: dist_from(cost_kind, 5_000, 9_000),
                            time_to_repair: dist_from(cost_kind.wrapping_add(seed as u8), 40, 100),
                        },
                        retry: match retry_kind % 3 {
                            0 => RetryPolicy::ReissueFront,
                            1 => RetryPolicy::Bounded { max_attempts: 0 },
                            _ => RetryPolicy::Bounded { max_attempts: 4 },
                        },
                    }),
                    _ => Some(FaultPlan {
                        model: FaultModel::Scripted(vec![ScriptedFault {
                            processor: 0,
                            crash_at: 123,
                            repair_after: if retry_kind.is_multiple_of(2) {
                                Some(50)
                            } else {
                                None
                            },
                        }]),
                        retry: RetryPolicy::ReissueFront,
                    }),
                },
            },
            workload: vec![ProgramDoc {
                name: "prog".into(),
                // A document without a stream runs its `t = 0` jobs.
                count: (seed % 3) as usize + usize::from(stream_kind.is_multiple_of(3)),
                phases: phase_docs,
            }],
            stream: match stream_kind % 3 {
                0 => None,
                1 => Some(StreamDoc {
                    program: "prog".into(),
                    count: 4,
                    arrivals: ArrivalProcess::poisson(250),
                }),
                _ => Some(StreamDoc {
                    program: "prog".into(),
                    count: 3,
                    arrivals: ArrivalProcess::trace(vec![SimTime(0), SimTime(10), SimTime(250)]),
                }),
            },
            policy: PolicyDoc {
                overlap,
                sizing: match sizing_kind % 3 {
                    0 => None,
                    1 => Some(TaskSizing::Fixed(2)),
                    _ => Some(TaskSizing::TasksPerProcessor(2.5)),
                },
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Emit → parse is the identity on valid scenarios, and the
        /// parsed document assembles a session.
        #[test]
        fn emit_parse_round_trip(
            seed in 0u64..1_000,
            processors in 1usize..9,
            split in 0usize..9,
            speed in 25u32..400,
            affinity in 0u8..3,
            pools in 0usize..3,
            tokens in 1u32..4,
            phases in 1usize..4,
            granules in 1u32..40,
            cost_kind in 0u8..=255,
            mapping_kind in 0u8..3,
            admission in 0u8..3,
            fault_kind in 0u8..3,
            retry_kind in 0u8..3,
            stream_kind in 0u8..3,
            overlap in proptest::bool::ANY,
            sizing_kind in 0u8..3,
            quoted_name in proptest::bool::ANY,
        ) {
            let doc = scenario_from(
                seed, processors, split, speed, affinity, pools, tokens,
                phases, granules, cost_kind, mapping_kind, admission,
                fault_kind, retry_kind, stream_kind, overlap, sizing_kind,
                quoted_name,
            );
            let text = doc.to_json();
            let back = Scenario::parse(&text)
                .map_err(|e| TestCaseError::fail(format!("re-parse failed: {e}\n{text}")))?;
            prop_assert_eq!(&back, &doc);
            // The round-tripped document also builds a session.
            back.build()
                .map_err(|e| TestCaseError::fail(format!("build failed: {e}")))?
                .into_session()
                .map_err(|e| TestCaseError::fail(format!("session failed: {e}")))?;
        }
    }
}
