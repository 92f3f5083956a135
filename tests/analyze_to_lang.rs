//! Closing the toolchain loop: the user *declares* the mapping in the PAX
//! language (`ENABLE [interp/MAPPING=REVERSE]`) and the *analyzer derives
//! the concrete map* from the array program's access patterns — no
//! hand-written requirement lists anywhere. This is the paper's workflow
//! made executable: "this mapping function is much more easily identified
//! when each concrete situation is faced."

use pax_analyze::classify_program;
use pax_core::mapping::MappingKind;
use pax_core::prelude::*;
use pax_lang::{compile, parse, MapBindings};
use pax_sim::machine::MachineConfig;
use pax_workloads::MiniCasper;

#[test]
fn classifier_derived_bindings_compile_and_run_the_script() {
    let spec = MiniCasper::new(80, 4, 2, 0, 0xB1);

    // 1. analyze: recover every transition's concrete mapping from the
    //    array model's access patterns
    let model = spec.array_model();
    let classes = classify_program(&model);

    // 2. harvest the indirect maps the language cannot express inline —
    //    key them by the (from, to) phase-name pairs the script uses
    let mut bindings = MapBindings::new();
    let phase_names: Vec<&str> = model
        .parallel_phases()
        .map(|(_, p)| p.name.as_str())
        .collect();
    let mut bound = 0;
    for (i, (_, _, cl)) in classes.iter().enumerate() {
        if cl.mapping.composite().is_some() {
            // strip the "-t" timestep suffix to get the DEFINE names
            let from = phase_names[i].split('-').next().unwrap();
            let to = phase_names[i + 1].split('-').next().unwrap();
            bindings = bindings.bind(from, to, cl.mapping.clone());
            bound += 1;
        }
    }
    assert!(bound >= 2, "both timesteps' reverse maps must be derived");

    // 3. the script declares only mapping *kinds*; the derived bindings
    //    supply the data
    let src = "
        DEFINE PHASE power GRANULES 80 COST CONST 25 ENABLE [interp/MAPPING=REVERSE]
        DEFINE PHASE interp GRANULES 80 COST CONST 25 ENABLE [apply/MAPPING=IDENTITY]
        DEFINE PHASE apply GRANULES 80 COST CONST 25 ENABLE [structural/MAPPING=UNIVERSAL]
        DEFINE PHASE structural GRANULES 80 COST CONST 25 ENABLE [power/MAPPING=UNIVERSAL]
        loop:
        DISPATCH power ENABLE/BRANCHDEPENDENT
        DISPATCH interp ENABLE/BRANCHDEPENDENT
        DISPATCH apply ENABLE/BRANCHDEPENDENT
        DISPATCH structural ENABLE/BRANCHDEPENDENT
        INCREMENT LOOPCOUNTER BY 1
        IF (LOOPCOUNTER.LT.2) THEN GO TO loop
    ";
    let compiled = compile(&parse(src).unwrap(), &bindings).unwrap();
    assert!(compiled.warnings.is_empty(), "{:?}", compiled.warnings);

    // 4. run: the derived reverse map must gate exactly as the declared
    //    one does — overlap happens, every granule executes
    let mut sim = Simulation::new(MachineConfig::ideal(5), OverlapPolicy::overlap());
    sim.add_job(compiled.program);
    let r = sim.run().unwrap();
    assert_eq!(r.phases.len(), 8);
    for ph in &r.phases {
        assert_eq!(ph.stats.executed_granules, 80);
    }
    assert_eq!(r.phases[1].enabled_by, Some(MappingKind::ReverseIndirect));
    assert!(r.total_overlap_granules() > 0);
}

#[test]
fn missing_binding_is_a_compile_error_not_a_runtime_surprise() {
    // the same script with no derived bindings must fail at compile time
    let src = "
        DEFINE PHASE a GRANULES 8 ENABLE [b/MAPPING=REVERSE]
        DEFINE PHASE b GRANULES 8
        DISPATCH a ENABLE/BRANCHDEPENDENT
        DISPATCH b
    ";
    let err = compile(&parse(src).unwrap(), &MapBindings::new()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("binding") || msg.contains("REVERSE") || msg.contains("map"),
        "diagnostic should point at the missing map: {msg}"
    );
}
