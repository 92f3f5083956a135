//! Phase programs: the control stream the executive interprets.
//!
//! A program is a list of steps — phase dispatches, serial regions,
//! counter arithmetic, and conditional branches — mirroring the control
//! structures of the paper's "Language Construction" section. The
//! `ENABLE` clause of a dispatch names the successor phase(s) and the
//! enablement mapping to apply, which is exactly the interlock the paper
//! asks the language to give the executive for verification.

use crate::ids::PhaseId;
use crate::mapping::EnablementMapping;
use crate::phase::PhaseDef;
use crate::policy::OverlapPolicy;
use pax_sim::time::SimDuration;

/// Counter steps one [`Program::walk`] budget allows: a job's
/// interpreter between two effects, a lookahead, and the whole of
/// [`Program::declared_tasks`]. A constant, not an option: a walk that
/// long is a fraction of a millisecond.
pub const WALK_STEPS: usize = 65_536;

/// One `phase-name/MAPPING=option` element of an `ENABLE` clause.
#[derive(Debug, Clone)]
pub struct EnableSpec {
    /// Named successor phase (checked against the phase that actually
    /// follows — the paper's verifiable interlock).
    pub successor: PhaseId,
    /// Mapping to apply when overlapping into that successor.
    pub mapping: EnablementMapping,
}

/// Branch predicates available to programs. All are functions of
/// program-level counters only, which is what makes a branch
/// *independent of the computational phase* and therefore preprocessable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchTest {
    /// `counter < value`.
    CounterLt(usize, i64),
    /// `counter % modulus == residue` (modulus > 0).
    CounterModEq {
        /// Counter index.
        counter: usize,
        /// Modulus (must be positive).
        modulus: i64,
        /// Residue compared against.
        residue: i64,
    },
    /// `counter % modulus != residue` — the paper's
    /// `IF (IMOD(LOOPCOUNTER,10).NE.0)`.
    CounterModNe {
        /// Counter index.
        counter: usize,
        /// Modulus (must be positive).
        modulus: i64,
        /// Residue compared against.
        residue: i64,
    },
    /// Always true.
    Always,
    /// Always false.
    Never,
}

impl BranchTest {
    /// Evaluate against a counter file.
    pub fn eval(&self, counters: &[i64]) -> bool {
        match *self {
            BranchTest::CounterLt(c, v) => counters[c] < v,
            BranchTest::CounterModEq {
                counter,
                modulus,
                residue,
            } => counters[counter].rem_euclid(modulus) == residue,
            BranchTest::CounterModNe {
                counter,
                modulus,
                residue,
            } => counters[counter].rem_euclid(modulus) != residue,
            BranchTest::Always => true,
            BranchTest::Never => false,
        }
    }
}

/// One step of a program.
#[derive(Debug, Clone)]
pub enum Step {
    /// Dispatch a phase; `enables` carries the `ENABLE` clause.
    Dispatch {
        /// Phase definition to dispatch.
        phase: PhaseId,
        /// Successor enablement declarations.
        enables: Vec<EnableSpec>,
        /// Whether a branch immediately downstream may be preprocessed
        /// (`ENABLE/BRANCHINDEPENDENT`). When false, lookahead stops at
        /// any branch (`ENABLE/BRANCHDEPENDENT` or unannotated).
        branch_independent: bool,
    },
    /// Serial executive work between phases ("serial actions and
    /// decisions had to occur between the phases" — the cause of every
    /// null mapping observed in PAX/CASPER).
    Serial {
        /// How long the serial actions take on the executive.
        duration: SimDuration,
        /// Label for reports.
        label: String,
    },
    /// Add `delta` to counter `idx`.
    Incr {
        /// Counter index.
        idx: usize,
        /// Amount added.
        delta: i64,
    },
    /// Conditional jump: if `test` then continue at `on_true`, else at
    /// `on_false` (absolute step indices).
    Branch {
        /// Predicate over program counters.
        test: BranchTest,
        /// Target when true.
        on_true: usize,
        /// Target when false.
        on_false: usize,
    },
    /// Unconditional jump.
    Goto(usize),
    /// Program end.
    End,
}

/// A complete program: phase definitions plus the control stream.
#[derive(Debug, Clone)]
pub struct Program {
    /// Phase definitions, indexed by [`PhaseId`].
    pub phases: Vec<PhaseDef>,
    /// Control steps; execution starts at step 0.
    pub steps: Vec<Step>,
    /// Number of program counters (for loops / branch tests).
    pub counters: usize,
}

/// Result of statically looking ahead from a dispatch step to find which
/// phase will follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookahead {
    /// The next dispatched phase and its step index.
    Phase {
        /// Phase definition that follows.
        phase: PhaseId,
        /// Step index of its dispatch.
        step: usize,
    },
    /// A serial region intervenes — overlap impossible (null gap).
    BlockedBySerial,
    /// A data-dependent (non-preprocessable) branch intervenes.
    BlockedByBranch,
    /// The program ends (or runs more than [`WALK_STEPS`] counter steps
    /// without a dispatch, serial region or end).
    ProgramEnd,
}

/// Where [`Program::walk`] stopped: the next step with an effect.
#[derive(Debug, Clone, Copy)]
pub enum Stop<'p> {
    /// A `Dispatch` or `Serial` step, or a `Branch` reached with branches
    /// not taken, and its index.
    At(usize, &'p Step),
    /// `End`, or past the last step.
    End,
    /// The fuel ran out at this step index.
    Endless(usize),
}

impl Program {
    /// A straight chain: each phase dispatched once, in order, where
    /// `edges[i]` maps phase `i` into phase `i + 1`. An edge is the
    /// `ENABLE` clause naming the phase that follows, or no clause at all
    /// when it is [`EnablementMapping::Null`]. A chain of N phases has
    /// N − 1 edges; any other count is an error, and so is an empty chain.
    /// It is checked as [`ProgramBuilder::build`] checks it, with the same
    /// messages.
    pub fn chain(phases: Vec<PhaseDef>, edges: Vec<EnablementMapping>) -> Result<Program, String> {
        let n = phases.len();
        if n == 0 {
            return Err("a chain needs at least one phase".into());
        }
        if edges.len() != n - 1 {
            let m = edges.len();
            return Err(format!(
                "a chain of {n} phases has {} edges, got {m}",
                n - 1
            ));
        }
        let mut b = ProgramBuilder {
            phases,
            ..ProgramBuilder::default()
        };
        for (i, mapping) in edges.into_iter().enumerate() {
            let (phase, successor) = (PhaseId(i as u32), PhaseId(i as u32 + 1));
            match mapping {
                EnablementMapping::Null => b.dispatch(phase),
                mapping => b.dispatch_enable(phase, vec![EnableSpec { successor, mapping }]),
            };
        }
        b.dispatch(PhaseId(n as u32 - 1));
        b.build()
    }

    /// Validate step targets, phase ids and moduli; returns a description
    /// of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.steps.iter().enumerate() {
            match s {
                Step::Dispatch { phase, enables, .. } => {
                    if phase.0 as usize >= self.phases.len() {
                        return Err(format!("step {i}: dispatch of unknown {phase}"));
                    }
                    let current = self.phases[phase.0 as usize].granules;
                    for e in enables {
                        let Some(succ) = self.phases.get(e.successor.0 as usize) else {
                            return Err(format!("step {i}: ENABLE names unknown {}", e.successor));
                        };
                        let fits = e.mapping.check_edge(current, succ.granules);
                        fits.map_err(|m| format!("step {i}: {m}"))?;
                    }
                }
                Step::Branch {
                    test,
                    on_true,
                    on_false,
                } => {
                    if *on_true >= self.steps.len() || *on_false >= self.steps.len() {
                        return Err(format!("step {i}: branch target out of range"));
                    }
                    let (c, modulus) = match *test {
                        BranchTest::CounterLt(c, _) => (Some(c), 1),
                        BranchTest::CounterModEq {
                            counter, modulus, ..
                        }
                        | BranchTest::CounterModNe {
                            counter, modulus, ..
                        } => (Some(counter), modulus),
                        BranchTest::Always | BranchTest::Never => (None, 1),
                    };
                    if let Some(c) = c.filter(|&c| c >= self.counters) {
                        return Err(format!("step {i}: branch uses unknown counter {c}"));
                    }
                    if modulus <= 0 {
                        return Err(format!("step {i}: modulus {modulus} is not positive"));
                    }
                }
                Step::Goto(t) => {
                    if *t >= self.steps.len() {
                        return Err(format!("step {i}: goto target out of range"));
                    }
                }
                Step::Incr { idx, .. } => {
                    if *idx >= self.counters {
                        return Err(format!("step {i}: unknown counter {idx}"));
                    }
                }
                Step::Serial { .. } | Step::End => {}
            }
        }
        Ok(())
    }

    /// The tasks one fault-free run of this program may dispatch when
    /// `policy` carves its phases for `processors` processors, counted
    /// high: the bound that sizes the run's busy trace.
    ///
    /// Branches test counters only, so the dispatch sequence is known
    /// before the run: this [walks](Program::walk) it from step 0 with
    /// every counter zero, as a job starts, to `End`, on one budget of
    /// [`WALK_STEPS`]. A loop counts once per iteration it runs; a
    /// forward branch counts the arm taken. Each dispatch reached counts
    /// ⌈granules / task size⌉, or `granules` when its release can
    /// fragment it: when overlap enables it through counters (forward,
    /// reverse, seam), or by identity from a phase that itself counted
    /// `granules`. Overlap reaches a dispatch as
    /// [`Program::lookahead`] does: under an enabled policy, never past a
    /// `Serial`, nor past a `Branch` after a dispatch that is not
    /// `ENABLE/BRANCHINDEPENDENT`.
    ///
    /// `None` when the walk takes more than [`WALK_STEPS`] counter steps in
    /// all (an endless program) or a dispatch names an unknown phase.
    pub fn declared_tasks(&self, policy: &OverlapPolicy, processors: usize) -> Option<u64> {
        // A phase carved whole makes ⌈granules / task size⌉ tasks, a count
        // of its granules alone. The last one is kept: a program's phases
        // mostly share a size (identity maps require it), so the walk
        // mostly adds, and allocates no table of them.
        let mut carved = (0u32, 0u64);
        let mut counters = vec![0i64; self.counters];
        // The last dispatch: the ENABLE clause overlap can still reach past
        // it with (empty once cut), whether a branch leaves it uncut, and
        // whether it counted `granules`.
        let mut reach: &[EnableSpec] = &[];
        let mut take_branches = true;
        let mut fragmented = false;
        let mut tasks = 0u64;
        let mut fuel = WALK_STEPS;
        let mut pc = 0;
        loop {
            match self.walk(pc, &mut counters, take_branches, &mut fuel) {
                Stop::End => return Some(tasks),
                Stop::Endless(_) => return None,
                Stop::At(
                    at,
                    Step::Dispatch {
                        phase,
                        enables,
                        branch_independent,
                    },
                ) => {
                    let granules = self.phases.get(phase.0 as usize)?.granules;
                    if carved.0 != granules {
                        let per_task = policy.sizing.task_granules(granules, processors);
                        carved = (granules, u64::from(granules.div_ceil(per_task)));
                    }
                    let spec = reach.iter().find(|e| e.successor == *phase);
                    fragmented = policy.enabled
                        && spec.is_some_and(|e| match e.mapping {
                            EnablementMapping::ForwardIndirect(_)
                            | EnablementMapping::ReverseIndirect(_)
                            | EnablementMapping::Seam(_) => true,
                            EnablementMapping::Identity => fragmented,
                            EnablementMapping::Universal | EnablementMapping::Null => false,
                        });
                    let declared = if fragmented {
                        u64::from(granules)
                    } else {
                        carved.1
                    };
                    tasks = tasks.saturating_add(declared);
                    reach = enables;
                    take_branches = *branch_independent;
                    pc = at + 1;
                }
                Stop::At(at, Step::Serial { .. }) => {
                    reach = &[];
                    pc = at + 1;
                }
                // A branch not taken: overlap stops here, as the lookahead
                // does. Cut the chain and carry on down the arm it takes.
                Stop::At(at, _) => {
                    reach = &[];
                    take_branches = true;
                    pc = at;
                }
            }
        }
    }

    /// Look ahead from just past dispatch step `from` to the phase that
    /// follows it, applying counter steps to `counters`: a copy of the
    /// job's counter file that the caller owns, so preprocessing a branch
    /// sees the values it *will* have and the job's own are untouched.
    ///
    /// `take_branches` says whether branches may be preprocessed; it is
    /// the dispatch's `ENABLE/BRANCHINDEPENDENT` annotation. This is the
    /// walk the interpreter takes once the dispatch completes, so a
    /// predicted phase is the phase dispatched.
    pub fn lookahead(&self, from: usize, counters: &mut [i64], take_branches: bool) -> Lookahead {
        let mut fuel = WALK_STEPS;
        match self.walk(from + 1, counters, take_branches, &mut fuel) {
            Stop::At(step, &Step::Dispatch { phase, .. }) => Lookahead::Phase { phase, step },
            Stop::At(_, Step::Serial { .. }) => Lookahead::BlockedBySerial,
            Stop::At(..) => Lookahead::BlockedByBranch,
            Stop::End | Stop::Endless(_) => Lookahead::ProgramEnd,
        }
    }

    /// The paper's verifiable interlock, checked on the job's own path:
    /// each (dispatch step, phase) pair where a dispatch with an `ENABLE`
    /// clause is followed — as [`Program::lookahead`] sees it — by a phase
    /// the clause does not name, once each, in path order. Such a phase
    /// runs without overlap.
    ///
    /// Branches test counters only, so a job has one path: this
    /// [walks](Program::walk) it from step 0 with every counter zero, as
    /// the interpreter will, each stretch between two effects on the
    /// interpreter's budget, and follows it for its first [`WALK_STEPS`]
    /// counter steps, so it ends on every program. `Err` is the step where
    /// a stretch spent its budget: the job would abort there.
    pub fn interlock_gaps(&self) -> Result<Vec<(usize, PhaseId)>, usize> {
        let mut counters = vec![0; self.counters];
        let mut ahead = Vec::new();
        let mut gaps = Vec::new();
        let (mut pc, mut walked) = (0, 0);
        while walked < WALK_STEPS {
            let mut fuel = WALK_STEPS;
            let stop = self.walk(pc, &mut counters, true, &mut fuel);
            walked += WALK_STEPS - fuel;
            match stop {
                Stop::End => break,
                Stop::Endless(at) => return Err(at),
                Stop::At(
                    at,
                    Step::Dispatch {
                        enables,
                        branch_independent,
                        ..
                    },
                ) if !enables.is_empty() => {
                    ahead.clone_from(&counters);
                    if let Lookahead::Phase { phase, .. } =
                        self.lookahead(at, &mut ahead, *branch_independent)
                    {
                        if !enables.iter().any(|e| e.successor == phase)
                            && !gaps.contains(&(at, phase))
                        {
                            gaps.push((at, phase));
                        }
                    }
                    pc = at + 1;
                }
                Stop::At(at, _) => pc = at + 1,
            }
        }
        Ok(gaps)
    }

    /// Step the control stream from `pc` to the next step with an effect:
    /// the only code that executes `Incr` (saturating), `Goto` and
    /// `Branch`. Stops at a `Dispatch` or `Serial`, at `End` (or past the
    /// last step), at a `Branch` when `take_branches` is false, and at
    /// [`Stop::Endless`] when a counter step is due and `fuel` is spent.
    /// Each counter step executed costs one unit of `fuel`; a stop costs
    /// nothing.
    pub fn walk(
        &self,
        mut pc: usize,
        counters: &mut [i64],
        take_branches: bool,
        fuel: &mut usize,
    ) -> Stop<'_> {
        loop {
            match self.steps.get(pc) {
                None | Some(Step::End) => return Stop::End,
                Some(s @ (Step::Dispatch { .. } | Step::Serial { .. })) => return Stop::At(pc, s),
                Some(s @ Step::Branch { .. }) if !take_branches => return Stop::At(pc, s),
                Some(_) if *fuel == 0 => return Stop::Endless(pc),
                Some(Step::Incr { idx, delta }) => {
                    counters[*idx] = counters[*idx].saturating_add(*delta);
                    pc += 1;
                }
                Some(Step::Goto(t)) => pc = *t,
                Some(Step::Branch {
                    test,
                    on_true,
                    on_false,
                }) => {
                    pc = if test.eval(counters) {
                        *on_true
                    } else {
                        *on_false
                    };
                }
            }
            *fuel -= 1;
        }
    }
}

/// Step-by-step builder for programs that loop or branch, have serial or
/// counter steps, dispatch a phase more than once, or carry an `ENABLE`
/// clause that is not one spec naming the next phase. A straight chain
/// is [`Program::chain`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    phases: Vec<PhaseDef>,
    steps: Vec<Step>,
    counters: usize,
}

impl ProgramBuilder {
    /// Empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Register a phase definition, returning its id.
    pub fn phase(&mut self, def: PhaseDef) -> PhaseId {
        let id = PhaseId(self.phases.len() as u32);
        self.phases.push(def);
        id
    }

    /// Allocate a program counter, returning its index.
    pub fn counter(&mut self) -> usize {
        self.counters += 1;
        self.counters - 1
    }

    /// Append a dispatch with no enablement declarations.
    pub fn dispatch(&mut self, phase: PhaseId) -> &mut Self {
        self.steps.push(Step::Dispatch {
            phase,
            enables: Vec::new(),
            branch_independent: false,
        });
        self
    }

    /// Append a dispatch with an `ENABLE` clause.
    pub fn dispatch_enable(&mut self, phase: PhaseId, enables: Vec<EnableSpec>) -> &mut Self {
        self.steps.push(Step::Dispatch {
            phase,
            enables,
            branch_independent: false,
        });
        self
    }

    /// Append a dispatch with an `ENABLE/BRANCHINDEPENDENT` clause.
    pub fn dispatch_enable_branch_independent(
        &mut self,
        phase: PhaseId,
        enables: Vec<EnableSpec>,
    ) -> &mut Self {
        self.steps.push(Step::Dispatch {
            phase,
            enables,
            branch_independent: true,
        });
        self
    }

    /// Append a serial region.
    pub fn serial(&mut self, duration: u64, label: impl Into<String>) -> &mut Self {
        self.steps.push(Step::Serial {
            duration: SimDuration(duration),
            label: label.into(),
        });
        self
    }

    /// Append a counter increment.
    pub fn incr(&mut self, idx: usize, delta: i64) -> &mut Self {
        self.steps.push(Step::Incr { idx, delta });
        self
    }

    /// Append a raw step (branches/gotos need explicit indices).
    pub fn step(&mut self, s: Step) -> &mut Self {
        self.steps.push(s);
        self
    }

    /// Index the *next* step will get (for wiring branch targets).
    pub fn next_index(&self) -> usize {
        self.steps.len()
    }

    /// Finish with an `End` step and validate.
    pub fn build(mut self) -> Result<Program, String> {
        self.steps.push(Step::End);
        let p = Program {
            phases: self.phases,
            steps: self.steps,
            counters: self.counters,
        };
        p.validate()?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{ForwardMap, ReverseMap};
    use crate::policy::TaskSizing;
    use pax_sim::dist::CostModel;

    fn two_phase_program() -> Program {
        let phases = ["a", "b"].map(|name| PhaseDef::new(name, 8, CostModel::constant(10)));
        Program::chain(phases.into(), vec![EnablementMapping::Identity]).unwrap()
    }

    #[test]
    fn builder_produces_valid_program() {
        let p = two_phase_program();
        assert_eq!(p.phases.len(), 2);
        assert!(matches!(p.steps.last(), Some(Step::End)));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn chain_has_the_steps_of_the_hand_built_program() {
        let phase = |name| PhaseDef::new(name, 4, CostModel::constant(1));
        let chained = Program::chain(
            vec![phase("a"), phase("b"), phase("c")],
            vec![EnablementMapping::Identity, EnablementMapping::Null],
        )
        .unwrap();
        let mut b = ProgramBuilder::new();
        let [a, z, c] = ["a", "b", "c"].map(|name| b.phase(phase(name)));
        let identity = EnableSpec {
            successor: z,
            mapping: EnablementMapping::Identity,
        };
        b.dispatch_enable(a, vec![identity]).dispatch(z).dispatch(c);
        let built = b.build().unwrap();
        assert_eq!(format!("{:?}", chained.steps), format!("{:?}", built.steps));
        assert!(matches!(&chained.steps[1], Step::Dispatch { enables, .. } if enables.is_empty()));
        assert_eq!(chained.counters, 0);
    }

    #[test]
    fn chain_needs_one_edge_fewer_than_phases() {
        let phase = |name| PhaseDef::new(name, 4, CostModel::constant(1));
        let two = || vec![phase("a"), phase("b")];
        let identity = || EnablementMapping::Identity;
        let err = Program::chain(two(), vec![]).unwrap_err();
        assert_eq!(err, "a chain of 2 phases has 1 edges, got 0");
        let err = Program::chain(two(), vec![identity(), identity()]).unwrap_err();
        assert_eq!(err, "a chain of 2 phases has 1 edges, got 2");
        let err = Program::chain(vec![], vec![]).unwrap_err();
        assert_eq!(err, "a chain needs at least one phase");
        let one = Program::chain(vec![phase("a")], vec![]).unwrap();
        assert_eq!(one.steps.len(), 2);
    }

    #[test]
    fn chain_reports_a_misfit_edge_as_the_builder_does() {
        let phases = || {
            [
                PhaseDef::new("a", 8, CostModel::constant(1)),
                PhaseDef::new("b", 9, CostModel::constant(1)),
            ]
        };
        let chained = Program::chain(phases().into(), vec![EnablementMapping::Identity]);
        let mut b = ProgramBuilder::new();
        let [a, z] = phases().map(|def| b.phase(def));
        let identity = EnableSpec {
            successor: z,
            mapping: EnablementMapping::Identity,
        };
        b.dispatch_enable(a, vec![identity]).dispatch(z);
        let err = chained.unwrap_err();
        assert!(err.starts_with("step 0: "), "{err}");
        assert_eq!(err, b.build().unwrap_err());
    }

    #[test]
    fn lookahead_finds_next_dispatch() {
        let p = two_phase_program();
        match p.lookahead(0, &mut [], false) {
            Lookahead::Phase { phase, step } => {
                assert_eq!(phase, PhaseId(1));
                assert_eq!(step, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lookahead_blocked_by_serial() {
        let mut b = ProgramBuilder::new();
        let a = b.phase(PhaseDef::new("a", 4, CostModel::constant(1)));
        let c = b.phase(PhaseDef::new("b", 4, CostModel::constant(1)));
        b.dispatch(a);
        b.serial(100, "decide");
        b.dispatch(c);
        let p = b.build().unwrap();
        assert_eq!(p.lookahead(0, &mut [], true), Lookahead::BlockedBySerial);
    }

    #[test]
    fn lookahead_through_preprocessable_branch() {
        // dispatch a; if ctr % 10 != 0 goto dispatch b else dispatch c
        let mut b = ProgramBuilder::new();
        let pa = b.phase(PhaseDef::new("a", 4, CostModel::constant(1)));
        let pb = b.phase(PhaseDef::new("b", 4, CostModel::constant(1)));
        let pc = b.phase(PhaseDef::new("c", 4, CostModel::constant(1)));
        let ctr = b.counter();
        b.dispatch(pa); // step 0
        b.step(Step::Branch {
            test: BranchTest::CounterModNe {
                counter: ctr,
                modulus: 10,
                residue: 0,
            },
            on_true: 2,
            on_false: 3,
        });
        b.dispatch(pb); // step 2
        b.dispatch(pc); // step 3
        let p = b.build().unwrap();

        // counter = 7: branch true -> b
        assert_eq!(
            p.lookahead(0, &mut [7], true),
            Lookahead::Phase { phase: pb, step: 2 }
        );
        // counter = 10: branch false -> c
        assert_eq!(
            p.lookahead(0, &mut [10], true),
            Lookahead::Phase { phase: pc, step: 3 }
        );
        // branch-dependent: blocked
        assert_eq!(p.lookahead(0, &mut [7], false), Lookahead::BlockedByBranch);
    }

    #[test]
    fn lookahead_applies_incr_to_scratch_only() {
        let mut b = ProgramBuilder::new();
        let pa = b.phase(PhaseDef::new("a", 4, CostModel::constant(1)));
        let pb = b.phase(PhaseDef::new("b", 4, CostModel::constant(1)));
        let pc = b.phase(PhaseDef::new("c", 4, CostModel::constant(1)));
        let ctr = b.counter();
        b.dispatch(pa); // 0
        b.incr(ctr, 1); // 1
        b.step(Step::Branch {
            test: BranchTest::CounterLt(ctr, 1),
            on_true: 3,
            on_false: 4,
        }); // 2
        b.dispatch(pb); // 3
        b.dispatch(pc); // 4
        let p = b.build().unwrap();
        let counters = vec![0i64];
        // After the incr, counter==1, so CounterLt(1) is false -> c
        assert_eq!(
            p.lookahead(0, &mut counters.clone(), true),
            Lookahead::Phase { phase: pc, step: 4 }
        );
        // the real counter file was untouched
        assert_eq!(counters[0], 0);
    }

    #[test]
    fn validate_catches_bad_targets() {
        let p = Program {
            phases: vec![PhaseDef::new("a", 1, CostModel::constant(1))],
            steps: vec![Step::Goto(99), Step::End],
            counters: 0,
        };
        assert!(p.validate().unwrap_err().contains("goto target"));

        let p2 = Program {
            phases: vec![],
            steps: vec![Step::Dispatch {
                phase: PhaseId(0),
                enables: vec![],
                branch_independent: false,
            }],
            counters: 0,
        };
        assert!(p2.validate().is_err());

        // A forward map whose target lies past its successor: fields are
        // public, so `ForwardMap::new`'s assertion can be bypassed.
        let mut stray = ForwardMap::new(vec![0, 0], 4);
        stray.targets[1] = 9;
        let p3 = Program {
            phases: vec![
                PhaseDef::new("a", 4, CostModel::constant(1)),
                PhaseDef::new("b", 4, CostModel::constant(1)),
            ],
            steps: vec![
                Step::Dispatch {
                    phase: PhaseId(0),
                    enables: vec![EnableSpec {
                        successor: PhaseId(1),
                        mapping: EnablementMapping::ForwardIndirect(std::sync::Arc::new(stray)),
                    }],
                    branch_independent: false,
                },
                Step::Dispatch {
                    phase: PhaseId(1),
                    enables: vec![],
                    branch_independent: false,
                },
                Step::End,
            ],
            counters: 0,
        };
        assert_eq!(
            p3.validate().unwrap_err(),
            "step 0: forward map targets successor granule 9, phase has only 4"
        );
    }

    #[test]
    fn validate_rejects_a_modulus_that_is_not_positive() {
        let program = |test| Program {
            phases: vec![],
            steps: vec![
                Step::Branch {
                    test,
                    on_true: 1,
                    on_false: 1,
                },
                Step::End,
            ],
            counters: 1,
        };
        for modulus in [0, -3] {
            let (counter, residue) = (0, 0);
            for test in [
                BranchTest::CounterModEq {
                    counter,
                    modulus,
                    residue,
                },
                BranchTest::CounterModNe {
                    counter,
                    modulus,
                    residue,
                },
            ] {
                let err = program(test).validate().unwrap_err();
                assert!(err.starts_with("step 0:"), "{err}");
                assert!(err.contains(&format!("modulus {modulus}")), "{err}");
            }
        }
        let three = BranchTest::CounterModEq {
            counter: 0,
            modulus: 3,
            residue: 2,
        };
        assert_eq!(program(three).validate(), Ok(()));
    }

    #[test]
    fn branch_tests_eval() {
        assert!(BranchTest::CounterLt(0, 5).eval(&[3]));
        assert!(!BranchTest::CounterLt(0, 5).eval(&[5]));
        assert!(BranchTest::CounterModEq {
            counter: 0,
            modulus: 10,
            residue: 0
        }
        .eval(&[20]));
        assert!(BranchTest::CounterModNe {
            counter: 0,
            modulus: 10,
            residue: 0
        }
        .eval(&[7]));
        assert!(BranchTest::Always.eval(&[]));
        assert!(!BranchTest::Never.eval(&[]));
    }

    #[test]
    fn declared_tasks_counts_every_dispatch() {
        let mut b = ProgramBuilder::new();
        let a = b.phase(PhaseDef::new("a", 10, CostModel::constant(1)));
        let z = b.phase(PhaseDef::new("z", 64, CostModel::constant(1)));
        b.dispatch(a).dispatch(z).dispatch(a);
        let p = b.build().unwrap();
        // ⌈10/4⌉ + ⌈64/4⌉ + ⌈10/4⌉: the phase dispatched twice counts twice.
        let fixed = OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(4));
        assert_eq!(p.declared_tasks(&fixed, 8), Some(3 + 16 + 3));
        // Two tasks a processor on 4 processors: 10 → 1-granule tasks,
        // 64 → 8-granule tasks.
        let ratio = OverlapPolicy::overlap().with_sizing(TaskSizing::TasksPerProcessor(2.0));
        assert_eq!(p.declared_tasks(&ratio, 4), Some(10 + 8 + 10));
    }

    #[test]
    fn declared_tasks_counts_the_taken_arm_of_a_forward_branch() {
        let program = |test| {
            let mut b = ProgramBuilder::new();
            let pa = b.phase(PhaseDef::new("a", 4, CostModel::constant(1)));
            let pb = b.phase(PhaseDef::new("b", 8, CostModel::constant(1)));
            let pc = b.phase(PhaseDef::new("c", 16, CostModel::constant(1)));
            b.counter();
            b.dispatch(pa); // 0
            b.step(Step::Branch {
                test,
                on_true: 2,
                on_false: 4,
            }); // 1
            b.dispatch(pb); // 2
            b.step(Step::Goto(5)); // 3
            b.dispatch(pc); // 4
            b.build().unwrap()
        };
        let policy = OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1));
        // The counter starts at zero, as a job's does.
        let taken = program(BranchTest::CounterLt(0, 1)).declared_tasks(&policy, 2);
        assert_eq!(taken, Some(4 + 8));
        let other = program(BranchTest::CounterLt(0, 0)).declared_tasks(&policy, 2);
        assert_eq!(other, Some(4 + 16));
    }

    #[test]
    fn declared_tasks_counts_a_loop_once_per_iteration() {
        // c = 0; top: dispatch a; c += 1; if c < 3 goto top
        let mut b = ProgramBuilder::new();
        let a = b.phase(PhaseDef::new("a", 12, CostModel::constant(1)));
        let z = b.phase(PhaseDef::new("z", 5, CostModel::constant(1)));
        let c = b.counter();
        b.dispatch(a); // 0
        b.incr(c, 1); // 1
        b.step(Step::Branch {
            test: BranchTest::CounterLt(c, 3),
            on_true: 0,
            on_false: 3,
        }); // 2
        b.dispatch(z); // 3
        let p = b.build().unwrap();
        let policy = OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(4));
        assert_eq!(p.declared_tasks(&policy, 4), Some(3 * 3 + 2));
    }

    #[test]
    fn declared_tasks_is_unknown_for_an_endless_program() {
        let program = |jump: Step| Program {
            phases: vec![PhaseDef::new("a", 4, CostModel::constant(1))],
            steps: vec![
                Step::Dispatch {
                    phase: PhaseId(0),
                    enables: vec![],
                    branch_independent: false,
                },
                jump,
                Step::End,
            ],
            counters: 1,
        };
        let policy = OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1));
        assert_eq!(program(Step::Goto(2)).declared_tasks(&policy, 1), Some(4));
        // Back to the dispatch, or to itself: the walk's budget runs out.
        assert_eq!(program(Step::Goto(0)).declared_tasks(&policy, 1), None);
        assert_eq!(program(Step::Goto(1)).declared_tasks(&policy, 1), None);
        // A counter that never moves never leaves the loop.
        let stuck = Step::Branch {
            test: BranchTest::CounterLt(0, 3),
            on_true: 0,
            on_false: 2,
        };
        assert_eq!(program(stuck).declared_tasks(&policy, 1), None);
        // A dispatch of an unknown phase declares nothing either.
        let mut unknown = program(Step::Goto(2));
        unknown.phases.clear();
        assert_eq!(unknown.declared_tasks(&policy, 1), None);
    }

    /// `a` enables `b` through a reverse map, `b` enables `c` by
    /// identity, `c` enables `d` by identity, and `d` enables `e`
    /// universally; `gap` goes between `a` and `b`, as step 1.
    /// `top: dispatch a (UNIVERSAL → c); dispatch b; k += 1;
    /// if k < 300 goto top; dispatch c`: `b` follows `a` on all 300 passes.
    #[test]
    fn interlock_gaps_names_each_gap_once_in_path_order() {
        let mut b = ProgramBuilder::new();
        let pa = b.phase(PhaseDef::new("a", 4, CostModel::constant(1)));
        let pb = b.phase(PhaseDef::new("b", 4, CostModel::constant(1)));
        let pc = b.phase(PhaseDef::new("c", 4, CostModel::constant(1)));
        let k = b.counter();
        let universal = EnableSpec {
            successor: pc,
            mapping: EnablementMapping::Universal,
        };
        b.dispatch_enable(pa, vec![universal]); // 0
        b.dispatch(pb); // 1
        b.incr(k, 1); // 2
        b.step(Step::Branch {
            test: BranchTest::CounterLt(k, 300),
            on_true: 0,
            on_false: 4,
        }); // 3
        b.dispatch(pc); // 4
        let p = b.build().unwrap();
        assert_eq!(p.interlock_gaps(), Ok(vec![(0, pb)]));
        assert_eq!(two_phase_program().interlock_gaps(), Ok(vec![]));
    }

    #[test]
    fn interlock_gaps_stops_where_a_loop_spends_its_budget() {
        let mut b = ProgramBuilder::new();
        let pa = b.phase(PhaseDef::new("a", 4, CostModel::constant(1)));
        let k = b.counter();
        b.dispatch(pa); // 0
        b.incr(k, 1); // 1
        b.step(Step::Goto(1)); // 2
        let p = b.build().unwrap();
        assert_eq!(p.interlock_gaps(), Err(1));
    }

    fn counted_chain(gap: Option<Step>, branch_independent: bool) -> Program {
        let mut b = ProgramBuilder::new();
        let ids: Vec<PhaseId> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|name| b.phase(PhaseDef::new(*name, 12, CostModel::constant(1))))
            .collect();
        let enable = |successor, mapping| vec![EnableSpec { successor, mapping }];
        let reverse = ReverseMap::new((0..12).map(|r| vec![r]).collect(), 12);
        let counted = EnablementMapping::ReverseIndirect(std::sync::Arc::new(reverse));
        if branch_independent {
            b.dispatch_enable_branch_independent(ids[0], enable(ids[1], counted));
        } else {
            b.dispatch_enable(ids[0], enable(ids[1], counted));
        }
        if let Some(gap) = gap {
            b.step(gap);
        }
        b.dispatch_enable(ids[1], enable(ids[2], EnablementMapping::Identity));
        b.dispatch_enable(ids[2], enable(ids[3], EnablementMapping::Identity));
        b.dispatch_enable(ids[3], enable(ids[4], EnablementMapping::Universal));
        b.dispatch(ids[4]);
        b.build().unwrap()
    }

    #[test]
    fn declared_tasks_counts_granules_for_a_counted_successor_and_its_identity_chain() {
        let p = counted_chain(None, false);
        // 12 granules in tasks of 4: a phase carved whole is 3 tasks.
        let overlap = OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(4));
        // a carved; b counted; c, d identity from a counted phase; e
        // universal, carved whole again.
        assert_eq!(p.declared_tasks(&overlap, 4), Some(3 + 12 + 12 + 12 + 3));
        // Under the strict policy nothing fragments.
        let strict = OverlapPolicy::strict().with_sizing(TaskSizing::Fixed(4));
        assert_eq!(p.declared_tasks(&strict, 4), Some(5 * 3));
    }

    #[test]
    fn declared_tasks_cuts_the_chain_where_lookahead_stops() {
        let overlap = OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(4));
        let serial = Step::Serial {
            duration: SimDuration(10),
            label: "decide".into(),
        };
        let branch = Step::Branch {
            test: BranchTest::Always,
            on_true: 2,
            on_false: 2,
        };
        // A serial step cuts the chain: b is carved whole, and so are the
        // identity successors that follow it.
        let cut = Some(5 * 3);
        assert_eq!(
            counted_chain(Some(serial.clone()), true).declared_tasks(&overlap, 4),
            cut
        );
        // A branch cuts it after a branch-dependent dispatch only.
        let dependent = counted_chain(Some(branch.clone()), false);
        assert_eq!(dependent.declared_tasks(&overlap, 4), cut);
        let independent = counted_chain(Some(branch), true);
        assert_eq!(
            independent.declared_tasks(&overlap, 4),
            Some(3 + 12 + 12 + 12 + 3)
        );
    }

    #[test]
    fn counters_saturate_alike_in_lookahead_the_walk_and_the_interpreter() {
        // c += i64::MAX; c += 1; dispatch a; if c < 0 (it wrapped) goto
        // b else goto z. Saturating, c stays at i64::MAX and z follows.
        let mut b = ProgramBuilder::new();
        let pa = b.phase(PhaseDef::new("a", 4, CostModel::constant(1)));
        let pb = b.phase(PhaseDef::new("b", 4, CostModel::constant(1)));
        let pz = b.phase(PhaseDef::new("z", 8, CostModel::constant(1)));
        let c = b.counter();
        b.incr(c, i64::MAX); // 0
        b.incr(c, 1); // 1
        b.dispatch_enable_branch_independent(
            pa,
            vec![EnableSpec {
                successor: pz,
                mapping: EnablementMapping::Universal,
            }],
        ); // 2
        b.step(Step::Branch {
            test: BranchTest::CounterLt(c, 0),
            on_true: 4,
            on_false: 6,
        }); // 3
        b.dispatch(pb); // 4
        b.step(Step::Goto(7)); // 5
        b.dispatch(pz); // 6
        let p = b.build().unwrap();
        assert_eq!(
            p.lookahead(2, &mut [i64::MAX], true),
            Lookahead::Phase { phase: pz, step: 6 }
        );
        let lookahead_incr = p.lookahead(0, &mut [i64::MAX], false);
        assert_eq!(lookahead_incr, Lookahead::Phase { phase: pa, step: 2 });
        let policy = OverlapPolicy::overlap().with_sizing(TaskSizing::Fixed(1));
        assert_eq!(p.declared_tasks(&policy, 2), Some(4 + 8));
        assert_eq!(p.interlock_gaps(), Ok(vec![]));
        let mut sim =
            crate::engine::Simulation::new(pax_sim::machine::MachineConfig::new(2), policy);
        sim.add_job(p);
        let report = sim.run().expect("the program runs to its end");
        let ran: Vec<&str> = report.phases.iter().map(|ph| ph.name.as_str()).collect();
        assert_eq!(ran, ["a", "z"]);
    }

    #[test]
    fn lookahead_terminates_on_goto_cycle() {
        let p = Program {
            phases: vec![PhaseDef::new("a", 1, CostModel::constant(1))],
            steps: vec![
                Step::Dispatch {
                    phase: PhaseId(0),
                    enables: vec![],
                    branch_independent: false,
                },
                Step::Goto(1), // self-loop after the dispatch
            ],
            counters: 0,
        };
        assert_eq!(p.lookahead(0, &mut [], true), Lookahead::ProgramEnd);
    }
}
