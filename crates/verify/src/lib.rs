//! `qei-verify` — a static model checker for QEI firmware CFAs.
//!
//! The CFA Execution Engine (paper §IV-B) accepts firmware updates at
//! runtime, which raises the obvious systems question: how does the platform
//! know a CFA is safe to install? This crate answers it *without running a
//! workload*: it enumerates each program's abstract state/transition graph
//! (bounded by the header parameter domains a [`model::StructureModel`]
//! declares) and checks:
//!
//! * **Termination** — every reachable configuration can reach a `Done` or
//!   `Fault` terminal: no livelock traps that would spin until the
//!   `STEP_LIMIT` watchdog kills the query.
//! * **Progress** — no reachable cycle made of pure-compute (`Alu`) edges:
//!   such a cycle has a single deterministic successor and can never exit.
//! * **Issue budget** — every emitted micro-op fits the DPU issue budget
//!   (`qei_core::uop`): reads and compares within `MAX_READ_BYTES` /
//!   `MAX_COMPARE_BYTES`, ALU batches within `MAX_ALU_BATCH`, never empty.
//! * **Terminal consistency** — a `Done` micro-op is only emitted from the
//!   `STATE_DONE` state (the QST's ready-bit protocol relies on it).
//! * **Dead states** — the number of distinct states observed matches the
//!   program's declared `state_count()`: fewer means dead (unreachable)
//!   states, more means the declaration under-counts the table.
//! * **Header fields** — the CFA's behavior depends only on header fields
//!   the structure's builder actually writes (checked by perturbing each
//!   unwritten field and comparing exploration signatures).
//! * **No panics** — `step` never panics on any modeled input.
//!
//! [`verify_all`] runs the checker over every installed program and renders
//! a deterministic JSON report; `repro --verify` wires it to the CLI.

#![forbid(unsafe_code)]
pub mod contract;
pub mod cost;
pub mod explore;
pub mod fuzz;
pub mod model;
pub mod report;

pub use contract::{ContractSet, CONTRACT_SCHEMA};
pub use cost::{analyze, widen_spec, WidenSpec};
pub use explore::{explore, ConfigEnd, Exploration, OpKind, CONFIG_BUDGET};
pub use fuzz::{run_campaign, Campaign, FuzzReport, Injection};
pub use model::{builtin_models, generic_model, HeaderField, StructureModel};
pub use report::{check_schema, VERIFY_SCHEMA};

use qei_config::CostContract;
use qei_core::firmware::btree::{BPlusTreeCfa, BTREE_TYPE};
use qei_core::firmware::{CfaProgram, STATE_DONE};
use std::sync::Arc;
use std::sync::OnceLock;

/// The verifier check that produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// A configuration cannot reach any terminal.
    Livelock,
    /// A cycle of pure-ALU transitions (unescapable by construction).
    DatalessCycle,
    /// A micro-op exceeds the DPU issue budget.
    IssueBudget,
    /// `Done` emitted outside `STATE_DONE`.
    TerminalState,
    /// Observed state count disagrees with `state_count()`.
    DeadState,
    /// Behavior depends on a header field the builder does not write.
    HeaderField,
    /// `step` panicked.
    StepPanic,
    /// The exploration budget was exhausted (result inconclusive).
    ExplorationBudget,
}

impl Check {
    /// Stable diagnostic identifier (used in the JSON report and tests).
    pub fn id(self) -> &'static str {
        match self {
            Check::Livelock => "livelock",
            Check::DatalessCycle => "dataless-cycle",
            Check::IssueBudget => "issue-budget",
            Check::TerminalState => "terminal-state",
            Check::DeadState => "dead-state",
            Check::HeaderField => "header-field",
            Check::StepPanic => "step-panic",
            Check::ExplorationBudget => "exploration-budget",
        }
    }
}

/// One verifier finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which check fired.
    pub check: Check,
    /// CFA state byte the finding anchors to, when one is identifiable.
    pub state: Option<u8>,
    /// Human-readable explanation.
    pub detail: String,
}

/// Verification result for one program.
#[derive(Debug)]
pub struct ProgramReport {
    /// CFA name (`CfaProgram::name`).
    pub cfa: &'static str,
    /// Model name (builder-side).
    pub model: &'static str,
    /// Header type byte.
    pub dtype: u8,
    /// Header subtype byte.
    pub subtype: u8,
    /// Declared `state_count()`.
    pub states_declared: u8,
    /// Distinct states observed during exploration.
    pub states_observed: Vec<u8>,
    /// Configurations explored.
    pub configs: usize,
    /// Transitions (edges) in the abstract graph.
    pub transitions: u64,
    /// Terminal configurations reached.
    pub terminals: u64,
    /// Static worst-case cost contract derived by abstract interpretation.
    pub cost: CostContract,
    /// Findings; empty means the program passed.
    pub diagnostics: Vec<Diagnostic>,
}

impl ProgramReport {
    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Verification results for a whole firmware store.
#[derive(Debug)]
pub struct VerifyReport {
    /// Per-program results, in `(dtype, subtype)` order.
    pub programs: Vec<ProgramReport>,
}

impl VerifyReport {
    /// Whether every program passed every check.
    pub fn ok(&self) -> bool {
        self.programs.iter().all(ProgramReport::ok)
    }

    /// Renders the deterministic JSON report.
    pub fn to_json(&self) -> String {
        report::render(self)
    }
}

/// Verifies one program against its model.
pub fn verify_program(program: &dyn CfaProgram, model: &StructureModel) -> ProgramReport {
    let exploration = explore(program, model);
    let mut diagnostics = Vec::new();

    if exploration.budget_exhausted {
        diagnostics.push(Diagnostic {
            check: Check::ExplorationBudget,
            state: None,
            detail: format!(
                "exploration exceeded {CONFIG_BUDGET} configurations; graph is incomplete"
            ),
        });
    }

    check_panics(&exploration, &mut diagnostics);
    check_issue_budget(&exploration, &mut diagnostics);
    check_terminal_state(&exploration, &mut diagnostics);
    check_livelock(&exploration, &mut diagnostics);
    check_dataless_cycles(&exploration, &mut diagnostics);
    check_dead_states(program, &exploration, &mut diagnostics);
    check_header_fields(program, model, &exploration, &mut diagnostics);

    ProgramReport {
        cfa: program.name(),
        model: model.name,
        dtype: model.dtype,
        subtype: model.subtype,
        states_declared: program.state_count(),
        states_observed: exploration.states_seen.clone(),
        configs: exploration.configs.len(),
        transitions: exploration.transitions,
        terminals: exploration.terminals,
        cost: cost::analyze(program, model),
        diagnostics,
    }
}

/// Calls `f` on every program that ships with the workspace — the seven
/// built-ins plus the loadable B+-tree — in `(dtype, subtype)` order, each
/// with its dedicated structure model, or the generic model when it has
/// none, and collects the results.
fn for_each_shipped<T>(mut f: impl FnMut(&dyn CfaProgram, &StructureModel) -> T) -> Vec<T> {
    let mut fw = qei_core::FirmwareStore::with_builtins();
    fw.register(BTREE_TYPE, 0, Arc::new(BPlusTreeCfa));
    let models = builtin_models();
    let mut out = Vec::new();
    for ((dtype, subtype), program) in fw.iter() {
        let dedicated = models
            .iter()
            .find(|m| m.dtype == dtype && m.subtype == subtype);
        let item = match dedicated {
            Some(model) => f(program.as_ref(), model),
            None => f(program.as_ref(), &generic_model(dtype, subtype)),
        };
        out.push(item);
    }
    out
}

/// Verifies every shipped program.
pub fn verify_all() -> VerifyReport {
    VerifyReport {
        programs: for_each_shipped(verify_program),
    }
}

/// Derives the cost contract for every shipped program, in `(dtype,
/// subtype)` order. This is the content of the committed `CONTRACTS.json`
/// artifact.
pub fn contracts_all() -> ContractSet {
    ContractSet {
        contracts: for_each_shipped(cost::analyze),
    }
}

/// Installs the shipped contracts into `qei-core`'s runtime checker
/// (process-global, first install wins). The analysis runs once per process
/// and is cached; calling this repeatedly is cheap.
pub fn install_contracts() {
    static CACHE: OnceLock<ContractSet> = OnceLock::new();
    let set = CACHE.get_or_init(contracts_all);
    qei_core::contract::install(set.contracts.clone());
}

fn check_panics(exploration: &Exploration, out: &mut Vec<Diagnostic>) {
    for cfg in &exploration.configs {
        if let ConfigEnd::Panicked(msg) = &cfg.end {
            out.push(Diagnostic {
                check: Check::StepPanic,
                state: Some(cfg.state),
                detail: format!("step panicked in state {}: {msg}", cfg.state),
            });
            return; // one panic site is enough; avoid a diagnostic flood
        }
    }
}

fn check_issue_budget(exploration: &Exploration, out: &mut Vec<Diagnostic>) {
    let mut seen: Vec<(u8, &str)> = Vec::new();
    for cfg in &exploration.configs {
        if let Some(v) = &cfg.budget_violation {
            if seen
                .iter()
                .any(|(s, d)| *s == cfg.state && *d == v.as_str())
            {
                continue;
            }
            seen.push((cfg.state, v));
            out.push(Diagnostic {
                check: Check::IssueBudget,
                state: Some(cfg.state),
                detail: format!("state {} issued an over-budget micro-op: {v}", cfg.state),
            });
        }
    }
}

fn check_terminal_state(exploration: &Exploration, out: &mut Vec<Diagnostic>) {
    let mut seen: Vec<u8> = Vec::new();
    for cfg in &exploration.configs {
        if let ConfigEnd::Done { state_after } = cfg.end {
            if state_after != STATE_DONE && !seen.contains(&state_after) {
                seen.push(state_after);
                out.push(Diagnostic {
                    check: Check::TerminalState,
                    state: Some(state_after),
                    detail: format!(
                        "Done emitted while the CFA state is {state_after}, not STATE_DONE \
                         ({STATE_DONE}); the QST ready-bit protocol requires the terminal state"
                    ),
                });
            }
        }
    }
}

/// Reverse reachability from terminals: any configuration that cannot reach
/// one is a livelock trap (the watchdog would kill it at `STEP_LIMIT`).
fn check_livelock(exploration: &Exploration, out: &mut Vec<Diagnostic>) {
    let n = exploration.configs.len();
    // Reverse adjacency.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut reaches = vec![false; n];
    let mut stack = Vec::new();
    for (id, cfg) in exploration.configs.iter().enumerate() {
        match &cfg.end {
            ConfigEnd::Step { succ, .. } => {
                for &s in succ {
                    rev[s].push(id);
                }
            }
            ConfigEnd::Done { .. } | ConfigEnd::Fault | ConfigEnd::Panicked(_) => {
                reaches[id] = true;
                stack.push(id);
            }
        }
    }
    while let Some(id) = stack.pop() {
        for &p in &rev[id] {
            if !reaches[p] {
                reaches[p] = true;
                stack.push(p);
            }
        }
    }
    let mut stuck_states: Vec<u8> = Vec::new();
    for (id, cfg) in exploration.configs.iter().enumerate() {
        if !reaches[id] && !stuck_states.contains(&cfg.state) {
            stuck_states.push(cfg.state);
        }
    }
    if !stuck_states.is_empty() {
        stuck_states.sort_unstable();
        out.push(Diagnostic {
            check: Check::Livelock,
            state: Some(stuck_states[0]),
            detail: format!(
                "configurations in state(s) {stuck_states:?} can never reach a Done/Fault \
                 terminal; the query would spin until the STEP_LIMIT watchdog"
            ),
        });
    }
}

/// A cycle whose edges are all `Alu` has exactly one (deterministic)
/// successor at every node, so entering it means never leaving: detect via
/// DFS over the ALU-only subgraph.
fn check_dataless_cycles(exploration: &Exploration, out: &mut Vec<Diagnostic>) {
    let n = exploration.configs.len();
    let mut color = vec![0u8; n]; // 0 = white, 1 = on stack, 2 = done
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        // Iterative DFS with an explicit stack of (node, next-succ-index).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(&mut (id, ref mut next)) = stack.last_mut() {
            let succ = match &exploration.configs[id].end {
                ConfigEnd::Step {
                    kind: OpKind::Alu,
                    succ,
                } => succ.as_slice(),
                _ => &[],
            };
            if *next < succ.len() {
                let s = succ[*next];
                *next += 1;
                match color[s] {
                    0 => {
                        color[s] = 1;
                        stack.push((s, 0));
                    }
                    1 => {
                        out.push(Diagnostic {
                            check: Check::DatalessCycle,
                            state: Some(exploration.configs[s].state),
                            detail: format!(
                                "state {} sits on a cycle of pure-ALU transitions: no new \
                                 data can ever change its course",
                                exploration.configs[s].state
                            ),
                        });
                        return;
                    }
                    _ => {}
                }
            } else {
                color[id] = 2;
                stack.pop();
            }
        }
    }
}

fn check_dead_states(
    program: &dyn CfaProgram,
    exploration: &Exploration,
    out: &mut Vec<Diagnostic>,
) {
    let declared = program.state_count() as usize;
    let observed = exploration.states_seen.len();
    if observed < declared {
        out.push(Diagnostic {
            check: Check::DeadState,
            state: None,
            detail: format!(
                "declared {declared} states but only {observed} were reachable \
                 ({:?}): the others are dead",
                exploration.states_seen
            ),
        });
    } else if observed > declared {
        out.push(Diagnostic {
            check: Check::DeadState,
            state: None,
            detail: format!(
                "observed {observed} distinct states ({:?}) but state_count() declares \
                 only {declared}",
                exploration.states_seen
            ),
        });
    }
}

fn check_header_fields(
    program: &dyn CfaProgram,
    model: &StructureModel,
    base: &Exploration,
    out: &mut Vec<Diagnostic>,
) {
    for field in HeaderField::ALL {
        if model.fields_written.contains(&field) {
            continue;
        }
        let headers = model.headers.iter().map(|h| field.perturb(h)).collect();
        let perturbed = explore::explore_with_headers(program, model, headers);
        if perturbed.signature != base.signature {
            out.push(Diagnostic {
                check: Check::HeaderField,
                state: None,
                detail: format!(
                    "behavior depends on header field `{}`, which the {} builder \
                     never writes (uninitialized read)",
                    field.name(),
                    model.name
                ),
            });
        }
    }
}
