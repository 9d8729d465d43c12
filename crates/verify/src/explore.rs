//! Bounded concolic exploration of a CFA's abstract state graph.
//!
//! A CFA is an opaque `step` function, so the graph is enumerated by
//! *driving* it: starting from every `header × key` root in the model, each
//! emitted micro-op is answered with every outcome the DPU could produce —
//! a `Read` forks on the model's staged-line shapes, a `Compare` on all
//! three orderings, a `Hash` on the model's probe values, an `Alu`
//! deterministically. Configurations (the full architectural context: state
//! byte, registers, scratch, staged line, header, key) are deduplicated by
//! digest, which makes the graph finite: cyclic structures revisit a
//! configuration and close a cycle instead of unrolling forever.
//!
//! The graph is an over-approximation of concrete executions: every real
//! query path is a path here, but some explored paths (e.g. endlessly
//! re-choosing the "pointer is non-null" shape) cannot happen against any
//! single concrete memory. Checks are phrased accordingly — "every
//! configuration can *reach* a terminal", not "every path terminates".

use crate::model::StructureModel;
use qei_core::firmware::CfaProgram;
use qei_core::{Header, MicroOp, OpOutcome, QueryCtx};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Most configurations explored per program before giving up. Real CFAs
/// stay in the hundreds; a runaway model (or firmware) hits this instead of
/// hanging the verifier.
pub const CONFIG_BUDGET: usize = 50_000;

/// Classification of an emitted micro-op, for edge labeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `MicroOp::Read`
    Read,
    /// `MicroOp::Compare`
    Compare,
    /// `MicroOp::Hash`
    Hash,
    /// `MicroOp::Alu`
    Alu,
    /// `MicroOp::Done`
    Done,
    /// `MicroOp::Fault`
    Fault,
}

/// How one explored configuration resolved.
#[derive(Debug, Clone)]
pub enum ConfigEnd {
    /// Emitted a non-terminal op with the given successors.
    Step {
        /// Kind of the emitted op.
        kind: OpKind,
        /// Successor configuration ids.
        succ: Vec<usize>,
    },
    /// Emitted `Done` — `state_after` is the CFA state it left behind.
    Done {
        /// CFA state after the terminal step.
        state_after: u8,
    },
    /// Emitted `Fault`.
    Fault,
    /// `step` panicked; the payload message.
    Panicked(String),
}

/// One explored configuration.
#[derive(Debug)]
pub struct Config {
    /// CFA state byte before the step.
    pub state: u8,
    /// Budget-violation message for the emitted op, if any.
    pub budget_violation: Option<String>,
    /// How the step resolved.
    pub end: ConfigEnd,
    /// The micro-op this configuration emitted (operands included), for the
    /// cost analysis. `None` only while the configuration is pending or if
    /// its step panicked.
    pub op: Option<MicroOp>,
}

/// The explored graph plus summary facts.
#[derive(Debug)]
pub struct Exploration {
    /// All configurations, in discovery (BFS) order.
    pub configs: Vec<Config>,
    /// Distinct CFA state bytes observed (before or after any step),
    /// excluding the EXCEPTION state the executor applies itself.
    pub states_seen: Vec<u8>,
    /// Total transitions (edges) in the graph.
    pub transitions: u64,
    /// Number of terminal configurations (`Done` or `Fault`).
    pub terminals: u64,
    /// Whether the [`CONFIG_BUDGET`] was exhausted (graph is incomplete).
    pub budget_exhausted: bool,
    /// Order-stable digest of the entire exploration log. Two explorations
    /// with equal signatures made identical decisions at every step —
    /// operands included — so differing signatures prove a behavioral
    /// dependence on whatever input was changed.
    pub signature: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of a configuration: everything `step` can read except the step
/// counter (which only the executor's watchdog consumes and would make
/// every configuration unique).
fn digest(ctx: &QueryCtx, outcome: &OpOutcome) -> u64 {
    let mut f = Fnv::new();
    f.bytes(&ctx.header.to_bytes());
    f.bytes(&ctx.key);
    f.bytes(&[ctx.state]);
    f.u64(ctx.cursor);
    f.u64(ctx.cursor2);
    f.u64(ctx.counter);
    f.u64(ctx.acc);
    for w in ctx.scratch {
        f.u64(w);
    }
    f.bytes(&ctx.line);
    outcome_digest(&mut f, outcome);
    f.0
}

fn outcome_digest(f: &mut Fnv, outcome: &OpOutcome) {
    match outcome {
        OpOutcome::Start => f.u64(1),
        OpOutcome::Data => f.u64(2),
        OpOutcome::Cmp(Ordering::Less) => f.u64(3),
        OpOutcome::Cmp(Ordering::Equal) => f.u64(4),
        OpOutcome::Cmp(Ordering::Greater) => f.u64(5),
        OpOutcome::Hashed(h) => {
            f.u64(6);
            f.u64(*h);
        }
        OpOutcome::AluDone => f.u64(7),
    }
}

/// Explores `program` over every root in `model`.
pub fn explore(program: &dyn CfaProgram, model: &StructureModel) -> Exploration {
    let mut visited: BTreeMap<u64, usize> = BTreeMap::new();
    let mut pending: Vec<(QueryCtx, OpOutcome)> = Vec::new();
    let mut configs: Vec<Config> = Vec::new();
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut log = Fnv::new();
    let mut states: Vec<u8> = Vec::new();
    let mut transitions = 0u64;
    let mut terminals = 0u64;
    let mut budget_exhausted = false;

    let intern = |ctx: QueryCtx,
                  outcome: OpOutcome,
                  visited: &mut BTreeMap<u64, usize>,
                  pending: &mut Vec<(QueryCtx, OpOutcome)>,
                  configs: &mut Vec<Config>,
                  queue: &mut std::collections::VecDeque<usize>|
     -> usize {
        let d = digest(&ctx, &outcome);
        if let Some(&id) = visited.get(&d) {
            return id;
        }
        let id = configs.len();
        visited.insert(d, id);
        configs.push(Config {
            state: ctx.state,
            budget_violation: None,
            end: ConfigEnd::Fault, // placeholder until stepped
            op: None,
        });
        pending.push((ctx, outcome));
        queue.push_back(id);
        id
    };

    for h in &model.headers {
        for key in &model.keys {
            let ctx = QueryCtx::new(*h, key.clone());
            intern(
                ctx,
                OpOutcome::Start,
                &mut visited,
                &mut pending,
                &mut configs,
                &mut queue,
            );
        }
    }

    while let Some(id) = queue.pop_front() {
        if configs.len() > CONFIG_BUDGET {
            budget_exhausted = true;
            break;
        }
        let (base_ctx, outcome) = pending[id].clone();
        if !states.contains(&base_ctx.state) {
            states.push(base_ctx.state);
        }

        // Mirror the stale gate in `qei_core::walk`: a root whose header
        // epoch is odd (mutation in flight) never reaches the CFA — the walk
        // driver returns `StaleStructure` before the first step. Model it
        // as an immediate Fault terminal.
        if matches!(outcome, OpOutcome::Start) && base_ctx.header.stale() {
            log.bytes(b"stale-root");
            configs[id].end = ConfigEnd::Fault;
            terminals += 1;
            continue;
        }

        let mut ctx = base_ctx.clone();
        let outcome_for_step = outcome.clone();
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            let op = program.step(&mut ctx, outcome_for_step);
            (op, ctx)
        }));
        let (op, ctx) = match stepped {
            Ok(ok) => ok,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                log.bytes(b"panic");
                log.bytes(msg.as_bytes());
                configs[id].end = ConfigEnd::Panicked(msg);
                terminals += 1; // it stops the walk; livelock is separate
                continue;
            }
        };

        // Fold the full decision into the signature: state before, outcome,
        // op with operands, state after.
        log.bytes(&[base_ctx.state]);
        outcome_digest(&mut log, &outcome);
        log.bytes(format!("{op:?}").as_bytes());
        log.bytes(&[ctx.state]);

        configs[id].budget_violation = op.issue_budget_violation();
        configs[id].op = Some(op);
        if !states.contains(&ctx.state) {
            states.push(ctx.state);
        }

        match op {
            MicroOp::Done { .. } => {
                terminals += 1;
                configs[id].end = ConfigEnd::Done {
                    state_after: ctx.state,
                };
            }
            MicroOp::Fault { .. } => {
                terminals += 1;
                configs[id].end = ConfigEnd::Fault;
            }
            MicroOp::Read { len, .. } => {
                let mut succ = Vec::new();
                for variant in (model.lines)(&ctx.header, len) {
                    let mut next = ctx.clone();
                    next.line = variant;
                    next.line.resize(len as usize, 0);
                    succ.push(intern(
                        next,
                        OpOutcome::Data,
                        &mut visited,
                        &mut pending,
                        &mut configs,
                        &mut queue,
                    ));
                }
                transitions += succ.len() as u64;
                configs[id].end = ConfigEnd::Step {
                    kind: OpKind::Read,
                    succ,
                };
            }
            MicroOp::Compare { .. } => {
                // The comparator stages nothing: ctx.line survives, exactly
                // as in the DPU.
                let succ = [Ordering::Less, Ordering::Equal, Ordering::Greater]
                    .into_iter()
                    .map(|ord| {
                        intern(
                            ctx.clone(),
                            OpOutcome::Cmp(ord),
                            &mut visited,
                            &mut pending,
                            &mut configs,
                            &mut queue,
                        )
                    })
                    .collect::<Vec<_>>();
                transitions += succ.len() as u64;
                configs[id].end = ConfigEnd::Step {
                    kind: OpKind::Compare,
                    succ,
                };
            }
            MicroOp::Hash { .. } => {
                let succ = model
                    .hash_values
                    .iter()
                    .map(|&h| {
                        intern(
                            ctx.clone(),
                            OpOutcome::Hashed(h),
                            &mut visited,
                            &mut pending,
                            &mut configs,
                            &mut queue,
                        )
                    })
                    .collect::<Vec<_>>();
                transitions += succ.len() as u64;
                configs[id].end = ConfigEnd::Step {
                    kind: OpKind::Hash,
                    succ,
                };
            }
            MicroOp::Alu { .. } => {
                let succ = vec![intern(
                    ctx,
                    OpOutcome::AluDone,
                    &mut visited,
                    &mut pending,
                    &mut configs,
                    &mut queue,
                )];
                transitions += 1;
                configs[id].end = ConfigEnd::Step {
                    kind: OpKind::Alu,
                    succ,
                };
            }
        }
    }

    states.sort_unstable();
    Exploration {
        configs,
        states_seen: states,
        transitions,
        terminals,
        budget_exhausted,
        signature: log.0,
    }
}

/// Explores with every header in `headers` substituted for the model's own
/// (used by the header-field perturbation check).
pub fn explore_with_headers(
    program: &dyn CfaProgram,
    model: &StructureModel,
    headers: Vec<Header>,
) -> Exploration {
    let perturbed = StructureModel {
        name: model.name,
        dtype: model.dtype,
        subtype: model.subtype,
        headers,
        keys: model.keys.clone(),
        fields_written: model.fields_written.clone(),
        hash_values: model.hash_values.clone(),
        lines: model.lines,
    };
    explore(program, &perturbed)
}
