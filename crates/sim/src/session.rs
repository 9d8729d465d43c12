//! [`SimSession`]: the one public surface for build → warm → snapshot →
//! restore → submit → report, and the only code that executes a run.
//!
//! A session owns a built (and mutable) guest image plus the workload that
//! describes it. Daemons and sweeps keep one alive and fork it per run
//! instead of rebuilding from seeds; the batch scheduler builds one-shot
//! sessions and consumes them.
//!
//! * [`SimSession::build`] — construct the workload image from a
//!   [`WorkloadSpec`] (the expensive phase, paid once per session);
//! * [`SimSession::run`] — fork the image (a copy-on-write clone) and price one
//!   mode/scheme/override combination against it. Identical seeds produce
//!   byte-identical reports whether a plan runs through the batch
//!   scheduler, a long-lived session, or a daemon holding one
//!   (`qei-served`). [`SimSession::run_consuming`] prices on the image
//!   itself, for a session that exists only for one run;
//! * [`SimSession::snapshot`] / [`SimSession::restore`] — cheap full-state
//!   fork points. A snapshot captures the guest image *and* a clone of the
//!   workload's [`StructureMutator`] handle, so reverting undoes mutations
//!   exactly: the structure bytes, the header epoch, and the mutator's
//!   cached state (skip-list level RNG, B+-tree height) all roll back;
//! * [`SimSession::query`] / [`SimSession::mutate_insert`] /
//!   [`SimSession::mutate_remove`] — single-operation interactive
//!   submissions against the live image, for daemons and REPL-style use.
//!
//! A session's own run methods step a served chip's lanes on the
//! process-wide worker budget ([`crate::engine::set_default_threads`]).

use crate::engine::{default_threads, ConfigOverrides, RunMode, RunPlan, WorkloadSpec};
use crate::report::RunReport;
use crate::{exec, System};
use qei_cache::MemoryHierarchy;
use qei_config::{Cycles, MachineConfig, Scheme};
use qei_core::{FaultCode, QeiAccelerator, QueryRequest, SubmitCtx};
use qei_workloads::{StructureMutator, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether `cores` lanes divide `config`'s LLC geometry evenly — the
/// precondition the chip asserts before sharding a served run. Daemons
/// validate with this instead of discovering the panic.
pub fn cores_divide_llc(config: &MachineConfig, cores: u32) -> bool {
    crate::chip::divides_llc_evenly(config, cores)
}

/// A point-in-time fork of a session's mutable state: the guest image plus
/// the workload's mutator handle (when it has one). Restoring both at once
/// is what makes revert exact — the handle carries cached state (header
/// copy, skip-list level RNG, B+-tree height) that must match the image.
pub struct SimSnapshot {
    guest: qei_mem::GuestMem,
    mutator: Option<Box<dyn StructureMutator>>,
    digest: u64,
}

impl SimSnapshot {
    /// Content digest of the snapshotted guest image (see
    /// [`qei_mem::GuestMem::state_digest`]).
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

/// The interactive submission lane: one accelerator + hierarchy pair kept
/// across [`SimSession::query`] calls so consecutive queries see warm
/// accelerator TLBs and a monotonically advancing clock.
struct Interactive {
    scheme: Scheme,
    accel: QeiAccelerator,
    mem: MemoryHierarchy,
    /// Submission clock: each query starts at the previous completion.
    now: u64,
}

/// A persistent simulation session: a built workload image, the machine
/// configuration to price it under, and the snapshot/mutation state that
/// lets many runs fork from one build.
pub struct SimSession {
    system: System,
    workload: Arc<dyn Workload>,
    /// The seeds this session was built from (`None` for adopted hand-built
    /// workloads, which cannot be rebuilt declaratively).
    spec: Option<WorkloadSpec>,
    /// Wall time of the build phase, surfaced through `--profile` so the
    /// pay-once economics of a warm session are visible.
    build: Duration,
    mutator: Option<Box<dyn StructureMutator>>,
    interactive: Option<Interactive>,
}

impl SimSession {
    /// Builds a session from seeds: the guest image, the query stream, and
    /// the ground truth, with cost contracts installed. This is the
    /// expensive phase a session amortizes across its runs.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or guest allocation fails.
    pub fn build(config: MachineConfig, spec: WorkloadSpec) -> SimSession {
        qei_verify::install_contracts();
        let started = Instant::now();
        let (system, workload) = spec.build(&config);
        let workload: Arc<dyn Workload> = Arc::from(workload);
        let mutator = workload.mutator();
        SimSession {
            system,
            workload,
            spec: Some(spec),
            build: started.elapsed(),
            mutator,
            interactive: None,
        }
    }

    /// Wraps an already-cloned prototype image — the batch scheduler's
    /// shared build path, where plans over one spec share one build.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn from_prototype(
        config: MachineConfig,
        guest: qei_mem::GuestMem,
        workload: Arc<dyn Workload>,
        spec: Option<WorkloadSpec>,
    ) -> SimSession {
        let mutator = workload.mutator();
        SimSession {
            system: System::from_parts(config, guest),
            workload,
            spec,
            build: Duration::ZERO,
            mutator,
            interactive: None,
        }
    }

    /// Adopts a hand-assembled [`System`] whose guest already holds the
    /// workload's structures — for callers that build their own data
    /// structures (benches, examples) instead of using a [`WorkloadSpec`].
    pub fn adopt(system: System, workload: Arc<dyn Workload>) -> SimSession {
        let mutator = workload.mutator();
        SimSession {
            system,
            workload,
            spec: None,
            build: Duration::ZERO,
            mutator,
            interactive: None,
        }
    }

    /// Records `build` as this session's build-phase wall time (for
    /// callers that build or clone the image outside the session).
    pub fn with_build_time(mut self, build: Duration) -> SimSession {
        self.build = build;
        self
    }

    /// The workload this session serves.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// The base machine configuration (before per-run overrides).
    pub fn config(&self) -> &MachineConfig {
        self.system.config()
    }

    /// The seeds this session was built from, when it was seed-built.
    pub fn spec(&self) -> Option<WorkloadSpec> {
        self.spec
    }

    /// Wall time of the build phase.
    pub fn build_time(&self) -> Duration {
        self.build
    }

    /// Whether the workload exposes a mutable structure.
    pub fn has_mutator(&self) -> bool {
        self.mutator.is_some()
    }

    /// Content digest of the live guest image and its allocator state
    /// ([`qei_mem::GuestMem::state_digest`]).
    pub fn state_digest(&self) -> u64 {
        self.system.guest().state_digest()
    }

    /// Forks the live image and prices one run against it: applies
    /// `overrides` to the session's base configuration, clones the guest (a
    /// copy of its frame table; pages are shared until written), and
    /// executes. The session itself is untouched, so any
    /// number of forks in any order produce byte-identical reports —
    /// identical to cold-building each plan from its seeds.
    ///
    /// # Panics
    ///
    /// Panics on a functional mismatch or an invalid overridden config.
    pub fn run(
        &self,
        mode: RunMode,
        scheme: Option<Scheme>,
        overrides: ConfigOverrides,
        tag: &str,
    ) -> RunReport {
        let started = Instant::now();
        let mut config = self.system.config().clone();
        overrides.apply(&mut config);
        let mut sys = System::from_parts(config, self.system.guest().clone());
        let build = self.build + started.elapsed();
        let threads = default_threads();
        exec::execute(&mut sys, self.workload(), mode, scheme, build, tag, threads)
    }

    /// [`SimSession::run`] with the mode/scheme/overrides/tag taken from a
    /// [`RunPlan`]. The plan's workload field is not consulted — the
    /// session already owns its build.
    pub fn run_plan(&self, plan: &RunPlan) -> RunReport {
        self.run(plan.mode, plan.scheme, plan.overrides, &plan.tag())
    }

    /// Consumes the session and executes on its live system without the
    /// fork clone — for sessions that exist only for this run.
    ///
    /// # Panics
    ///
    /// Panics on a functional mismatch or an invalid overridden config.
    pub fn run_consuming(
        self,
        mode: RunMode,
        scheme: Option<Scheme>,
        overrides: ConfigOverrides,
        tag: &str,
    ) -> RunReport {
        self.consume(mode, scheme, overrides, tag, default_threads())
    }

    /// [`SimSession::run_consuming`] with an explicit worker budget for a
    /// served chip's lanes (0 = one per available core, 1 = serial).
    pub(crate) fn consume(
        mut self,
        mode: RunMode,
        scheme: Option<Scheme>,
        overrides: ConfigOverrides,
        tag: &str,
        threads: usize,
    ) -> RunReport {
        let started = Instant::now();
        overrides.apply(self.system.config_mut());
        assert!(
            self.system.config().validate().is_empty(),
            "invalid machine config"
        );
        let build = self.build + started.elapsed();
        let workload = self.workload.as_ref();
        exec::execute(
            &mut self.system,
            workload,
            mode,
            scheme,
            build,
            tag,
            threads,
        )
    }

    /// Captures the session's mutable state: the guest image and the
    /// mutator handle, with a content digest for cheap comparison.
    pub fn snapshot(&self) -> SimSnapshot {
        // Digest first: the clone then carries every frame hash, so a
        // revert to it rehashes nothing.
        let digest = self.state_digest();
        SimSnapshot {
            guest: self.system.guest().clone(),
            mutator: self.mutator.as_ref().map(|m| m.clone_box()),
            digest,
        }
    }

    /// Restores a snapshot: the guest image and the mutator handle roll
    /// back together, so post-revert mutations replay exactly as if the
    /// reverted ones never happened. The interactive lane is dropped — its
    /// cache/TLB timing state described the abandoned timeline.
    pub fn restore(&mut self, snapshot: &SimSnapshot) {
        *self.system.guest_mut() = snapshot.guest.clone();
        self.mutator = snapshot.mutator.as_ref().map(|m| m.clone_box());
        self.interactive = None;
    }

    /// Submits one blocking query from the workload's stream through the
    /// accelerator under `scheme`, against the live image. The interactive
    /// lane persists across calls (warm accelerator TLBs, monotonically
    /// advancing clock) and is rebuilt when the scheme changes.
    ///
    /// Returns `None` when `job` is out of range; otherwise the completion
    /// cycle and the query's result or fault.
    pub fn query(
        &mut self,
        scheme: Scheme,
        job: usize,
    ) -> Option<(Cycles, Result<u64, FaultCode>)> {
        let j = *self.workload.jobs().get(job)?;
        let rebuild = match &self.interactive {
            Some(lane) => lane.scheme != scheme,
            None => true,
        };
        if rebuild {
            self.interactive = Some(Interactive {
                scheme,
                accel: QeiAccelerator::new(self.system.config(), scheme, self.system.core_id()),
                mem: MemoryHierarchy::new(self.system.config()),
                now: 0,
            });
        }
        let lane = self.interactive.as_mut()?;
        let out = lane.accel.submit(
            QueryRequest::blocking(j.header_addr, j.key_addr),
            SubmitCtx::new(Cycles(lane.now), self.system.guest_mut(), &mut lane.mem),
        );
        let (completion, result) = out.completed()?;
        lane.now = completion.as_u64();
        Some((completion, result))
    }

    /// Software ground-truth lookup through the mutable structure (`None`
    /// when the workload has no mutator).
    pub fn lookup(&self, key: &[u8]) -> Option<u64> {
        self.mutator
            .as_ref()
            .map(|m| m.lookup(self.system.guest(), key))
    }

    /// Inserts (or overwrites) `key` → `value` in the workload's mutable
    /// structure, under the epoch discipline.
    ///
    /// # Errors
    ///
    /// When the workload exposes no mutable structure, or the structure
    /// rejects the mutation (full, guest memory exhausted).
    pub fn mutate_insert(&mut self, key: &[u8], value: u64) -> Result<(), String> {
        let Some(m) = self.mutator.as_mut() else {
            return Err(format!(
                "workload {} exposes no mutable structure",
                self.workload.name()
            ));
        };
        m.insert(self.system.guest_mut(), key, value)
            .map_err(|e| e.to_string())
    }

    /// Removes `key` from the workload's mutable structure, returning its
    /// value (0 if absent).
    ///
    /// # Errors
    ///
    /// When the workload exposes no mutable structure, or the structure
    /// rejects the mutation.
    pub fn mutate_remove(&mut self, key: &[u8]) -> Result<u64, String> {
        let Some(m) = self.mutator.as_mut() else {
            return Err(format!(
                "workload {} exposes no mutable structure",
                self.workload.name()
            ));
        };
        m.remove(self.system.guest_mut(), key)
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RunPlan, WorkloadKind};

    fn jvm_spec() -> WorkloadSpec {
        WorkloadSpec::new(
            7,
            2,
            WorkloadKind::JvmGc {
                objects: 5_000,
                queries: 120,
            },
        )
    }

    fn rocks_spec() -> WorkloadSpec {
        WorkloadSpec::new(
            3,
            9,
            WorkloadKind::RocksDbMem {
                items: 500,
                queries: 40,
            },
        )
    }

    #[test]
    fn forked_sweep_matches_cold_builds() {
        let config = MachineConfig::skylake_sp_24();
        let spec = jvm_spec();
        let plans = [
            RunPlan::baseline(spec),
            RunPlan::qei(spec, Scheme::CoreIntegrated),
            RunPlan::qei(spec, Scheme::ChaTlb).with_qst_entries(8),
            RunPlan::qei_nonblocking(spec, Scheme::DeviceDirect, 16),
            RunPlan::qei(spec, Scheme::CoreIntegrated).with_device_latency(900),
        ];
        let session = SimSession::build(config.clone(), spec);
        let warm: Vec<String> = plans
            .iter()
            .map(|p| session.run_plan(p).to_json())
            .collect();
        let cold: Vec<String> = plans
            .iter()
            .map(|p| {
                SimSession::build(config.clone(), spec)
                    .run_consuming(p.mode, p.scheme, p.overrides, &p.tag())
                    .to_json()
            })
            .collect();
        assert_eq!(warm, cold, "forked runs diverged from cold builds");
        // Forking left the session untouched: the same plans fork the same
        // reports again.
        let again: Vec<String> = plans
            .iter()
            .map(|p| session.run_plan(p).to_json())
            .collect();
        assert_eq!(warm, again);
    }

    #[test]
    fn snapshot_revert_restores_image_and_report() {
        let mut session = SimSession::build(MachineConfig::skylake_sp_24(), jvm_spec());
        let digest0 = session.state_digest();
        let snap = session.snapshot();
        assert_eq!(snap.digest(), digest0);
        let plan = RunPlan::qei(jvm_spec(), Scheme::CoreIntegrated);
        let before = session.run_plan(&plan).to_json();

        // Mutate: insert an object id guaranteed absent (ids are 1 + 3i).
        let key = 2_u64.to_be_bytes();
        assert_eq!(session.lookup(&key), Some(0));
        session.mutate_insert(&key, 0xFEED).expect("insert");
        assert_eq!(session.lookup(&key), Some(0xFEED));
        assert_ne!(
            session.state_digest(),
            digest0,
            "mutation must move the digest"
        );
        session.mutate_remove(&key).expect("remove");
        // Removal does not restore the image bit-for-bit (epoch advanced,
        // node allocation persists) — only revert does.
        assert_ne!(session.state_digest(), digest0);

        session.restore(&snap);
        assert_eq!(
            session.state_digest(),
            digest0,
            "revert must restore the image"
        );
        assert_eq!(session.lookup(&key), Some(0));
        let after = session.run_plan(&plan).to_json();
        assert_eq!(
            before, after,
            "post-revert run diverged from pre-mutation run"
        );
    }

    #[test]
    fn reverts_between_two_snapshots_restore_each_one() {
        let mut session = SimSession::build(MachineConfig::skylake_sp_24(), jvm_spec());
        let plan = RunPlan::qei(jvm_spec(), Scheme::CoreIntegrated);
        // Object ids are 1 + 3i, so every key ≡ 2 (mod 3) is absent.
        let mut absent = (2..).step_by(3).map(|id: u64| id.to_be_bytes());
        let mut mutate = |s: &mut SimSession| {
            let key = absent.next().expect("endless keys");
            s.mutate_insert(&key, 0xFEED).expect("insert");
        };
        let a = session.snapshot();
        let run_a = session.run_plan(&plan).to_json();
        mutate(&mut session);
        let b = session.snapshot();
        let run_b = session.run_plan(&plan).to_json();
        mutate(&mut session);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(session.state_digest(), b.digest());
        for (snap, run) in [(&a, &run_a), (&b, &run_b), (&a, &run_a), (&b, &run_b)] {
            session.restore(snap);
            assert_eq!(session.state_digest(), snap.digest());
            assert_eq!(&session.run_plan(&plan).to_json(), run);
            // Writes after a revert must not leak into the snapshot.
            mutate(&mut session);
            assert_ne!(session.state_digest(), snap.digest());
        }
    }

    #[test]
    fn mutate_after_revert_replays_like_it_never_happened() {
        // The skip list's level RNG lives in the mutator handle: if revert
        // restored only the guest image, the RNG would have advanced and
        // the next insert would pick different levels. Snapshot/restore
        // carry the handle, so A(snapshot → insert X → revert → insert Y)
        // is byte-identical to B(insert Y).
        let config = MachineConfig::skylake_sp_24();
        let mut a = SimSession::build(config.clone(), rocks_spec());
        let mut b = SimSession::build(config, rocks_spec());
        assert_eq!(a.state_digest(), b.state_digest());

        let mut kx = vec![0u8; a.workload().key_len()];
        kx[..4].copy_from_slice(b"mutX");
        let mut ky = vec![0u8; a.workload().key_len()];
        ky[..4].copy_from_slice(b"mutY");

        let snap = a.snapshot();
        a.mutate_insert(&kx, 11).expect("insert X");
        a.restore(&snap);
        a.mutate_insert(&ky, 22).expect("insert Y after revert");
        b.mutate_insert(&ky, 22).expect("insert Y directly");
        assert_eq!(
            a.state_digest(),
            b.state_digest(),
            "reverted session must replay mutations identically"
        );
        assert_eq!(a.lookup(&ky), Some(22));
        assert_eq!(a.lookup(&kx), Some(0));
    }

    #[test]
    fn interactive_queries_answer_ground_truth_and_advance_time() {
        let mut session = SimSession::build(MachineConfig::skylake_sp_24(), jvm_spec());
        let expected: Vec<u64> = session.workload().expected().to_vec();
        let mut last = 0u64;
        for (job, &exp) in expected.iter().enumerate().take(8) {
            let (completion, result) = session
                .query(Scheme::CoreIntegrated, job)
                .expect("job in range");
            assert_eq!(result, Ok(exp), "job {job}");
            assert!(completion.as_u64() > last, "clock must advance");
            last = completion.as_u64();
        }
        assert!(session.query(Scheme::CoreIntegrated, usize::MAX).is_none());
        // Scheme change rebuilds the lane and restarts its clock.
        let (c, _) = session.query(Scheme::ChaTlb, 0).expect("job in range");
        assert!(c.as_u64() < last);
    }

    #[test]
    fn query_is_deterministic_across_sessions() {
        let mut a = SimSession::build(MachineConfig::skylake_sp_24(), jvm_spec());
        let mut b = SimSession::build(MachineConfig::skylake_sp_24(), jvm_spec());
        for job in 0..6 {
            assert_eq!(
                a.query(Scheme::DeviceDirect, job),
                b.query(Scheme::DeviceDirect, job)
            );
        }
    }

    #[test]
    fn snort_has_no_mutator() {
        let spec = WorkloadSpec::new(
            1,
            1,
            WorkloadKind::SnortAc {
                keywords: 50,
                scans: 10,
                text_len: 256,
            },
        );
        let mut session = SimSession::build(MachineConfig::skylake_sp_24(), spec);
        assert!(!session.has_mutator());
        assert!(session.lookup(b"x").is_none());
        assert!(session.mutate_insert(b"x", 1).is_err());
        assert!(session.mutate_remove(b"x").is_err());
    }

    #[test]
    fn cores_divide_llc_matches_the_chip_precondition() {
        let config = MachineConfig::skylake_sp_24();
        assert!(cores_divide_llc(&config, 1));
        assert!(cores_divide_llc(&config, 2));
        assert!(cores_divide_llc(&config, 4));
        assert!(!cores_divide_llc(&config, 3));
    }
}
