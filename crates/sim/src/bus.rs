//! The QEI bus: the core model's connection to the shared memory hierarchy
//! and the accelerator during a co-simulated run.

use qei_cache::MemoryHierarchy;
use qei_config::Cycles;
use qei_core::{nb_word_matches, FaultCode, QeiAccelerator};
use qei_cpu::Bus;
use qei_mem::{GuestMem, MemError, PhysAddr, VirtAddr};
use qei_workloads::QueryJob;

/// Owns the machine-side state of one QEI run. Query tokens in the trace
/// index into the job list; token `u32::MAX` is the "wait for all
/// non-blocking results" poll.
#[derive(Debug)]
pub struct QeiBus<'a> {
    mem: MemoryHierarchy,
    accel: QeiAccelerator,
    guest: &'a mut GuestMem,
    jobs: Vec<QueryJob>,
    result_buf: VirtAddr,
    blocking_results: Vec<(u32, Result<u64, FaultCode>)>,
    nb_issued: Vec<u32>,
}

impl<'a> QeiBus<'a> {
    /// Assembles a bus for one run.
    pub fn new(
        mem: MemoryHierarchy,
        accel: QeiAccelerator,
        guest: &'a mut GuestMem,
        jobs: Vec<QueryJob>,
        result_buf: VirtAddr,
    ) -> Self {
        QeiBus {
            mem,
            accel,
            guest,
            jobs,
            result_buf,
            blocking_results: Vec::new(),
            nb_issued: Vec::new(),
        }
    }

    /// The guest memory.
    pub fn guest(&self) -> &GuestMem {
        self.guest
    }

    /// The memory hierarchy (post-run statistics).
    pub fn mem_hierarchy(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// The accelerator (post-run statistics).
    pub fn accel(&self) -> &QeiAccelerator {
        &self.accel
    }

    /// Starts the measured epoch: resets timing clocks and statistics in the
    /// hierarchy and the accelerator (cache/TLB contents stay warm) and
    /// clears the results the warm-up pass recorded.
    pub fn begin_epoch(&mut self) {
        self.mem.reset_epoch();
        self.accel.reset_epoch();
        self.blocking_results.clear();
        self.nb_issued.clear();
    }

    /// Takes every buffered trace event on the machine side (accelerator,
    /// caches, NoC) plus the combined overwrite count.
    pub fn drain_trace(&mut self) -> (Vec<qei_trace::Event>, u64) {
        let (mut events, mut dropped) = self.accel.drain_trace();
        let (mem_events, mem_dropped) = self.mem.drain_trace();
        events.extend(mem_events);
        dropped += mem_dropped;
        (events, dropped)
    }

    /// Checks recorded results against the expected values. For blocking
    /// runs the returned results are compared directly; for non-blocking
    /// runs each result word is read back with [`nb_word_matches`].
    pub fn verify(&self, expected: &[u64], nonblocking: bool) -> bool {
        if nonblocking {
            self.nb_issued.iter().all(|&token| {
                let wire = self
                    .guest
                    .read_u64(self.result_buf + token as u64 * 8)
                    .unwrap_or(u64::MAX);
                nb_word_matches(wire, expected[token as usize]) == Ok(true)
            })
        } else {
            self.blocking_results
                .iter()
                .all(|(token, res)| matches!(res, Ok(v) if *v == expected[*token as usize]))
        }
    }
}

impl Bus for QeiBus<'_> {
    fn mem(&mut self) -> &mut MemoryHierarchy {
        &mut self.mem
    }

    fn translate(&self, va: VirtAddr) -> Result<PhysAddr, MemError> {
        self.guest.translate(va)
    }

    fn dispatch_blocking(&mut self, now: Cycles, token: u32) -> Cycles {
        if token == u32::MAX {
            // The final poll of a non-blocking batch: completes when all
            // issued results are in memory.
            return self.accel.nb_drain_time().max(now) + Cycles(1);
        }
        let job = self.jobs[token as usize];
        let (completion, result) = self.accel.query_b(
            now,
            job.header_addr,
            job.key_addr,
            self.guest,
            &mut self.mem,
        );
        self.blocking_results.push((token, result));
        completion
    }

    fn dispatch_nonblocking(&mut self, now: Cycles, token: u32) -> Cycles {
        let job = self.jobs[token as usize];
        let slot = self.result_buf + token as u64 * 8;
        let (accept, _) = self.accel.query_nb(
            now,
            job.header_addr,
            job.key_addr,
            slot,
            self.guest,
            &mut self.mem,
        );
        self.nb_issued.push(token);
        accept
    }

    fn drain_time(&self) -> Cycles {
        self.accel.nb_drain_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qei_config::{MachineConfig, Scheme};
    use qei_datastructs::{stage_key, LinkedList, QueryDs};

    fn setup(guest: &mut GuestMem) -> (MachineConfig, Vec<QueryJob>, Vec<u64>, VirtAddr) {
        let config = MachineConfig::skylake_sp_24();
        let mut list = LinkedList::new(guest, 8).unwrap();
        for i in 0..10u64 {
            list.insert(guest, format!("k{i:07}").as_bytes(), 100 + i)
                .unwrap();
        }
        let mut jobs = Vec::new();
        let mut expected = Vec::new();
        for i in 0..10u64 {
            let key = format!("k{i:07}");
            let ka = stage_key(guest, key.as_bytes());
            jobs.push(QueryJob {
                header_addr: list.header_addr(),
                key_addr: ka,
            });
            expected.push(list.query_software(guest, key.as_bytes()));
        }
        let buf = guest.alloc(80, 64).unwrap();
        (config, jobs, expected, buf)
    }

    #[test]
    fn blocking_dispatch_records_results() {
        let mut guest = GuestMem::new(301);
        let (config, jobs, expected, buf) = setup(&mut guest);
        let mem = MemoryHierarchy::new(&config);
        let accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let mut bus = QeiBus::new(mem, accel, &mut guest, jobs, buf);
        for t in 0..10u32 {
            let done = bus.dispatch_blocking(Cycles(0), t);
            assert!(done > Cycles(0));
        }
        assert!(bus.verify(&expected, false));
    }

    #[test]
    fn nonblocking_dispatch_writes_buffer() {
        let mut guest = GuestMem::new(302);
        let (config, jobs, expected, buf) = setup(&mut guest);
        let mem = MemoryHierarchy::new(&config);
        let accel = QeiAccelerator::new(&config, Scheme::ChaTlb, 0);
        let mut bus = QeiBus::new(mem, accel, &mut guest, jobs, buf);
        for t in 0..10u32 {
            bus.dispatch_nonblocking(Cycles(0), t);
        }
        // The sentinel poll waits for drain.
        let done = bus.dispatch_blocking(Cycles(0), u32::MAX);
        assert!(done >= bus.drain_time());
        assert!(bus.verify(&expected, true));
    }

    #[test]
    fn verify_fails_on_wrong_expectation() {
        let mut guest = GuestMem::new(303);
        let (config, jobs, mut expected, buf) = setup(&mut guest);
        let mem = MemoryHierarchy::new(&config);
        let accel = QeiAccelerator::new(&config, Scheme::CoreIntegrated, 0);
        let mut bus = QeiBus::new(mem, accel, &mut guest, jobs, buf);
        bus.dispatch_blocking(Cycles(0), 0);
        expected[0] = 0xdead;
        assert!(!bus.verify(&expected, false));
    }
}
