//! The bus: the core model's window onto the memory system and the
//! accelerator.
//!
//! The core model needs two things while pricing a trace: the shared memory
//! hierarchy (for loads/stores) and something to resolve accelerator
//! micro-ops. Both must be *the same* underlying state — a QEI query walks
//! the same caches the core uses — so they are exposed through one trait
//! implemented by the top-level simulator. Software-only runs use
//! [`MemBus`], which panics on accelerator micro-ops.

use qei_cache::MemoryHierarchy;
use qei_config::Cycles;
use qei_mem::{AddressSpace, MemError, PhysAddr, VirtAddr};

/// The core's connection to memory and (optionally) the QEI accelerator.
pub trait Bus {
    /// The shared memory hierarchy.
    fn mem(&mut self) -> &mut MemoryHierarchy;

    /// Functional VA→PA translation in the running process's address space.
    ///
    /// # Errors
    ///
    /// Returns the fault a hardware access would raise.
    fn translate(&self, va: VirtAddr) -> Result<PhysAddr, MemError>;

    /// A blocking `QUERY_B` dispatched at `now`. Returns the cycle its result
    /// returns to the core (the micro-op's completion time).
    fn dispatch_blocking(&mut self, _now: Cycles, token: u32) -> Cycles {
        panic!("trace contained QUERY_B (token {token}) but the bus has no accelerator");
    }

    /// A non-blocking `QUERY_NB` dispatched at `now`. Returns the cycle the
    /// accelerator accepts the request (the instruction retires then).
    fn dispatch_nonblocking(&mut self, _now: Cycles, token: u32) -> Cycles {
        panic!("trace contained QUERY_NB (token {token}) but the bus has no accelerator");
    }

    /// Earliest cycle by which all dispatched non-blocking results are in
    /// memory (closes the trace's timing).
    fn drain_time(&self) -> Cycles {
        Cycles::ZERO
    }
}

/// A bus with memory only — for software-baseline runs.
#[derive(Debug)]
pub struct MemBus<'a> {
    /// The memory hierarchy.
    pub mem: MemoryHierarchy,
    /// The process address space for translation.
    pub space: &'a AddressSpace,
}

impl<'a> MemBus<'a> {
    /// Assembles a baseline bus.
    pub fn new(mem: MemoryHierarchy, space: &'a AddressSpace) -> Self {
        MemBus { mem, space }
    }
}

impl Bus for MemBus<'_> {
    fn mem(&mut self) -> &mut MemoryHierarchy {
        &mut self.mem
    }

    fn translate(&self, va: VirtAddr) -> Result<PhysAddr, MemError> {
        self.space.translate(va)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qei_config::MachineConfig;

    #[test]
    #[should_panic(expected = "QUERY_B")]
    fn mem_bus_rejects_blocking() {
        let space = AddressSpace::new();
        let mut bus = MemBus::new(
            MemoryHierarchy::new(&MachineConfig::skylake_sp_24()),
            &space,
        );
        bus.dispatch_blocking(Cycles(0), 3);
    }

    #[test]
    fn mem_bus_drains_and_translates() {
        let space = AddressSpace::new();
        let bus = MemBus::new(
            MemoryHierarchy::new(&MachineConfig::skylake_sp_24()),
            &space,
        );
        assert_eq!(bus.drain_time(), Cycles::ZERO);
        assert!(bus.translate(VirtAddr(0x1000)).is_err());
    }
}
