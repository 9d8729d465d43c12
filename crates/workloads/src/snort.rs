//! Snort workload: Aho–Corasick literal matching of packet payloads against
//! a keyword dictionary (the paper: ~40 K keywords, 1 KB query strings).
//!
//! The dictionary is synthetic (seeded random words over a small alphabet so
//! fail transitions and partial matches actually occur); payloads are random
//! text with keywords planted at known positions. One query = one payload
//! scan, returning the total occurrence count.

use crate::{QueryJob, Workload};
use qei_config::SimRng;
use qei_cpu::Trace;
use qei_datastructs::{stage_key, AcTrie, QueryDs};
use qei_mem::GuestMem;

/// Alphabet the generator draws from — small, so keyword prefixes collide
/// and the automaton's failure structure is exercised.
const ALPHABET: &[u8] = b"abcdefgh ";

/// The IPS literal-matching benchmark.
#[derive(Debug)]
pub struct SnortAc {
    automaton: AcTrie,
    jobs: Vec<QueryJob>,
    expected: Vec<u64>,
    text_len: usize,
}

impl SnortAc {
    /// Builds a dictionary of `keywords` random words (3–12 bytes) and a
    /// stream of `scans` payloads of `text_len` bytes, each with a few
    /// planted keywords.
    ///
    /// # Panics
    ///
    /// Panics if guest allocation fails or parameters are degenerate.
    pub fn build(
        mem: &mut GuestMem,
        keywords: usize,
        scans: usize,
        text_len: usize,
        seed: u64,
    ) -> Self {
        assert!(keywords > 0 && text_len >= 16);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut dict: Vec<Vec<u8>> = Vec::with_capacity(keywords);
        // Ordered, not hashed: a `HashSet` frees its keys in a per-process
        // random order when dropped, which shifts the heap layout, and with
        // it the process's peak RSS, from run to run.
        let mut seen = std::collections::BTreeSet::new();
        while dict.len() < keywords {
            let len = rng.range_inclusive(3, 12);
            let w: Vec<u8> = (0..len)
                .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
                .collect();
            if seen.insert(w.clone()) {
                dict.push(w);
            }
        }
        let automaton = AcTrie::build(mem, &dict, text_len as u16).expect("guest alloc");

        let mut jobs = Vec::with_capacity(scans);
        let mut expected = Vec::with_capacity(scans);
        for _ in 0..scans {
            let mut text: Vec<u8> = (0..text_len)
                .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
                .collect();
            // Plant a few keywords to guarantee matches.
            for _ in 0..4 {
                let w = &dict[rng.below(dict.len() as u64) as usize];
                let pos = rng.range_inclusive(0, (text_len - w.len()) as u64) as usize;
                text[pos..pos + w.len()].copy_from_slice(w);
            }
            let ka = stage_key(mem, &text);
            jobs.push(QueryJob {
                header_addr: automaton.header_addr(),
                key_addr: ka,
            });
            expected.push(automaton.query_software(mem, &text));
        }
        SnortAc {
            automaton,
            jobs,
            expected,
            text_len,
        }
    }

    /// The underlying automaton.
    pub fn automaton(&self) -> &AcTrie {
        &self.automaton
    }
}

impl Workload for SnortAc {
    fn name(&self) -> &'static str {
        "Snort"
    }

    fn jobs(&self) -> &[QueryJob] {
        &self.jobs
    }

    fn expected(&self) -> &[u64] {
        &self.expected
    }

    fn baseline_trace(&self, mem: &GuestMem, trace: &mut Trace) -> Vec<u64> {
        let mut results = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            // Packet reassembly/normalization before the content scan.
            trace.alu_block(self.other_work_per_query());
            results.push(self.automaton.query_traced(mem, job.key_addr, trace));
        }
        results
    }

    fn other_work_per_query(&self) -> u32 {
        // Preprocessing per scanned payload.
        60
    }

    fn non_roi_work_per_query(&self) -> u32 {
        // Detection-engine rule evaluation and logging outside the scan
        // (per 1 KB payload; calibrated to the paper's Fig. 1 band).
        76_000
    }

    fn key_len(&self) -> usize {
        self.text_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qei_core::{run_query, FirmwareStore};

    #[test]
    fn builds_and_baseline_matches() {
        let mut mem = GuestMem::new(230);
        let w = SnortAc::build(&mut mem, 200, 6, 256, 15);
        let mut t = Trace::new();
        let results = w.baseline_trace(&mem, &mut t);
        assert_eq!(&results, w.expected());
        // Planted keywords guarantee matches.
        assert!(w.expected().iter().all(|&v| v > 0));
        // Per-byte automaton walk: thousands of uops per scan.
        assert!(t.len() / 6 > 1_000, "uops/scan {}", t.len() / 6);
    }

    #[test]
    fn firmware_agrees() {
        let mut mem = GuestMem::new(231);
        let w = SnortAc::build(&mut mem, 100, 4, 128, 16);
        let fw = FirmwareStore::with_builtins();
        for (job, &exp) in w.jobs().iter().zip(w.expected()) {
            assert_eq!(
                run_query(&fw, &mem, job.header_addr, job.key_addr).unwrap(),
                exp
            );
        }
    }

    #[test]
    fn dictionary_scale_grows_automaton() {
        let mut mem = GuestMem::new(232);
        let small = SnortAc::build(&mut mem, 50, 1, 64, 17);
        let mut mem2 = GuestMem::new(232);
        let large = SnortAc::build(&mut mem2, 500, 1, 64, 17);
        assert!(large.automaton().nodes() > small.automaton().nodes());
    }
}
