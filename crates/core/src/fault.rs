//! Query exception codes (paper §IV-D).
//!
//! When a CFA step faults — dereferencing memory that does not belong to the
//! thread, chasing a corrupt pointer — the query transitions to the
//! `EXCEPTION` state and one of these codes is delivered: to the core through
//! the Result Queue for blocking queries, or written to the result address
//! for non-blocking ones. This module also owns that result word's format
//! ([`nb_word`]) and the rule for reading it back ([`nb_word_matches`]).

use qei_mem::MemError;
use std::error::Error;
use std::fmt;

/// The exception code attached to a faulted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultCode {
    /// A pointer in the structure (or an input) referenced an unmapped page.
    PageFault,
    /// A null pointer was dereferenced where a node was required.
    NullPointer,
    /// The header named a data-structure type/subtype with no CFA loaded.
    UnknownType,
    /// The header failed validation (bad key length, zero capacity, …).
    MalformedHeader,
    /// The CFA exceeded its step budget — a cycle in the structure or a
    /// corrupt link chain (queries must terminate; hardware watchdogs).
    StepLimit,
    /// The query was aborted by an interrupt-driven QST flush; software
    /// should re-issue it (paper §IV-D).
    Aborted,
    /// The header's epoch field was odd — a mutation was in flight when the
    /// query was dispatched. Software should re-issue after the mutator
    /// publishes the even epoch (seqlock discipline; extension beyond the
    /// paper's lookup-only model).
    StaleStructure,
}

impl FaultCode {
    /// The wire encoding written to a non-blocking query's result address.
    /// Codes occupy the top byte so they cannot collide with real results
    /// (guest heap addresses are < 2^48).
    pub fn encode(self) -> u64 {
        let low = match self {
            FaultCode::PageFault => 1,
            FaultCode::NullPointer => 2,
            FaultCode::UnknownType => 3,
            FaultCode::MalformedHeader => 4,
            FaultCode::StepLimit => 5,
            FaultCode::Aborted => 6,
            FaultCode::StaleStructure => 7,
        };
        0xFF00_0000_0000_0000 | low
    }

    /// Decodes a wire value if it is a fault encoding.
    pub fn decode(v: u64) -> Option<FaultCode> {
        if v & 0xFF00_0000_0000_0000 != 0xFF00_0000_0000_0000 {
            return None;
        }
        match v & 0xFF {
            1 => Some(FaultCode::PageFault),
            2 => Some(FaultCode::NullPointer),
            3 => Some(FaultCode::UnknownType),
            4 => Some(FaultCode::MalformedHeader),
            5 => Some(FaultCode::StepLimit),
            6 => Some(FaultCode::Aborted),
            7 => Some(FaultCode::StaleStructure),
            _ => None,
        }
    }
}

impl From<MemError> for FaultCode {
    fn from(e: MemError) -> Self {
        match e {
            MemError::NullDeref => FaultCode::NullPointer,
            _ => FaultCode::PageFault,
        }
    }
}

impl fmt::Display for FaultCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultCode::PageFault => "page fault during query",
            FaultCode::NullPointer => "null pointer dereference during query",
            FaultCode::UnknownType => "no CFA loaded for data-structure type",
            FaultCode::MalformedHeader => "malformed data-structure header",
            FaultCode::StepLimit => "query exceeded step budget",
            FaultCode::Aborted => "query aborted by QST flush",
            FaultCode::StaleStructure => "structure epoch odd (mutation in flight)",
        };
        f.write_str(s)
    }
}

impl Error for FaultCode {}

/// The word a non-blocking `QUERY_NB` stores at its result address: the
/// result, with [`crate::RESULT_NOT_FOUND`] raised to `1` so that a nonzero
/// word always means "done", or the fault's [`FaultCode::encode`].
pub fn nb_word(result: Result<u64, FaultCode>) -> u64 {
    match result {
        Ok(v) => v.max(1),
        Err(code) => code.encode(),
    }
}

/// Reads back a [`nb_word`]: the fault it carries, or whether it is the
/// word a query returning `expected` stores. A `1` stands for both a found
/// `1` and [`crate::RESULT_NOT_FOUND`]; a `0` was never written.
///
/// # Errors
///
/// The fault code, when the word encodes one.
pub fn nb_word_matches(word: u64, expected: u64) -> Result<bool, FaultCode> {
    match FaultCode::decode(word) {
        Some(code) => Err(code),
        None => Ok(word == nb_word(Ok(expected))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RESULT_NOT_FOUND;

    const ALL: [FaultCode; 7] = [
        FaultCode::PageFault,
        FaultCode::NullPointer,
        FaultCode::UnknownType,
        FaultCode::MalformedHeader,
        FaultCode::StepLimit,
        FaultCode::Aborted,
        FaultCode::StaleStructure,
    ];

    #[test]
    fn encode_decode_round_trip() {
        for f in ALL {
            assert_eq!(FaultCode::decode(f.encode()), Some(f));
        }
    }

    #[test]
    fn normal_results_do_not_decode_as_faults() {
        assert_eq!(FaultCode::decode(0), None);
        assert_eq!(FaultCode::decode(0x7f00_1234_5678_9abc), None);
        assert_eq!(FaultCode::decode(!0xFF), None);
    }

    #[test]
    fn mem_error_conversion() {
        assert_eq!(FaultCode::from(MemError::NullDeref), FaultCode::NullPointer);
        assert_eq!(
            FaultCode::from(MemError::Unmapped(qei_mem::VirtAddr(0x99))),
            FaultCode::PageFault
        );
    }

    #[test]
    fn display_nonempty() {
        for f in ALL {
            assert!(!f.to_string().is_empty());
        }
    }

    #[test]
    fn nb_words_read_back_as_the_delivered_result() {
        for v in [1, 7, 0x7f00_1234_5678_9abc] {
            assert_eq!(nb_word(Ok(v)), v);
            assert_eq!(nb_word_matches(nb_word(Ok(v)), v), Ok(true));
            assert_eq!(nb_word_matches(nb_word(Ok(v)), v + 1), Ok(false));
        }
        // Not-found raises the completion flag and still reads as a miss.
        assert_eq!(nb_word(Ok(RESULT_NOT_FOUND)), 1);
        assert_eq!(nb_word_matches(1, RESULT_NOT_FOUND), Ok(true));
        assert_eq!(nb_word_matches(2, RESULT_NOT_FOUND), Ok(false));
        // A word never written (zero) is no delivery at all.
        assert_eq!(nb_word_matches(0, 5), Ok(false));
        assert_eq!(nb_word_matches(0, RESULT_NOT_FOUND), Ok(false));
        for f in ALL {
            assert_eq!(nb_word(Err(f)), f.encode());
            assert_eq!(nb_word_matches(nb_word(Err(f)), 0), Err(f));
        }
    }
}
