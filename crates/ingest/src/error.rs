//! Named error types for every way ingestion can fail.
//!
//! The CLI and the service print these verbatim, so each variant spells
//! out what was wrong *and* what would have been accepted — the same
//! convention the serve protocol errors follow.

use std::error::Error;
use std::fmt;
use std::io;

/// Why an ELF image or an execution could not be ingested.
#[derive(Debug)]
pub enum IngestError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The bytes do not start with the `\x7fELF` magic.
    NotElf,
    /// The ELF is not 64-bit little-endian (`ELFCLASS64` + `ELFDATA2LSB`).
    UnsupportedElf(&'static str),
    /// The ELF targets a machine other than RISC-V (`EM_RISCV` = 243).
    WrongMachine(u16),
    /// The ELF is a dynamically linked executable or shared object
    /// (`ET_DYN`); only statically linked `ET_EXEC` images run here.
    DynamicallyLinked,
    /// A structural field points outside the file.
    Malformed(&'static str),
    /// The executor met an instruction outside the supported RV64IMC
    /// integer subset.
    UnsupportedInstruction {
        /// Program counter of the offending instruction.
        pc: u64,
        /// The raw instruction parcel (32-bit, or 16-bit zero-extended).
        word: u32,
    },
    /// The program counter left 2-byte alignment (a malformed jump).
    UnalignedPc(u64),
    /// An `ecall` asked for a system call other than `exit`/`exit_group`.
    UnsupportedSyscall(u64),
    /// The program ran past the configured instruction budget without
    /// exiting.
    InstructionLimit(u64),
    /// A store needed a new memory page beyond the executor's cap.
    MemoryLimit {
        /// The cap, in distinct 4 KiB pages.
        pages: usize,
    },
    /// The executed stream could not be folded into a valid
    /// [`WorkloadProfile`](dse_workloads::WorkloadProfile).
    Characterize(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "cannot read input: {e}"),
            IngestError::NotElf => {
                write!(
                    f,
                    "not an ELF file (missing \\x7fELF magic); expected a statically \
                           linked RV64 executable"
                )
            }
            IngestError::UnsupportedElf(what) => {
                write!(f, "unsupported ELF: {what}; expected a 64-bit little-endian image")
            }
            IngestError::WrongMachine(m) => {
                write!(f, "ELF machine {m} is not RISC-V (EM_RISCV = 243)")
            }
            IngestError::DynamicallyLinked => {
                write!(
                    f,
                    "dynamically linked executable (ET_DYN); link statically \
                           (e.g. -static -nostdlib) and retry"
                )
            }
            IngestError::Malformed(what) => write!(f, "malformed ELF: {what}"),
            IngestError::UnsupportedInstruction { pc, word } => {
                write!(
                    f,
                    "unsupported instruction {word:#010x} at pc {pc:#x} (the executor \
                           covers the RV64IMC integer subset)"
                )
            }
            IngestError::UnalignedPc(pc) => write!(f, "jump to unaligned pc {pc:#x}"),
            IngestError::UnsupportedSyscall(n) => {
                write!(
                    f,
                    "unsupported syscall {n} (only exit/exit_group, a7 = 93/94, are \
                           shimmed)"
                )
            }
            IngestError::InstructionLimit(n) => {
                write!(f, "program exceeded the {n}-instruction budget without exiting")
            }
            IngestError::MemoryLimit { pages } => {
                write!(
                    f,
                    "program stored to more than {pages} distinct 4 KiB pages; at most \
                           {pages} pages ({} MiB) of memory are accepted",
                    pages * 4 / 1024
                )
            }
            IngestError::Characterize(msg) => write!(f, "characterization failed: {msg}"),
        }
    }
}

impl Error for IngestError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

/// Why an on-disk trace file could not be read or written.
#[derive(Debug)]
pub enum TraceFileError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// The file does not start with the `ADTF` magic.
    BadMagic,
    /// The file's format version is newer than this reader understands.
    FutureVersion(u16),
    /// The file ended in the middle of a header, chunk frame or record.
    Truncated(&'static str),
    /// The bytes violate the format (bad op code, zero dependency
    /// distance, reserved bits set, frame/payload mismatch, …).
    Corrupt(&'static str),
    /// The in-memory instruction cannot be represented by the format
    /// (e.g. a branch payload on a non-branch op).
    Unencodable(&'static str),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file I/O failed: {e}"),
            TraceFileError::BadMagic => {
                write!(f, "not a trace file (missing ADTF magic)")
            }
            TraceFileError::FutureVersion(v) => {
                write!(
                    f,
                    "trace format version {v} is newer than this reader (supports \
                           version 1)"
                )
            }
            TraceFileError::Truncated(where_) => {
                write!(f, "truncated trace file: unexpected end of data in {where_}")
            }
            TraceFileError::Corrupt(what) => write!(f, "corrupt trace file: {what}"),
            TraceFileError::Unencodable(what) => {
                write!(f, "instruction not representable in the trace format: {what}")
            }
        }
    }
}

impl Error for TraceFileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_failure_and_the_fix() {
        let dyn_ = IngestError::DynamicallyLinked.to_string();
        assert!(dyn_.contains("dynamically linked") && dyn_.contains("-static"), "{dyn_}");
        let not = IngestError::NotElf.to_string();
        assert!(not.contains("not an ELF"), "{not}");
        let magic = TraceFileError::BadMagic.to_string();
        assert!(magic.contains("ADTF"), "{magic}");
        let future = TraceFileError::FutureVersion(9).to_string();
        assert!(future.contains("version 9") && future.contains("version 1"), "{future}");
    }
}
