//! Functional RV64IMC executor streaming [`Instr`] events.
//!
//! This is not a timing model — it computes architectural state only
//! (registers, memory, control flow) and folds each retired instruction
//! into the workload-trace form the rest of the stack already consumes:
//! operation class, backward dependency distances, byte address for
//! memory operations and a branch payload with a deterministic gshare
//! misprediction verdict.
//!
//! Memory is a sparse page map: any address is writable, untouched
//! bytes read as zero. That keeps multi-megabyte BSS/stack regions free
//! and means fixtures need no `PT_LOAD` segment for their data. Stores
//! may touch at most [`MAX_PAGES`] distinct pages, so an uploaded
//! program cannot make the executor allocate without bound.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::OnceLock;

use dse_obs::{global, Counter};
use dse_workloads::{BranchInfo, Instr, Op};

use crate::elf::ElfImage;
use crate::error::IngestError;
use crate::rv64::{decode32, expand16, parcel_len, AluOp, BranchOp, Decoded, LoadOp, MulOp};

/// Executor knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Hard cap on retired instructions; crossing it yields
    /// [`IngestError::InstructionLimit`].
    pub max_instrs: u64,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig { max_instrs: 50_000_000 }
    }
}

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Most distinct 4 KiB pages a program's memory may hold once a store
/// needs a new one: 64 MiB. The committed fixtures touch two pages
/// each, so the cap leaves wide headroom for real programs while
/// bounding what one upload can make the server allocate.
pub const MAX_PAGES: usize = 16_384;
/// Initial stack pointer: high, page-aligned, far from any fixture text.
const STACK_TOP: u64 = 0x7fff_f000;
/// Retired-instruction counter flush granularity.
const METRIC_BATCH: u64 = 4096;

struct ExecMetrics {
    instrs_total: Counter,
    decode_errors_total: Counter,
}

fn metrics() -> &'static ExecMetrics {
    static M: OnceLock<ExecMetrics> = OnceLock::new();
    M.get_or_init(|| ExecMetrics {
        instrs_total: global().counter("ingest_instrs_total"),
        decode_errors_total: global().counter("ingest_decode_errors_total"),
    })
}

/// Sparse byte-addressable memory backed by 4 KiB pages.
struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    fn new() -> Self {
        Memory { pages: HashMap::new() }
    }

    fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte of the loaded image. Loading is bounded by the
    /// image's own size, so it is not capped.
    fn load_u8(&mut self, addr: u64, value: u8) {
        let page =
            self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Stores one byte, failing rather than growing past [`MAX_PAGES`].
    fn store_u8(&mut self, addr: u64, value: u8) -> Result<(), IngestError> {
        let pages = self.pages.len();
        let page = match self.pages.entry(addr >> PAGE_SHIFT) {
            Entry::Occupied(page) => page.into_mut(),
            Entry::Vacant(_) if pages >= MAX_PAGES => {
                return Err(IngestError::MemoryLimit { pages: MAX_PAGES });
            }
            Entry::Vacant(slot) => slot.insert(Box::new([0u8; PAGE_SIZE])),
        };
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
        Ok(())
    }

    fn read(&self, addr: u64, width: u64) -> u64 {
        let mut value = 0u64;
        for i in 0..width {
            value |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        value
    }

    fn store(&mut self, addr: u64, width: u64, value: u64) -> Result<(), IngestError> {
        for i in 0..width {
            self.store_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8)?;
        }
        Ok(())
    }
}

/// Deterministic gshare predictor: 10 bits of global history hashed
/// into 1024 two-bit counters. Seeded to weakly-not-taken, so the same
/// ELF always produces the same misprediction bits.
struct Gshare {
    history: u16,
    table: [u8; 1024],
}

impl Gshare {
    fn new() -> Self {
        Gshare { history: 0, table: [1u8; 1024] }
    }

    /// Returns the misprediction verdict for this dynamic branch and
    /// trains on the outcome.
    fn mispredicted(&mut self, site: u16, taken: bool) -> bool {
        let idx = ((site ^ self.history) & 0x3ff) as usize;
        let predicted = self.table[idx] >= 2;
        if taken {
            self.table[idx] = (self.table[idx] + 1).min(3);
        } else {
            self.table[idx] = self.table[idx].saturating_sub(1);
        }
        self.history = ((self.history << 1) | taken as u16) & 0x3ff;
        predicted != taken
    }
}

/// Streaming functional executor over a loaded [`ElfImage`].
///
/// Iterating yields one `Result<Instr, IngestError>` per retired
/// instruction; the stream ends cleanly when the program calls
/// `exit`/`exit_group`, and ends with a single `Err` on any fault.
pub struct Executor {
    mem: Memory,
    regs: [u64; 32],
    pc: u64,
    /// Retired-instruction index of the last writer of each register.
    last_writer: [Option<u64>; 32],
    predictor: Gshare,
    retired: u64,
    unflushed: u64,
    max_instrs: u64,
    exit_code: Option<u64>,
    done: bool,
}

impl Executor {
    /// Loads the image's segments and prepares execution at its entry
    /// point with the default [`ExecConfig`].
    pub fn new(image: &ElfImage) -> Self {
        Self::with_config(image, ExecConfig::default())
    }

    /// [`Executor::new`] with explicit knobs.
    pub fn with_config(image: &ElfImage, config: ExecConfig) -> Self {
        let mut mem = Memory::new();
        for segment in &image.segments {
            for (i, &byte) in segment.data.iter().enumerate() {
                if byte != 0 {
                    mem.load_u8(segment.vaddr.wrapping_add(i as u64), byte);
                }
            }
            // The BSS tail (memsz beyond filesz) reads as zero already.
        }
        let mut regs = [0u64; 32];
        regs[2] = STACK_TOP;
        Executor {
            mem,
            regs,
            pc: image.entry,
            last_writer: [None; 32],
            predictor: Gshare::new(),
            retired: 0,
            unflushed: 0,
            max_instrs: config.max_instrs,
            exit_code: None,
            done: false,
        }
    }

    /// The code the program passed to `exit`, once it has.
    pub fn exit_code(&self) -> Option<u64> {
        self.exit_code
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    fn reg(&self, r: u8) -> u64 {
        self.regs[r as usize]
    }

    fn set_reg(&mut self, r: u8, value: u64) {
        if r != 0 {
            self.regs[r as usize] = value;
            self.last_writer[r as usize] = Some(self.retired);
        }
    }

    /// Backward distance from the *next* retired index to `r`'s last
    /// writer; `None` for x0 or a register nothing has written yet.
    fn dep(&self, r: u8) -> Option<u32> {
        let producer = self.last_writer[r as usize]?;
        let distance = self.retired - producer;
        debug_assert!(distance >= 1);
        Some(distance.min(u32::MAX as u64) as u32)
    }

    fn flush_metrics(&mut self) {
        if self.unflushed > 0 {
            metrics().instrs_total.add(self.unflushed);
            self.unflushed = 0;
        }
    }

    /// Executes one instruction; `Ok(None)` means a clean exit.
    fn step(&mut self) -> Result<Option<Instr>, IngestError> {
        if self.retired >= self.max_instrs {
            return Err(IngestError::InstructionLimit(self.max_instrs));
        }
        let pc = self.pc;
        if pc & 1 != 0 {
            return Err(IngestError::UnalignedPc(pc));
        }
        let lo16 = self.mem.read(pc, 2) as u16;
        let len = parcel_len(lo16);
        let (word, decoded) = if len == 2 {
            (lo16 as u32, expand16(lo16).and_then(decode32))
        } else {
            let word = self.mem.read(pc, 4) as u32;
            (word, decode32(word))
        };
        let Some(decoded) = decoded else {
            metrics().decode_errors_total.inc();
            return Err(IngestError::UnsupportedInstruction { pc, word });
        };
        let mut next_pc = pc.wrapping_add(len);
        let instr = match decoded {
            Decoded::Lui { rd, imm } => {
                self.set_reg(rd, imm as u64);
                Instr::nop()
            }
            Decoded::Auipc { rd, imm } => {
                self.set_reg(rd, pc.wrapping_add(imm as u64));
                Instr::nop()
            }
            Decoded::Jal { rd, offset } => {
                self.set_reg(rd, pc.wrapping_add(len));
                next_pc = pc.wrapping_add(offset as u64);
                // Unconditional control flow retires as a plain integer
                // op: the synthetic traces likewise reserve `Branch`
                // for conditional branches.
                Instr::nop()
            }
            Decoded::Jalr { rd, rs1, offset } => {
                let dep = self.dep(rs1);
                let target = self.reg(rs1).wrapping_add(offset as u64) & !1;
                self.set_reg(rd, pc.wrapping_add(len));
                next_pc = target;
                Instr { op: Op::IntAlu, deps: [dep, None], addr: None, branch: None }
            }
            Decoded::Branch { op, rs1, rs2, offset } => {
                let deps = [self.dep(rs1), self.dep(rs2)];
                let (a, b) = (self.reg(rs1), self.reg(rs2));
                let taken = match op {
                    BranchOp::Eq => a == b,
                    BranchOp::Ne => a != b,
                    BranchOp::Lt => (a as i64) < (b as i64),
                    BranchOp::Ge => (a as i64) >= (b as i64),
                    BranchOp::Ltu => a < b,
                    BranchOp::Geu => a >= b,
                };
                if taken {
                    next_pc = pc.wrapping_add(offset as u64);
                }
                let site = ((pc >> 1) ^ (pc >> 13)) as u16;
                let mispredicted = self.predictor.mispredicted(site, taken);
                Instr {
                    op: Op::Branch,
                    deps,
                    addr: None,
                    branch: Some(BranchInfo { site, taken, mispredicted }),
                }
            }
            Decoded::Load { op, rd, rs1, offset } => {
                let dep = self.dep(rs1);
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                let raw = self.mem.read(addr, op.width());
                let value = match op {
                    LoadOp::Lb => raw as u8 as i8 as i64 as u64,
                    LoadOp::Lh => raw as u16 as i16 as i64 as u64,
                    LoadOp::Lw => raw as u32 as i32 as i64 as u64,
                    LoadOp::Ld | LoadOp::Lbu | LoadOp::Lhu | LoadOp::Lwu => raw,
                };
                self.set_reg(rd, value);
                Instr { op: Op::Load, deps: [dep, None], addr: Some(addr), branch: None }
            }
            Decoded::Store { op, rs1, rs2, offset } => {
                let deps = [self.dep(rs1), self.dep(rs2)];
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                self.mem.store(addr, op.width(), self.reg(rs2))?;
                Instr { op: Op::Store, deps, addr: Some(addr), branch: None }
            }
            Decoded::AluImm { op, rd, rs1, imm, word } => {
                let dep = self.dep(rs1);
                let value = alu(op, self.reg(rs1), imm as u64, word);
                self.set_reg(rd, value);
                Instr { op: Op::IntAlu, deps: [dep, None], addr: None, branch: None }
            }
            Decoded::Alu { op, rd, rs1, rs2, word } => {
                let deps = [self.dep(rs1), self.dep(rs2)];
                let value = alu(op, self.reg(rs1), self.reg(rs2), word);
                self.set_reg(rd, value);
                Instr { op: Op::IntAlu, deps, addr: None, branch: None }
            }
            Decoded::MulDiv { op, rd, rs1, rs2, word } => {
                let deps = [self.dep(rs1), self.dep(rs2)];
                let value = muldiv(op, self.reg(rs1), self.reg(rs2), word);
                self.set_reg(rd, value);
                Instr { op: Op::IntMul, deps, addr: None, branch: None }
            }
            Decoded::Fence => Instr::nop(),
            Decoded::Ecall => {
                let nr = self.reg(17); // a7
                if nr == 93 || nr == 94 {
                    // exit / exit_group
                    self.exit_code = Some(self.reg(10));
                    self.retired += 1;
                    self.unflushed += 1;
                    return Ok(None);
                }
                return Err(IngestError::UnsupportedSyscall(nr));
            }
            Decoded::Ebreak => {
                return Err(IngestError::UnsupportedInstruction { pc, word });
            }
        };
        self.pc = next_pc;
        self.retired += 1;
        self.unflushed += 1;
        if self.unflushed >= METRIC_BATCH {
            self.flush_metrics();
        }
        Ok(Some(instr))
    }
}

impl Iterator for Executor {
    type Item = Result<Instr, IngestError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.step() {
            Ok(Some(instr)) => Some(Ok(instr)),
            Ok(None) => {
                self.done = true;
                self.flush_metrics();
                None
            }
            Err(e) => {
                self.done = true;
                self.flush_metrics();
                Some(Err(e))
            }
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.flush_metrics();
    }
}

fn alu(op: AluOp, a: u64, b: u64, word: bool) -> u64 {
    if word {
        let (a32, b32) = (a as u32, b as u32);
        let v = match op {
            AluOp::Add => a32.wrapping_add(b32),
            AluOp::Sub => a32.wrapping_sub(b32),
            AluOp::Sll => a32.wrapping_shl(b32 & 0x1f),
            AluOp::Srl => a32.wrapping_shr(b32 & 0x1f),
            AluOp::Sra => (a32 as i32).wrapping_shr(b32 & 0x1f) as u32,
            // No word forms exist for the rest; unreachable by decode.
            _ => a32,
        };
        v as i32 as i64 as u64
    } else {
        match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a.wrapping_shl((b & 0x3f) as u32),
            AluOp::Slt => ((a as i64) < (b as i64)) as u64,
            AluOp::Sltu => (a < b) as u64,
            AluOp::Xor => a ^ b,
            AluOp::Srl => a.wrapping_shr((b & 0x3f) as u32),
            AluOp::Sra => (a as i64).wrapping_shr((b & 0x3f) as u32) as u64,
            AluOp::Or => a | b,
            AluOp::And => a & b,
        }
    }
}

fn muldiv(op: MulOp, a: u64, b: u64, word: bool) -> u64 {
    if word {
        let (a32, b32) = (a as u32, b as u32);
        let v: u32 = match op {
            MulOp::Mul => a32.wrapping_mul(b32),
            MulOp::Div => {
                if b32 == 0 {
                    u32::MAX
                } else {
                    (a32 as i32).wrapping_div(b32 as i32) as u32
                }
            }
            MulOp::Divu => a32.checked_div(b32).unwrap_or(u32::MAX),
            MulOp::Rem => {
                if b32 == 0 {
                    a32
                } else {
                    (a32 as i32).wrapping_rem(b32 as i32) as u32
                }
            }
            MulOp::Remu => {
                if b32 == 0 {
                    a32
                } else {
                    a32 % b32
                }
            }
            // mulh* have no word forms; unreachable by decode.
            _ => 0,
        };
        v as i32 as i64 as u64
    } else {
        match op {
            MulOp::Mul => a.wrapping_mul(b),
            MulOp::Mulh => (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64,
            MulOp::Mulhsu => (((a as i64 as i128) * (b as i128)) >> 64) as u64,
            MulOp::Mulhu => (((a as u128) * (b as u128)) >> 64) as u64,
            MulOp::Div => {
                if b == 0 {
                    u64::MAX
                } else {
                    (a as i64).wrapping_div(b as i64) as u64
                }
            }
            MulOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            MulOp::Rem => {
                if b == 0 {
                    a
                } else {
                    (a as i64).wrapping_rem(b as i64) as u64
                }
            }
            MulOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elf::Segment;
    use crate::rv64::{enc_b, enc_i, enc_r, enc_s};

    /// Wraps raw instruction words in a loadable image at 0x1_0000.
    fn image(words: &[u32]) -> ElfImage {
        let mut data = Vec::new();
        for w in words {
            data.extend_from_slice(&w.to_le_bytes());
        }
        let memsz = data.len() as u64;
        ElfImage { entry: 0x1_0000, segments: vec![Segment { vaddr: 0x1_0000, data, memsz }] }
    }

    fn exit_words(code: i32) -> Vec<u32> {
        vec![
            enc_i(0x13, 10, 0, 0, code), // addi a0, x0, code
            enc_i(0x13, 17, 0, 0, 93),   // addi a7, x0, 93 (exit)
            0x0000_0073,                 // ecall
        ]
    }

    #[test]
    fn stores_to_ever_new_pages_hit_the_memory_limit() {
        // lui t0, 0x10000; lui t1, 0x1; loop: sd t1, 0(t0); add t0, t0, t1;
        // beq x0, x0, loop — one fresh page per iteration, forever.
        let words = [
            crate::rv64::enc_u(0x37, 5, 0x1000_0000),
            crate::rv64::enc_u(0x37, 6, 0x1000),
            enc_s(0x23, 3, 5, 6, 0),
            enc_r(0x33, 5, 0, 5, 6, 0),
            enc_b(0x63, 0, 0, 0, -8),
        ];
        let mut exec = Executor::with_config(&image(&words), ExecConfig { max_instrs: 1_000_000 });
        let err = exec.by_ref().find_map(Result::err).expect("the loop never exits");
        assert!(matches!(err, IngestError::MemoryLimit { pages: MAX_PAGES }), "{err}");
        assert!(err.to_string().contains("at most 16384 pages (64 MiB)"), "{err}");
        assert_eq!(exec.mem.pages.len(), MAX_PAGES);
        assert!(exec.retired() < 4 * MAX_PAGES as u64, "stopped at the cap, not the budget");
    }

    #[test]
    fn fixtures_stay_far_below_the_memory_limit() {
        for name in ["loop_sum", "stride_c"] {
            let path = format!("{}/tests/fixtures/{name}.elf", env!("CARGO_MANIFEST_DIR"));
            let bytes = std::fs::read(&path).expect("fixture exists");
            let mut exec = Executor::new(&ElfImage::parse(&bytes).expect("fixture parses"));
            for event in exec.by_ref() {
                event.expect("fixture runs to exit");
            }
            assert!(exec.mem.pages.len() * 100 < MAX_PAGES, "{name}");
        }
    }

    #[test]
    fn runs_to_exit_and_reports_the_code() {
        let mut exec = Executor::new(&image(&exit_words(7)));
        let events: Vec<_> = exec.by_ref().collect::<Result<_, _>>().unwrap();
        assert_eq!(events.len(), 2); // the ecall itself is not an event
        assert!(events.iter().all(|i| i.op == Op::IntAlu));
        assert_eq!(exec.exit_code(), Some(7));
        assert_eq!(exec.retired(), 3);
    }

    #[test]
    fn dependency_distances_point_at_the_real_producer() {
        // addi t0, x0, 1; addi t1, x0, 2; add t2, t0, t1; exit
        let mut words =
            vec![enc_i(0x13, 5, 0, 0, 1), enc_i(0x13, 6, 0, 0, 2), enc_r(0x33, 7, 0, 5, 6, 0)];
        words.extend(exit_words(0));
        let events: Vec<_> = Executor::new(&image(&words)).collect::<Result<_, _>>().unwrap();
        // The `add` is event index 2: t0 written at 0 (distance 2), t1
        // at 1 (distance 1).
        assert_eq!(events[2].deps, [Some(2), Some(1)]);
        // x0 sources never produce dependencies.
        assert_eq!(events[0].deps, [None, None]);
    }

    #[test]
    fn loads_and_stores_carry_addresses_and_round_trip_values() {
        // lui t0, 0x20000; addi t1, x0, -123; sd t1, 8(t0); ld t2, 8(t0);
        // sub t3, t2, t1 (must be 0); beq t3, x0, +8; ecall(bad);
        // exit(0)
        let mut words = vec![
            crate::rv64::enc_u(0x37, 5, 0x2_0000),
            enc_i(0x13, 6, 0, 0, -123),
            enc_s(0x23, 3, 5, 6, 8),
            enc_i(0x03, 28, 3, 5, 8),
            enc_r(0x33, 29, 0, 28, 6, 0x20),
            enc_b(0x63, 0, 29, 0, 8),
            0x0000_0073, // skipped when the branch is taken
        ];
        words.extend(exit_words(0));
        let mut exec = Executor::new(&image(&words));
        let events: Vec<_> = exec.by_ref().collect::<Result<_, _>>().unwrap();
        assert_eq!(exec.exit_code(), Some(0), "subtraction mismatch: value did not round-trip");
        let store = &events[2];
        assert_eq!(store.op, Op::Store);
        assert_eq!(store.addr, Some(0x2_0008));
        let load = &events[3];
        assert_eq!(load.op, Op::Load);
        assert_eq!(load.addr, Some(0x2_0008));
        let branch = &events[5];
        assert_eq!(branch.op, Op::Branch);
        assert!(branch.branch.unwrap().taken);
    }

    #[test]
    fn compressed_loops_execute() {
        // Mixed 16/32-bit stream: c.li a0, 0; c.addi a0, 1 x2; exit(a0)
        // c.li a0,0 = 0x4501; c.addi a0,1 = 0x0505
        let mut data: Vec<u8> = Vec::new();
        for half in [0x4501u16, 0x0505, 0x0505] {
            data.extend_from_slice(&half.to_le_bytes());
        }
        for w in [enc_i(0x13, 17, 0, 0, 93), 0x0000_0073] {
            data.extend_from_slice(&w.to_le_bytes());
        }
        let memsz = data.len() as u64;
        let image =
            ElfImage { entry: 0x1_0000, segments: vec![Segment { vaddr: 0x1_0000, data, memsz }] };
        let mut exec = Executor::new(&image);
        let n = exec.by_ref().collect::<Result<Vec<_>, _>>().unwrap().len();
        assert_eq!(n, 4);
        assert_eq!(exec.exit_code(), Some(2));
    }

    #[test]
    fn faults_surface_as_named_errors() {
        // Jump into zeroed memory: the all-zero parcel is illegal.
        let events: Vec<_> = Executor::new(&image(&[0x0000_006f + (8 << 21)])) // jal x0, +8...
            .collect();
        // Last (only) event is an error.
        assert!(matches!(events.last().unwrap(), Err(IngestError::UnsupportedInstruction { .. })));

        // Unknown syscall.
        let words = vec![enc_i(0x13, 17, 0, 0, 64), 0x0000_0073]; // write()
        let events: Vec<_> = Executor::new(&image(&words)).collect();
        assert!(matches!(events.last().unwrap(), Err(IngestError::UnsupportedSyscall(64))));

        // Instruction budget: an infinite loop (jal x0, 0).
        let cfg = ExecConfig { max_instrs: 100 };
        let events: Vec<_> =
            Executor::with_config(&image(&[crate::rv64::enc_j(0x6f, 0, 0)]), cfg).collect();
        assert_eq!(events.len(), 101);
        assert!(matches!(events.last().unwrap(), Err(IngestError::InstructionLimit(100))));
    }

    #[test]
    fn determinism_same_image_same_stream() {
        let mut words = vec![
            enc_i(0x13, 5, 0, 0, 0),  // t0 = 0
            enc_i(0x13, 6, 0, 0, 50), // t1 = 50
            enc_i(0x13, 5, 0, 5, 1),  // loop: t0 += 1
            enc_b(0x63, 1, 5, 6, -4), // bne t0, t1, loop
        ];
        words.extend(exit_words(0));
        let a: Vec<_> = Executor::new(&image(&words)).collect::<Result<_, _>>().unwrap();
        let b: Vec<_> = Executor::new(&image(&words)).collect::<Result<_, _>>().unwrap();
        assert_eq!(a, b);
        assert!(a.iter().filter(|i| i.op == Op::Branch).count() == 50);
    }
}
