//! Property tests: the machine is *total* — no guest program and no
//! injected fault may ever panic the host. This is the core soundness
//! property a fault injector depends on: every corruption must land in
//! one of the defined exits (halt, signal, abort, trap, budget), never in
//! UB or a crash of the simulator itself.

use fl_isa::{Gpr, RegisterName};
use fl_machine::{Exit, Machine, MachineConfig, ProgramImage, F80, TEXT_BASE};
use proptest::prelude::*;

/// A hand-assembled program: a counted loop with frame, FPU use and
/// stores to data — enough live state for flips to matter.
fn loop_program() -> ProgramImage {
    use fl_isa::insn::{AluOp, FpuBinOp};
    use fl_isa::{Cond, Insn};
    let data_base = image_from_bytes(vec![0; 4]).data_base();
    let insns = [
        Insn::Enter { frame: 16 }, // 2w @ +0
        Insn::MovI {
            rd: Gpr::Ecx,
            imm: 0,
        }, // 2w @ +8
        // loop: @ +16
        Insn::St {
            rb: Gpr::Ecx,
            base: Gpr::Ebp,
            off: -4,
        }, // 1w
        Insn::Push { rs: Gpr::Ecx }, // 1w
        Insn::Pop { rd: Gpr::Edx },  // 1w
        Insn::Alu {
            op: AluOp::Add,
            rd: Gpr::Eax,
            ra: Gpr::Ecx,
            rb: Gpr::Edx,
        }, // 1w
        Insn::StG {
            rs: Gpr::Eax,
            addr: data_base,
        }, // 2w
        Insn::FildR { rs: Gpr::Eax }, // 1w
        Insn::Fld1,                  // 1w
        Insn::Fbinp { op: FpuBinOp::Add }, // 1w
        Insn::FistpR { rd: Gpr::Esi }, // 1w
        Insn::AddI {
            rd: Gpr::Ecx,
            ra: Gpr::Ecx,
            imm: 1,
        }, // 2w
        Insn::CmpI {
            ra: Gpr::Ecx,
            imm: 4000,
        }, // 2w
        Insn::J {
            cond: Cond::Lt,
            target: TEXT_BASE + 16,
        }, // 2w
        Insn::Leave,                 // 1w
        Insn::Halt,                  // 1w
    ];
    let mut text = Vec::new();
    for i in &insns {
        text.extend(fl_isa::encode(i).to_bytes());
    }
    image_from_bytes(text)
}

/// Build an image whose text is arbitrary bytes.
fn image_from_bytes(text: Vec<u8>) -> ProgramImage {
    ProgramImage {
        text,
        data: vec![0u8; 256],
        bss_size: 256,
        lib_text: fl_isa::encode(&fl_isa::Insn::Ret).to_bytes(),
        lib_data: vec![0u8; 64],
        entry: TEXT_BASE,
        symbols: Vec::new(),
        heap_reserve: 4096,
    }
}

/// SplitMix64, seeded per case: draws the fuzzer's programs and plans.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// One generated loop-body element.
enum Item {
    /// A straight-line instruction (or a fused `Ld`→`Alu` pair).
    Ops(Vec<fl_isa::Insn>),
    /// `Cmp`/`CmpI` + a forward conditional branch over the next item.
    Skip(fl_isa::Insn, fl_isa::Cond),
    /// A direct call to the leaf routine.
    Call,
}

/// A random non-control instruction — every opcode family `exec_op`
/// and `exec_fpu` implement. Destinations are the scratch registers
/// only, so the loop counter (ECX) and the data/bss pointers (ESI/EDI)
/// survive; memory operands are mostly in bounds (data, bss, the stack
/// frame) and occasionally wild.
fn random_op(g: &mut Gen, data_base: u32, bss_base: u32, iters: u32) -> Vec<fl_isa::Insn> {
    use fl_isa::insn::{AluOp, FpuBinOp, FpuUnOp};
    use fl_isa::Insn::*;
    use Gpr::*;
    const ALU: [AluOp; 11] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Mod,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Sar,
    ];
    let scratch = [Eax, Ebx, Edx];
    let src = [Eax, Ebx, Edx, Ecx, Esi, Edi];
    let wild = g.below(64) == 0;
    // A (base, offset) memory operand.
    let mem = |g: &mut Gen| -> (Gpr, i32) {
        if wild {
            // Offsets are 12-bit signed immediates.
            return (g.pick(&src), g.below(4096) as i32 - 2048);
        }
        match g.below(3) {
            0 => (Esi, 4 * g.below(62) as i32),
            1 => (Edi, 4 * g.below(62) as i32),
            _ => (Ebp, -4 * (1 + g.below(15) as i32)),
        }
    };
    let abs = |g: &mut Gen| {
        if wild {
            g.next() as u32
        } else {
            g.pick(&[data_base, bss_base]) + 4 * g.below(62) as u32
        }
    };
    let imm = |g: &mut Gen| {
        let any = g.next() as u32;
        g.pick(&[0, 1, 2, 7, u32::MAX, any])
    };
    match g.below(30) {
        0 => vec![Nop],
        1 => vec![MovI {
            rd: g.pick(&scratch),
            imm: imm(g),
        }],
        2 => vec![Mov {
            rd: g.pick(&scratch),
            rs: g.pick(&src),
        }],
        3..=5 => vec![Alu {
            op: g.pick(&ALU),
            rd: g.pick(&scratch),
            ra: g.pick(&src),
            rb: g.pick(&src),
        }],
        // A divide whose divisor counts down to zero mid-loop, plain or
        // as the ALU half of a fused load + ALU pair.
        6 => {
            let mut ops = vec![AddI {
                rd: Edx,
                ra: Ecx,
                imm: (g.below(iters as u64 + 8) as u32).wrapping_neg(),
            }];
            if g.below(2) == 0 {
                let (base, off) = mem(g);
                ops.push(Ld {
                    rd: g.pick(&[Eax, Ebx]),
                    base,
                    off,
                });
            }
            ops.push(Alu {
                op: g.pick(&[AluOp::Div, AluOp::Mod]),
                rd: g.pick(&[Eax, Ebx]),
                ra: g.pick(&src),
                rb: Edx,
            });
            ops
        }
        7 => vec![AddI {
            rd: g.pick(&scratch),
            ra: g.pick(&src),
            imm: imm(g),
        }],
        8 => vec![MulI {
            rd: g.pick(&scratch),
            ra: g.pick(&src),
            imm: imm(g),
        }],
        9 => vec![Cmp {
            ra: g.pick(&src),
            rb: g.pick(&src),
        }],
        10 => vec![CmpI {
            ra: g.pick(&src),
            imm: imm(g),
        }],
        11 => {
            let (base, off) = mem(g);
            vec![Ld {
                rd: g.pick(&scratch),
                base,
                off,
            }]
        }
        12 => {
            let (base, off) = mem(g);
            vec![St {
                rb: g.pick(&src),
                base,
                off,
            }]
        }
        13 => vec![LdG {
            rd: g.pick(&scratch),
            addr: abs(g),
        }],
        14 => vec![StG {
            rs: g.pick(&src),
            addr: abs(g),
        }],
        15 => {
            let (base, off) = mem(g);
            vec![LdB {
                rd: g.pick(&scratch),
                base,
                off: off + g.below(4) as i32,
            }]
        }
        16 => {
            let (base, off) = mem(g);
            vec![StB {
                rb: g.pick(&src),
                base,
                off: off + g.below(4) as i32,
            }]
        }
        // Balanced pairs mostly, so the loop survives to promote.
        17 | 18 => match g.below(8) {
            0 => vec![Push { rs: g.pick(&src) }],
            1 => vec![Pop {
                rd: g.pick(&scratch),
            }],
            _ => vec![
                Push { rs: g.pick(&src) },
                Pop {
                    rd: g.pick(&scratch),
                },
            ],
        },
        19 | 20 => match g.below(8) {
            0 => vec![Leave],
            _ => vec![
                Enter {
                    frame: 4 * g.below(8) as u32,
                },
                Leave,
            ],
        },
        // The fused load + ALU idiom, Ld→Div/Mod included.
        21 | 22 => {
            let (base, off) = mem(g);
            let rd = g.pick(&scratch);
            vec![
                Ld { rd, base, off },
                Alu {
                    op: g.pick(&ALU),
                    rd: g.pick(&scratch),
                    ra: g.pick(&src),
                    rb: g.pick(&src),
                },
            ]
        }
        _ => {
            let (base, off) = mem(g);
            vec![match g.below(17) {
                0 => Fld { base, off },
                1 => FldG { addr: abs(g) },
                2 => Fst { base, off },
                3 => Fstp { base, off },
                4 => FstpG { addr: abs(g) },
                5 => Fild { base, off },
                6 => Fistp { base, off },
                7 => FildR { rs: g.pick(&src) },
                8 => FistpR {
                    rd: g.pick(&scratch),
                },
                9 => Fldz,
                10 => Fld1,
                11 => Fbinp {
                    op: g.pick(&[
                        FpuBinOp::Add,
                        FpuBinOp::Sub,
                        FpuBinOp::SubR,
                        FpuBinOp::Mul,
                        FpuBinOp::Div,
                        FpuBinOp::DivR,
                    ]),
                },
                12 => Funop {
                    op: g.pick(&[
                        FpuUnOp::Chs,
                        FpuUnOp::Abs,
                        FpuUnOp::Sqrt,
                        FpuUnOp::Sin,
                        FpuUnOp::Cos,
                        FpuUnOp::Exp,
                        FpuUnOp::Ln,
                    ]),
                },
                13 => Fxch {
                    i: g.below(8) as u8,
                },
                14 => FldSt {
                    i: g.below(8) as u8,
                },
                15 => Fcomip,
                _ => Fpop,
            }]
        }
    }
}

/// A generated program for the tier fuzzer: a prologue pointing ESI at
/// data and EDI at bss, a hot counted loop (`CmpI`+`J` backward, enough
/// iterations to promote to a superblock) over random body items, and
/// optionally a leaf routine ending in `Ret` that the body calls.
/// Returns the image and the loop body's text range.
fn random_loop_program(g: &mut Gen) -> (ProgramImage, u32, u32) {
    use fl_isa::{Cond, Insn};
    let probe = image_from_bytes(vec![0; 4]);
    let (data_base, bss_base) = (probe.data_base(), probe.bss_base());
    let iters = 20 + g.below(60) as u32;
    let has_leaf = g.below(2) == 0;
    let mut body = Vec::new();
    for _ in 0..2 + g.below(10) {
        body.push(match g.below(8) {
            0 => {
                let cmp = if g.below(2) == 0 {
                    Insn::Cmp {
                        ra: g.pick(&[Gpr::Eax, Gpr::Ebx, Gpr::Ecx]),
                        rb: g.pick(&[Gpr::Eax, Gpr::Edx, Gpr::Ecx]),
                    }
                } else {
                    Insn::CmpI {
                        ra: g.pick(&[Gpr::Eax, Gpr::Ebx, Gpr::Ecx]),
                        imm: g.below(iters as u64) as u32,
                    }
                };
                let cond = g.pick(&[
                    Cond::Eq,
                    Cond::Ne,
                    Cond::Lt,
                    Cond::Le,
                    Cond::Gt,
                    Cond::Ge,
                    Cond::B,
                    Cond::Ae,
                    Cond::Be,
                    Cond::A,
                ]);
                Item::Skip(cmp, cond)
            }
            1 if has_leaf => Item::Call,
            _ => Item::Ops(random_op(g, data_base, bss_base, iters)),
        });
    }
    let leaf: Vec<Insn> = (0..1 + g.below(4))
        .flat_map(|_| random_op(g, data_base, bss_base, iters))
        .collect();

    // Lay out with placeholder targets, then patch: every instruction's
    // length is independent of its target.
    let words = |i: &Insn| fl_isa::encode(i).to_bytes().len() as u32 / 4;
    let mut prog = vec![Insn::Enter { frame: 64 }];
    for (rd, imm) in [
        (Gpr::Esi, data_base),
        (Gpr::Edi, bss_base),
        (Gpr::Ecx, 0),
        (Gpr::Eax, g.next() as u32),
        (Gpr::Ebx, g.pick(&[1, 3, 0x8000_0000])),
        (Gpr::Edx, g.pick(&[1, 5, u32::MAX])),
    ] {
        prog.push(Insn::MovI { rd, imm });
    }
    let loop_head = prog.len();
    prog.push(Insn::AddI {
        rd: Gpr::Ecx,
        ra: Gpr::Ecx,
        imm: 1,
    });
    // (index of a J/Call, index of its target instruction)
    let mut fixups: Vec<(usize, usize)> = Vec::new();
    let mut calls = Vec::new();
    let mut pending_skip: Option<usize> = None;
    for item in &body {
        let start = prog.len();
        match item {
            Item::Ops(ops) => prog.extend(ops.iter().copied()),
            Item::Skip(cmp, cond) => {
                prog.push(*cmp);
                prog.push(Insn::J {
                    cond: *cond,
                    target: 0,
                });
            }
            Item::Call => {
                calls.push(prog.len());
                prog.push(Insn::Call { target: 0 });
            }
        }
        // A skip jumps over the item after it.
        if let Some(j) = pending_skip.take() {
            fixups.push((j, prog.len()));
        }
        if matches!(item, Item::Skip(..)) {
            pending_skip = Some(start + 1);
        }
    }
    if let Some(j) = pending_skip {
        fixups.push((j, prog.len()));
    }
    let body_end = prog.len();
    prog.push(Insn::CmpI {
        ra: Gpr::Ecx,
        imm: iters,
    });
    prog.push(Insn::J {
        cond: Cond::Lt,
        target: 0,
    });
    fixups.push((prog.len() - 1, loop_head));
    prog.push(Insn::Leave);
    prog.push(Insn::Halt);
    let leaf_at = prog.len();
    prog.extend(leaf);
    prog.push(Insn::Ret);
    for c in calls {
        fixups.push((c, leaf_at));
    }

    let mut addr = Vec::with_capacity(prog.len() + 1);
    let mut a = TEXT_BASE;
    for i in &prog {
        addr.push(a);
        a += 4 * words(i);
    }
    addr.push(a);
    for (at, to) in fixups {
        match &mut prog[at] {
            Insn::J { target, .. } | Insn::Call { target } => *target = addr[to],
            other => unreachable!("fixup on {other:?}"),
        }
    }
    let mut text = Vec::new();
    for i in &prog {
        text.extend(fl_isa::encode(i).to_bytes());
    }
    (image_from_bytes(text), addr[loop_head], addr[body_end])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes as text: the machine must terminate with a defined
    /// exit, never panic.
    #[test]
    fn random_text_never_panics(bytes in proptest::collection::vec(any::<u8>(), 16..512)) {
        let img = image_from_bytes(bytes);
        let mut m = Machine::load(&img, MachineConfig { budget: 20_000, ..Default::default() });
        let exit = m.run(u64::MAX);
        prop_assert!(!matches!(exit, Exit::Quantum));
    }

    /// Random valid instructions (re-encoded from random words when they
    /// decode) still terminate within budget.
    #[test]
    fn random_decodable_text_never_panics(words in proptest::collection::vec(any::<u32>(), 8..128)) {
        let mut text = Vec::new();
        for w in &words {
            if let Ok((insn, _)) = fl_isa::decode(&[*w, 0]) {
                text.extend(fl_isa::encode(&insn).to_bytes());
            }
        }
        if text.is_empty() {
            return Ok(());
        }
        let img = image_from_bytes(text);
        let mut m = Machine::load(&img, MachineConfig { budget: 50_000, ..Default::default() });
        let _ = m.run(u64::MAX);
    }

    /// Any single register bit flip at any point of a real program leaves
    /// the machine runnable to a defined exit.
    #[test]
    fn register_flips_never_panic(
        warm in 0u64..500,
        reg_idx in 0usize..10,
        bit in 0u32..32,
    ) {
        let img = loop_program();
        let mut m = Machine::load(&img, MachineConfig { budget: 200_000, ..Default::default() });
        for _ in 0..warm {
            if m.step().is_some() {
                break;
            }
        }
        let regs: Vec<RegisterName> = Gpr::ALL
            .iter()
            .map(|&g| RegisterName::Gpr(g))
            .chain([RegisterName::Eip, RegisterName::Eflags])
            .collect();
        m.flip_register_bit(regs[reg_idx], bit);
        let _ = m.run(u64::MAX);
    }

    /// Any single memory bit flip anywhere in the mapped image likewise.
    #[test]
    fn memory_flips_never_panic(
        warm in 0u64..500,
        region_pick in 0u8..4,
        offset in 0u32..4096,
        bit in 0u8..8,
    ) {
        let img = loop_program();
        let mut m = Machine::load(&img, MachineConfig { budget: 200_000, ..Default::default() });
        for _ in 0..warm {
            if m.step().is_some() {
                break;
            }
        }
        let addr = match region_pick {
            0 => TEXT_BASE + offset % (img.text.len() as u32),
            1 => img.data_base() + offset % (img.data.len().max(4) as u32),
            2 => img.bss_base() + offset % img.bss_size.max(4),
            _ => 0xBFFF_0000 + offset % 0xF000, // stack area
        };
        m.flip_mem_bit(addr, bit);
        let _ = m.run(u64::MAX);
    }

    /// The execution-fast-path correctness bar: for a random injection
    /// plan — warm-up length, register flip, memory flip, text poke,
    /// quantum schedule, budget — running with the software TLB + block
    /// dispatch and with them disabled must be bit-identical: same exit
    /// sequence, same counters, same architectural snapshot. A mid-plan
    /// snapshot fork/restore boundary is included, because that is where
    /// stale TLB entries or checked-out blocks would show up (the
    /// restored machine shares pages COW with its origin).
    #[test]
    fn fastpath_is_bit_identical_to_slowpath(
        warm in 0u64..600,
        reg_idx in 0usize..10,
        rbit in 0u32..32,
        region_pick in 0u8..4,
        offset in 0u32..4096,
        mbit in 0u8..8,
        poke_off in 0u32..64,
        poke_byte in any::<u8>(),
        quantum in 3u64..900,
        budget in 20_000u64..150_000,
    ) {
        let img = loop_program();
        let text_len = img.text.len() as u32;
        let drive = |fastpath: bool| {
            let cfg = MachineConfig { budget, fastpath, ..Default::default() };
            let mut m = Machine::load(&img, cfg);
            let mut exits = Vec::new();
            // Warm up in fixed quanta so block boundaries land mid-plan.
            while m.counters.insns < warm {
                let e = m.run(quantum);
                if e != Exit::Quantum {
                    exits.push(e);
                    break;
                }
            }
            // The injection plan: one register flip, one memory flip,
            // one multi-byte text poke (exercises the copy-on-poke
            // re-decode and the TLB's poke contract).
            let regs: Vec<RegisterName> = Gpr::ALL
                .iter()
                .map(|&g| RegisterName::Gpr(g))
                .chain([RegisterName::Eip, RegisterName::Eflags])
                .collect();
            m.flip_register_bit(regs[reg_idx], rbit);
            let addr = match region_pick {
                0 => TEXT_BASE + offset % text_len,
                1 => img.data_base() + offset % (img.data.len().max(4) as u32),
                2 => img.bss_base() + offset % img.bss_size.max(4),
                _ => 0xBFFF_0000 + offset % 0xF000,
            };
            m.flip_mem_bit(addr, mbit);
            m.poke_mem(TEXT_BASE + (poke_off * 4) % text_len, &[poke_byte; 4]);
            // Fork/restore boundary: continue the origin AND a machine
            // restored from its snapshot; both must finish identically.
            let snap = m.snapshot();
            let mut restored = snap.to_machine();
            for mach in [&mut m, &mut restored] {
                loop {
                    let e = mach.run(quantum);
                    if e != Exit::Quantum {
                        exits.push(e);
                        break;
                    }
                }
            }
            (exits, m.snapshot(), restored.snapshot())
        };
        let (fast_exits, fast_end, fast_restored) = drive(true);
        let (slow_exits, slow_end, slow_restored) = drive(false);
        prop_assert_eq!(fast_exits, slow_exits);
        prop_assert_eq!(&fast_end, &slow_end);
        prop_assert_eq!(&fast_restored, &slow_restored);
        // And the fork itself must be invisible: the restored run ends
        // exactly where its origin does.
        prop_assert_eq!(&fast_end, &fast_restored);
    }

    /// Poke text *inside* a promoted, actively-running superblock: the
    /// bank must demote to a private store (copy-on-poke) and keep
    /// retiring bit-identically with a slow twin, fork/restore included.
    #[test]
    fn poke_inside_hot_trace_matches_slow(
        warm_iters in 20u64..120,
        poke_word in 0u32..16,
        poke_byte in any::<u8>(),
        quantum in 7u64..900,
    ) {
        let img = loop_program();
        let body = TEXT_BASE + 16; // loop body: 16 words from here
        let drive = |fastpath: bool| {
            let cfg = MachineConfig { budget: 150_000, fastpath, ..Default::default() };
            let mut m = Machine::load(&img, cfg);
            let mut exits = Vec::new();
            // ~16 insns per iteration: past the promotion threshold the
            // loop runs as a superblock (on the fast side).
            let warm = warm_iters * 16;
            while m.counters.insns < warm {
                let e = m.run(quantum);
                if e != Exit::Quantum {
                    exits.push(e);
                    break;
                }
            }
            m.poke_mem(body + 4 * poke_word, &[poke_byte; 4]);
            let snap = m.snapshot();
            let mut restored = snap.to_machine();
            for mach in [&mut m, &mut restored] {
                loop {
                    let e = mach.run(quantum);
                    if e != Exit::Quantum {
                        exits.push(e);
                        break;
                    }
                }
            }
            (exits, m.snapshot(), restored.snapshot(), m.exec_stats)
        };
        let (fast_exits, fast_end, fast_restored, stats) = drive(true);
        let (slow_exits, slow_end, slow_restored, _) = drive(false);
        prop_assert_eq!(fast_exits, slow_exits);
        prop_assert_eq!(&fast_end, &slow_end);
        prop_assert_eq!(&fast_restored, &slow_restored);
        // The poke hit a pristine shared bank, so it must have demoted.
        prop_assert!(stats.demotions >= 1, "text poke must demote the shared bank");
    }

    /// A machine attached to a store another machine already warmed
    /// (superblocks promoted), a cold machine that pre-decodes its own
    /// fresh store, and the slow interpreter must agree exactly: same
    /// exits, same architectural snapshot, same counters.
    #[test]
    fn warm_shared_store_matches_cold_and_slow(
        quantum in 3u64..900,
        budget in 30_000u64..150_000,
    ) {
        let img = loop_program();
        let code = img.pre_decode();
        let cfg = |fastpath| MachineConfig { budget, fastpath, ..Default::default() };
        let run_to_end = |m: &mut Machine| {
            loop {
                let e = m.run(quantum);
                if e != Exit::Quantum {
                    return e;
                }
            }
        };
        // Warm the store: one full run promotes the hot loop.
        let mut warmer = Machine::load_shared(&img, cfg(true), Some(&code));
        let exit_warming = run_to_end(&mut warmer);
        let mut warm = Machine::load_shared(&img, cfg(true), Some(&code));
        let exit_warm = run_to_end(&mut warm);
        let mut cold = Machine::load(&img, cfg(true));
        let exit_cold = run_to_end(&mut cold);
        let mut slow = Machine::load(&img, cfg(false));
        let exit_slow = run_to_end(&mut slow);
        prop_assert_eq!(exit_warming, exit_warm);
        prop_assert_eq!(exit_warm, exit_cold);
        prop_assert_eq!(exit_cold, exit_slow);
        prop_assert_eq!(warm.snapshot(), cold.snapshot());
        prop_assert_eq!(cold.snapshot(), slow.snapshot());
        prop_assert_eq!(warm.counters.insns, slow.counters.insns);
        prop_assert_eq!(warm.counters.blocks, slow.counters.blocks);
        // The warm machine really did enter promoted superblocks — when
        // the quantum leaves room for a whole pass at all (a pass is only
        // admitted when it fits under the quantum headroom).
        if quantum >= 64 {
            prop_assert!(warm.exec_stats.trace_hits > 0, "warm store must serve traces");
        }
    }

    /// F80 conversion total and idempotent through f64.
    #[test]
    fn f80_total(bits in any::<u64>(), se in any::<u16>(), flip in 0u32..80) {
        let f = F80::from_bits(bits, se);
        let v1 = f.to_f64();
        let f2 = F80::from_f64(v1);
        let v2 = f2.to_f64();
        // Conversion through f64 must be stable after one normalisation.
        prop_assert!(v1.is_nan() && v2.is_nan() || v1.to_bits() == v2.to_bits());
        let _ = f.flip_bit(flip).to_f64();
        let _ = f.classify();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The differential tier fuzzer: a generated hot-loop program (see
    /// `random_loop_program`) run on the fast path — blocks, then
    /// promoted superblocks — and on the reference interpreter under
    /// one random quantum schedule must agree on the exit and the full
    /// architectural snapshot after *every* `run(quantum)`. At random
    /// instruction counts both take a register flip and two one-byte
    /// text pokes into the loop body (the second re-decodes a bank the
    /// first already made private), and a snapshot fork whose origin and
    /// restored machines both continue — in step with each other, too.
    #[test]
    fn tiers_agree_with_the_interpreter_on_generated_loops(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let (img, body_lo, body_hi) = random_loop_program(&mut g);
        let quanta: Vec<u64> = (0..1 + g.below(6))
            .map(|_| match g.below(2) {
                0 => 1 + g.below(64),
                _ => 64 + g.below(1500),
            })
            .collect();
        let regs: Vec<RegisterName> = Gpr::ALL
            .iter()
            .map(|&r| RegisterName::Gpr(r))
            .chain([RegisterName::Eip, RegisterName::Eflags])
            .collect();
        let (reg, bit) = (g.pick(&regs), g.below(32) as u32);
        let mut poke = || (body_lo + g.below((body_hi - body_lo) as u64) as u32, g.next() as u8);
        let pokes = [poke(), poke()];
        // (instruction count, event): 0 = flip, 1/2 = pokes, 3 = fork.
        // Most generated loops retire a few hundred instructions.
        let poke1_at = g.below(600);
        let mut plan = [
            (g.below(800), 0),
            (poke1_at, 1),
            (poke1_at + 1 + g.below(500), 2),
            (g.below(800), 3),
        ];
        plan.sort();
        let cfg = |fastpath| MachineConfig { budget: 20_000, fastpath, ..Default::default() };
        // (fast, slow, exited) per lineage: the origin, then the fork.
        let mut lines = vec![(Machine::load(&img, cfg(true)), Machine::load(&img, cfg(false)), false)];
        let mut next = 0;
        for run in 0.. {
            // Lineages run in step, so any live one tells the clock.
            let Some(now) = lines.iter().find(|l| !l.2).map(|l| l.0.counters.insns) else {
                break;
            };
            while let Some(&(_, event)) = plan.get(next).filter(|(at, _)| *at <= now) {
                next += 1;
                if event == 3 {
                    if !lines[0].2 {
                        let fork = (lines[0].0.snapshot().to_machine(), lines[0].1.snapshot().to_machine(), false);
                        lines.push(fork);
                    }
                    continue;
                }
                for (fast, slow, _) in lines.iter_mut().filter(|l| !l.2) {
                    for m in [fast, slow] {
                        match event {
                            0 => m.flip_register_bit(reg, bit),
                            _ => m.poke_mem(pokes[event - 1].0, &[pokes[event - 1].1]),
                        }
                    }
                }
            }
            let mut q = quanta[run % quanta.len()];
            if let Some(&(at, _)) = plan.get(next) {
                q = q.min(at - now);
            }
            for (fast, slow, done) in lines.iter_mut().filter(|l| !l.2) {
                let (ef, es) = (fast.run(q), slow.run(q));
                prop_assert_eq!(&ef, &es, "exit after run #{}", run);
                prop_assert_eq!(fast.snapshot(), slow.snapshot(), "state after run #{}", run);
                *done = ef != Exit::Quantum;
            }
            if let [(origin, ..), (fork, ..)] = &lines[..] {
                prop_assert_eq!(origin.snapshot(), fork.snapshot(), "fork diverged after run #{}", run);
            }
        }
    }
}
