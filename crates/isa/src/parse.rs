//! Assembly-text parsing: the inverse of [`Kernel::render`].
//!
//! Lets users bring hand-written loop bodies (or kernels saved as text)
//! into the framework. The accepted grammar is exactly what
//! [`Kernel::render`] emits: a `.loop:` label, one instruction per line
//! in the target ISA's syntax, and a closing back-branch.

use crate::arch::{Architecture, Isa, OpClass};
use crate::instr::{Instr, Kernel, Reg, RegClass};
use std::fmt;
use std::sync::Arc;

/// Error while parsing kernel assembly.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, reason: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        reason: reason.into(),
    })
}

const X86_GPR_NAMES: [&str; 12] = [
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11", "r12", "r13",
];

fn parse_reg(arch: &Architecture, token: &str, line: usize) -> Result<Reg, ParseError> {
    let t = token.trim().trim_end_matches(',');
    let index = |prefix: &str| t.strip_prefix(prefix).and_then(|n| n.parse::<u8>().ok());
    let (reg, family) = match arch.isa() {
        Isa::ArmV8 => (
            index("x")
                .map(Reg::gpr)
                .or_else(|| index("v").map(Reg::fpr)),
            "ARM",
        ),
        Isa::X86_64 => (
            X86_GPR_NAMES
                .iter()
                .position(|&n| n == t)
                .map(|i| Reg::gpr(i as u8))
                .or_else(|| index("xmm").map(Reg::fpr)),
            "x86",
        ),
    };
    let reg = reg.ok_or_else(|| ParseError {
        line,
        reason: format!("unknown {family} register `{t}`"),
    })?;
    arch.check_reg(reg).map_err(|reason| ParseError {
        line,
        reason: format!("`{t}`: {reason}"),
    })
}

/// Parses a memory operand (`[x28, #off]` / `[rbp+off]`) into a slot.
fn parse_mem(isa: Isa, token: &str, line: usize) -> Result<u16, ParseError> {
    let t = token.trim();
    let inner = t
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| ParseError {
            line,
            reason: format!("expected memory operand, got `{t}`"),
        })?;
    let offset: i64 = match isa {
        Isa::ArmV8 => {
            let rest = inner
                .strip_prefix("x28")
                .map(|s| s.trim_start_matches(',').trim())
                .ok_or_else(|| ParseError {
                    line,
                    reason: format!("ARM memory operand must use x28 base, got `{inner}`"),
                })?;
            rest.strip_prefix('#')
                .unwrap_or(rest)
                .parse()
                .map_err(|_| ParseError {
                    line,
                    reason: format!("bad memory offset in `{inner}`"),
                })?
        }
        Isa::X86_64 => {
            let rest = inner.strip_prefix("rbp").ok_or_else(|| ParseError {
                line,
                reason: format!("x86 memory operand must use rbp base, got `{inner}`"),
            })?;
            rest.trim_start_matches('+')
                .parse()
                .map_err(|_| ParseError {
                    line,
                    reason: format!("bad memory offset in `{inner}`"),
                })?
        }
    };
    if offset < 0 || offset % 8 != 0 {
        return err(
            line,
            format!("memory offset {offset} is not an 8-byte slot"),
        );
    }
    Ok((offset / 8) as u16)
}

fn split_operands(rest: &str) -> Vec<String> {
    // Memory operands contain commas; split at top level only.
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for ch in rest.chars() {
        match ch {
            '[' => {
                depth += 1;
                cur.push(ch);
            }
            ']' => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
            }
            ',' if depth == 0 => {
                parts.push(cur.trim().to_owned());
                cur.clear();
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur.trim().to_owned());
    }
    parts
}

/// Parses one instruction line.
fn parse_instr(arch: &Architecture, raw: &str, line: usize) -> Result<Instr, ParseError> {
    let isa = arch.isa();
    let text = raw.trim();
    let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
        Some((m, r)) => (m.trim(), r.trim()),
        None => (text, ""),
    };
    // Dummy branch to the next line.
    if (isa == Isa::ArmV8 && mnemonic == "b" || isa == Isa::X86_64 && mnemonic == "jmp")
        && rest.starts_with(".l")
    {
        let op = arch
            .ops()
            .iter()
            .position(|o| o.class == OpClass::Branch)
            .ok_or_else(|| ParseError {
                line,
                reason: "architecture has no branch op".into(),
            })?;
        return Ok(Instr {
            op: crate::arch::OpIndex(op),
            dst: Reg::gpr(0),
            srcs: [Reg::gpr(0), Reg::gpr(0)],
            mem_slot: 0,
        });
    }
    let operands = split_operands(rest);
    let has_mem = operands.iter().any(|o| o.starts_with('['));

    // Resolve the op: memory forms of x86 integer ops use the `mem`
    // suffix internally (`add rax, [rbp+8]` -> `addmem`).
    let op_idx = if isa == Isa::X86_64 && has_mem {
        let candidate = if mnemonic == "mov" {
            "movmem".to_owned()
        } else {
            format!("{mnemonic}mem")
        };
        arch.op_by_name(&candidate)
            .or_else(|| arch.op_by_name(mnemonic))
    } else {
        arch.op_by_name(mnemonic)
    };
    let op_idx = op_idx.ok_or_else(|| ParseError {
        line,
        reason: format!("unknown mnemonic `{mnemonic}` for {isa}"),
    })?;
    let op = arch.op(op_idx);

    let mut dst = Reg::gpr(0);
    let mut srcs = [Reg::gpr(0), Reg::gpr(0)];
    let mut mem_slot = 0u16;

    match (isa, op.class) {
        (Isa::ArmV8, OpClass::Load) => {
            if operands.len() != 2 {
                return err(line, "ldr expects `dst, [mem]`");
            }
            dst = parse_reg(arch, &operands[0], line)?;
            mem_slot = parse_mem(isa, &operands[1], line)?;
        }
        (Isa::ArmV8, OpClass::Store) => {
            if operands.len() != 2 {
                return err(line, "str expects `src, [mem]`");
            }
            srcs[0] = parse_reg(arch, &operands[0], line)?;
            mem_slot = parse_mem(isa, &operands[1], line)?;
        }
        (Isa::X86_64, OpClass::IntShortMem | OpClass::IntLongMem) => {
            if operands.len() != 2 {
                return err(line, "memory-form op expects `dst, [mem]`");
            }
            dst = parse_reg(arch, &operands[0], line)?;
            mem_slot = parse_mem(isa, &operands[1], line)?;
            if op.src_count >= 1 {
                srcs[0] = dst;
            }
        }
        (Isa::X86_64, _) => {
            // Two-operand form: dst doubles as the first source.
            let mut it = operands.iter();
            if op.has_dst {
                dst = parse_reg(
                    arch,
                    it.next().ok_or_else(|| ParseError {
                        line,
                        reason: "missing destination".into(),
                    })?,
                    line,
                )?;
            }
            if op.src_count == 2 {
                srcs[0] = dst;
                srcs[1] = parse_reg(
                    arch,
                    it.next().ok_or_else(|| ParseError {
                        line,
                        reason: "missing source".into(),
                    })?,
                    line,
                )?;
            } else if op.src_count == 1 {
                srcs[0] = parse_reg(
                    arch,
                    it.next().ok_or_else(|| ParseError {
                        line,
                        reason: "missing source".into(),
                    })?,
                    line,
                )?;
            }
        }
        _ => {
            // Generic ARM form: dst then src_count sources.
            let mut it = operands.iter();
            if op.has_dst {
                dst = parse_reg(
                    arch,
                    it.next().ok_or_else(|| ParseError {
                        line,
                        reason: "missing destination".into(),
                    })?,
                    line,
                )?;
            }
            for (k, slot) in srcs.iter_mut().enumerate().take(op.src_count as usize) {
                *slot = parse_reg(
                    arch,
                    it.next().ok_or_else(|| ParseError {
                        line,
                        reason: format!("missing source operand {k}"),
                    })?,
                    line,
                )?;
            }
        }
    }
    // Destination register file must match the op's class.
    if op.has_dst {
        let want = if op.class.uses_fp_registers()
            || matches!(op.semantics, crate::arch::Semantics::LoadMem if dst.class == RegClass::Fpr)
        {
            RegClass::Fpr
        } else {
            dst.class
        };
        if op.class.uses_fp_registers() && dst.class != want {
            return err(line, format!("`{mnemonic}` needs an FP/SIMD destination"));
        }
    }
    Ok(Instr {
        op: op_idx,
        dst,
        srcs,
        mem_slot,
    })
}

/// Parses the assembly text produced by [`Kernel::render`] back into a
/// [`Kernel`].
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line for unknown
/// mnemonics, malformed operands or registers outside the file.
pub fn parse_kernel(isa: Isa, text: &str) -> Result<Kernel, ParseError> {
    let arch = Arc::new(Architecture::for_isa(isa));
    let mut body = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let t = raw.trim();
        if t.is_empty() || t.ends_with(':') || t.starts_with("//") || t.starts_with('#') {
            continue;
        }
        // The closing back-branch is structural, not part of the body.
        if t == "b .loop" || t == "jmp .loop" {
            continue;
        }
        body.push(parse_instr(&arch, t, line)?);
    }
    Ok(Kernel::new(arch, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::InstructionPool;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn parses_a_hand_written_arm_loop() {
        let text = "\
.loop:
    add x1, x2, x3
    ldr x4, [x28, #24]
    fmul v1, v2, v3
    fsqrt v5, v1
    str x1, [x28, #8]
    b .loop
";
        let k = parse_kernel(Isa::ArmV8, text).unwrap();
        assert_eq!(k.len(), 5);
        assert_eq!(k.arch().op(k.body()[0].op).name, "add");
        assert_eq!(k.body()[1].mem_slot, 3);
        assert_eq!(k.body()[4].srcs[0], Reg::gpr(1));
    }

    #[test]
    fn parses_x86_two_operand_and_memory_forms() {
        let text = "\
.loop:
    add rax, rbx
    add rcx, [rbp+16]
    mulpd xmm3, xmm4
    sqrtsd xmm1, xmm2
    jmp .loop
";
        let k = parse_kernel(Isa::X86_64, text).unwrap();
        assert_eq!(k.len(), 4);
        // Two-operand invariant restored on parse.
        assert_eq!(k.body()[0].srcs[0], k.body()[0].dst);
        assert_eq!(k.arch().op(k.body()[1].op).name, "addmem");
        assert_eq!(k.body()[1].mem_slot, 2);
    }

    #[test]
    fn render_parse_render_is_identity() {
        for isa in [Isa::ArmV8, Isa::X86_64] {
            let pool = InstructionPool::default_for(isa);
            let mut rng = StdRng::seed_from_u64(77);
            for _ in 0..10 {
                let k = pool.random_kernel(40, &mut rng);
                let text = k.render();
                let parsed =
                    parse_kernel(isa, &text).unwrap_or_else(|e| panic!("{isa}: {e}\n{text}"));
                assert_eq!(parsed.render(), text, "{isa} round-trip diverged");
            }
        }
    }

    #[test]
    fn reports_unknown_mnemonics_with_line_numbers() {
        let e = parse_kernel(Isa::ArmV8, ".loop:\n    frobnicate x1, x2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn reports_bad_registers_and_offsets() {
        assert!(parse_kernel(Isa::ArmV8, "add q1, x2, x3\n").is_err());
        // Registers past the end of the file carry the line they are on.
        for (isa, text) in [
            (Isa::ArmV8, "add x1, x2, x3\nadd x12, x1, x2\n"),
            (Isa::ArmV8, "add x1, x2, x3\nadd x200, x1, x2\n"),
            (Isa::ArmV8, "add x1, x2, x3\nfmul v40, v1, v2\n"),
            (Isa::X86_64, "add rax, rbx\nmulpd xmm12, xmm1\n"),
        ] {
            let e = parse_kernel(isa, text).unwrap_err();
            assert_eq!(e.line, 2, "{text}: {e}");
            assert!(e.reason.contains("outside the 12 registers"), "{e}");
        }
        assert!(parse_kernel(Isa::ArmV8, "ldr x1, [x28, #7]\n").is_err());
        assert!(parse_kernel(Isa::X86_64, "add rax, [rsp+8]\n").is_err());
    }

    #[test]
    fn comments_and_labels_are_skipped() {
        let text = "// a comment\n.loop:\n    add x1, x2, x3\n# another\n    b .loop\n";
        let k = parse_kernel(Isa::ArmV8, text).unwrap();
        assert_eq!(k.len(), 1);
    }
}
