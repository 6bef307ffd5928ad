//! Stable fingerprints for trace keys.
//!
//! Trace entries recorded on one machine must resolve on another, so the
//! keys use FNV-1a-64 over an explicit byte encoding — never
//! [`std::collections::hash_map::DefaultHasher`], whose output is
//! unspecified across releases. (The GA's in-process fitness cache keeps
//! its own `DefaultHasher`-based identity for seed derivation; that one
//! never leaves the process.)

use emvolt_isa::{Isa, Kernel, RegClass};
use emvolt_platform::RunConfig;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 streaming hasher.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

fn isa_tag(isa: Isa) -> &'static [u8] {
    match isa {
        Isa::ArmV8 => b"armv8",
        Isa::X86_64 => b"x86_64",
    }
}

fn reg_tag(class: RegClass) -> u8 {
    match class {
        RegClass::Gpr => b'g',
        RegClass::Fpr => b'f',
    }
}

/// Content fingerprint of a kernel: ISA, then per instruction the op
/// *name* (stable across op-table reorderings), destination and source
/// registers, and memory slot.
pub fn kernel_fingerprint(kernel: &Kernel) -> u64 {
    let arch = kernel.arch();
    let mut h = Fnv::new();
    h.write(isa_tag(arch.isa()));
    for instr in kernel.body() {
        h.write(arch.op(instr.op).name.as_bytes());
        h.write(&[
            reg_tag(instr.dst.class),
            instr.dst.index,
            reg_tag(instr.srcs[0].class),
            instr.srcs[0].index,
            reg_tag(instr.srcs[1].class),
            instr.srcs[1].index,
        ]);
        h.write(&instr.mem_slot.to_le_bytes());
    }
    h.finish()
}

/// Fingerprint of the physics fidelity a campaign pinned. Folded into
/// every trace key so a recording cannot silently replay against a
/// different solver configuration.
///
/// Hashes only the explicit fidelity fields — host-descriptive metadata
/// like [`RunConfig::simd`] is deliberately excluded, because results
/// are bit-identical across SIMD dispatch levels and a recording must
/// replay on a host with a different vector width.
pub fn run_config_fingerprint(config: &RunConfig) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(config.pdn_dt.to_bits());
    h.write_u64(config.pdn_window.to_bits());
    h.write_u64(config.pdn_warmup.to_bits());
    h.write(config.kernel.as_str().as_bytes());
    // The in-band spectral path was once selectable; its default's name
    // stays in the hash so keys written before the selector went keep
    // matching.
    h.write(b"auto");
    let sim = &config.sim;
    h.write(format!("{sim:?}").as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use emvolt_isa::kernels::padded_sweep_kernel;

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = padded_sweep_kernel(Isa::ArmV8, 17);
        let b = padded_sweep_kernel(Isa::ArmV8, 17);
        let c = padded_sweep_kernel(Isa::ArmV8, 18);
        assert_eq!(kernel_fingerprint(&a), kernel_fingerprint(&b));
        assert_ne!(kernel_fingerprint(&a), kernel_fingerprint(&c));
    }

    #[test]
    fn fingerprint_distinguishes_isa() {
        let arm = padded_sweep_kernel(Isa::ArmV8, 9);
        let x86 = padded_sweep_kernel(Isa::X86_64, 9);
        assert_ne!(kernel_fingerprint(&arm), kernel_fingerprint(&x86));
    }

    #[test]
    fn run_config_fingerprint_tracks_fidelity() {
        let fast = RunConfig::fast();
        let default = RunConfig::default();
        assert_eq!(
            run_config_fingerprint(&fast),
            run_config_fingerprint(&RunConfig::fast())
        );
        assert_ne!(
            run_config_fingerprint(&fast),
            run_config_fingerprint(&default)
        );
    }

    /// Trace keys and checkpoint fingerprints must not move when the
    /// configuration's fields do: these values were written by builds that
    /// still carried a spectral-path selector, and their recordings must
    /// keep replaying. The solver kernel stays part of the pinned fidelity.
    #[test]
    fn run_config_fingerprint_is_pinned() {
        let mut lu = RunConfig::fast();
        lu.kernel = emvolt_platform::KernelChoice::Lu;
        assert_eq!(
            run_config_fingerprint(&RunConfig::fast()),
            0xa693_3b63_b241_4c3a
        );
        assert_eq!(
            run_config_fingerprint(&RunConfig::default()),
            0xeafd_a944_38a9_83f1
        );
        assert_eq!(run_config_fingerprint(&lu), 0x93b3_4eff_d54d_a1fa);
    }

    /// The SIMD level a config was built on is descriptive metadata, not
    /// pinned fidelity: recordings replay bit-identically on hosts with a
    /// different vector width, so the field must not enter the key.
    #[test]
    fn run_config_fingerprint_ignores_simd_metadata() {
        let base = RunConfig::fast();
        let mut other = RunConfig::fast();
        other.simd = "some-other-isa-level";
        assert_ne!(base.simd, other.simd);
        assert_eq!(
            run_config_fingerprint(&base),
            run_config_fingerprint(&other)
        );
    }

    #[test]
    fn fnv_vector() {
        // Published FNV-1a-64 test vector.
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
