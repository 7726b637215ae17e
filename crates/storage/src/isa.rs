//! The one runtime instruction-set detection the host kernels share —
//! [`bitpack`](crate::bitpack)'s decode engines and `crystal_core::selvec`'s
//! compare/compact engines — and the cache-prefetch hint they issue.

/// Instruction-set levels the host kernels specialise for, best first;
/// each kernel matches on the levels it has an engine for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// [`Isa::Avx512`] + BW + VBMI (Ice Lake and later): adds the `vpermb`
    /// byte-window decode.
    #[cfg(target_arch = "x86_64")]
    Avx512Vbmi,
    /// AVX-512 F: 16-lane compare masks, `vpcompressd` row-id emit; decodes
    /// with the AVX2 engine.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2: 8-lane compares + `movemask`, `pshufb` byte-window decode.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Plain loops the compiler may autovectorise (any target).
    Portable,
}

impl Isa {
    /// Every level this target compiles, best first (tests force each
    /// [`supported`](Isa::supported) one, whatever the build profile).
    pub const ALL: &'static [Isa] = &[
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512Vbmi,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512,
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2,
        Isa::Portable,
    ];

    /// Whether the running CPU can execute this level's engines.
    pub fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        use std::arch::is_x86_feature_detected as has;
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512Vbmi => Isa::Avx512.supported() && has!("avx512bw") && has!("avx512vbmi"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => has!("avx512f") && has!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => has!("avx2"),
            Isa::Portable => true,
        }
    }

    /// The best supported level, detected once per process, in every build
    /// profile.
    #[inline]
    pub fn best() -> Isa {
        static BEST: std::sync::OnceLock<Isa> = std::sync::OnceLock::new();
        *BEST.get_or_init(|| {
            let best = Isa::ALL.iter().find(|isa| isa.supported());
            *best.expect("the portable engine is always supported")
        })
    }
}

/// Hints the cache line holding `*p` into every cache level. `p` is never
/// dereferenced and need not point into an allocation; a no-op off x86-64.
#[inline(always)]
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is a hint — it performs no architectural memory
    // access and cannot fault, whatever the address.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Detection is the same in every profile: the debug suite runs the
    /// engines release runs.
    #[test]
    fn best_is_the_first_supported_level() {
        let first = Isa::ALL.iter().find(|isa| isa.supported());
        assert_eq!(Some(&Isa::best()), first);
        assert!(Isa::Portable.supported());
        assert_eq!(*Isa::ALL.last().unwrap(), Isa::Portable);
    }

    #[test]
    fn prefetch_accepts_any_address() {
        prefetch(std::ptr::null::<u8>());
        prefetch(usize::MAX as *const u64);
    }
}
