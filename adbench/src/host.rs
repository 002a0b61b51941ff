//! Host fingerprint stamped on every result: core count, active SIMD
//! backend, cache sizes and build profile. Cache sizes come from CPUID,
//! so the fingerprint reads nothing outside the process.

use std::fmt::Write as _;

/// The fingerprint as one JSON object.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (l2, l3) = cache_sizes();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"nproc\":{nproc},\"simd_backend\":\"{}\",\"l2_bytes\":{},\"l3_bytes\":{},\"profile\":\"{}\"}}",
        kd_bonsai::kdtree::simd::active_backend(),
        opt_num(l2),
        opt_num(l3),
        build_profile(),
    );
    s
}

fn opt_num(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |b| b.to_string())
}

/// The build profile this binary was compiled with.
fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release+thin-lto"
    }
}

/// Per-core L2 and shared L3 sizes in bytes, from CPUID leaf 4
/// (deterministic cache parameters); `None` where unavailable.
#[cfg(target_arch = "x86_64")]
fn cache_sizes() -> (Option<u64>, Option<u64>) {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    if __cpuid(0).eax < 4 {
        return (None, None);
    }
    let (mut l2, mut l3) = (None, None);
    for sub in 0..16 {
        let r = __cpuid_count(4, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
        let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(r.ebx & 0xfff) + 1;
        let sets = u64::from(r.ecx) + 1;
        let size = ways * partitions * line * sets;
        // Types 2 (data) and 3 (unified); instruction caches are skipped.
        if kind != 1 {
            match level {
                2 => l2 = Some(size),
                3 => l3 = Some(size),
                _ => {}
            }
        }
    }
    (l2, l3)
}

/// Per-core L2 and shared L3 sizes; unknown off x86-64.
#[cfg(not(target_arch = "x86_64"))]
fn cache_sizes() -> (Option<u64>, Option<u64>) {
    (None, None)
}
