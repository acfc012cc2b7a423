//! What the host contributes to a run: a fixed speed probe, steal
//! ticks from `/proc/stat`, the process's peak resident set, the
//! allocator setting that keeps that peak independent of op order, and
//! the one CPU the run keeps to.

use std::hint::black_box;
use std::mem::size_of;
use std::time::Instant;

/// glibc's `mallopt` parameter number of the mmap threshold.
const M_MMAP_THRESHOLD: i32 = -3;

/// glibc's initial mmap threshold, in bytes.
const MMAP_THRESHOLD: i32 = 128 * 1024;

/// A CPU mask as `sched_getaffinity` and `sched_setaffinity` take it:
/// glibc's 1,024-bit `cpu_set_t`.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Keep the process to the highest-numbered CPU it may run on, and
/// return that CPU. Threads started later inherit the mask, so
/// warm-serve's client and daemon share the CPU and a round trip never
/// waits for another vCPU to be woken, which a busy hypervisor may not
/// schedule for a while: pinned, four warm-serve runs read
/// 0.037–0.040 s, unpinned 0.040–0.047 s. The other workloads run one
/// thread and lose nothing.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a live, writable mask of the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed.0[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("sched_getaffinity allowed no CPU")?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live mask of the size passed, which the kernel
    // only reads; pid 0 names the calling thread, which no other
    // thread has been started beside yet.
    if unsafe { sched_setaffinity(0, size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Hold glibc's mmap threshold at its initial 128 KiB. By default glibc
/// raises the threshold whenever a mapped block is freed, so which large
/// blocks land on the heap, and so how high the heap grows, depends on
/// the order the ops ran in: paper-eval's peak resident set read 59–80 MiB
/// across seeds. Held, every large block is mapped on its own and
/// returned when freed, and the peak reads 47–51 MiB.
pub fn hold_mmap_threshold() -> Result<(), String> {
    // SAFETY: `mallopt` is glibc's, which backs the standard library's
    // allocator on linux-gnu targets. It takes no pointers, and it sets
    // one allocator parameter under the allocator's own lock.
    if unsafe { mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) } == 1 {
        Ok(())
    } else {
        Err("mallopt(M_MMAP_THRESHOLD) was refused".into())
    }
}

/// One pass of the probe: an integer, a float and a memory kernel of
/// fixed size, so its time tracks the host's speed and nothing else.
fn kernel(buf: &mut [u64]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..2_000_000 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    }
    let mut f = 1.0f64;
    for i in 0..1_000_000 {
        f = f.mul_add(1.000_000_1, (i & 7) as f64 * 1e-9).sqrt() + 0.5;
    }
    // Dependent strided walk over a buffer larger than the L2 cache.
    let n = buf.len();
    let mut at = 0usize;
    for step in 0..1_000_000u64 {
        buf[at] = buf[at].wrapping_add(step ^ x);
        at = (at + 4_099 + (buf[at] as usize & 1)) % n;
    }
    black_box(x) ^ black_box(f.to_bits()) ^ black_box(buf[at])
}

/// Median milliseconds of five probe passes.
pub fn calibrate() -> f64 {
    let mut buf = vec![1u64; 1 << 18];
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel(black_box(&mut buf)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`.
pub fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Ticks the hypervisor stole from this guest so far (0 when
/// `/proc/stat` is unreadable).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal(&s))
        .unwrap_or(0)
}

/// The `VmHWM` line of a `/proc/<pid>/status` file, in KiB.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = parse_vmhwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_is_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(20480));
        assert_eq!(parse_vmhwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t many kB\n"), None);
    }

    #[test]
    fn steal_is_the_eighth_counter() {
        let stat = "cpu  10 1 20 300 4 0 5 77 0 0\ncpu0 5 0 10 150 2 0 2 40 0 0\n";
        assert_eq!(parse_steal(stat), Some(77));
        assert_eq!(parse_steal("intr 1 2 3\n"), None);
    }

    #[test]
    fn probe_takes_measurable_time() {
        assert!(calibrate() > 0.0);
    }
}
