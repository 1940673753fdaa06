//! Host facts carried by every result file, and the rule that no
//! configuration may use more runnable threads than the host has cores.

use crate::json::Json;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// Elements of a "resident" index array: 512 KiB, inside one core's L2.
pub const RESIDENT_ELEMS: usize = 64 * 1024;

/// Assumed sum of last-level caches when `/sys` does not say (64 MiB).
const FALLBACK_LLC_BYTES: u64 = 64 << 20;

/// What the numbers were taken on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores the OS offers this process.
    pub nproc: usize,
    /// The benchmark's team size `T`: `min(nproc, 4)`.
    pub threads: usize,
    /// Sum over the machine of every unified cache of level 2 and up
    /// (each instance once): L2 × cores + L3.
    pub llc_bytes: u64,
    /// Elements of a "stream" index array: at least 4 × `llc_bytes`.
    pub stream_elems: usize,
    /// `rustc -V` of the compiler that built this binary.
    pub rustc: String,
    /// Effective rustflags of the build (`-C target-cpu=native` here).
    pub rustflags: String,
    /// `git rev-parse HEAD`, or `unknown` outside a repository.
    pub commit: String,
}

fn parse_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, mult) = match t.as_bytes().last()? {
        b'K' => (&t[..t.len() - 1], 1u64 << 10),
        b'M' => (&t[..t.len() - 1], 1 << 20),
        b'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// Sums the unified caches of level ≥ 2 under a sysfs `cpu` directory,
/// counting each cache instance (level + the CPUs sharing it) once.
fn llc_bytes_under(cpu_root: &Path) -> Option<u64> {
    let mut seen = BTreeSet::new();
    let mut total = 0u64;
    for cpu in std::fs::read_dir(cpu_root).ok()?.flatten() {
        let name = cpu.file_name();
        let name = name.to_string_lossy();
        if !name.starts_with("cpu") || !name[3..].chars().all(|c| c.is_ascii_digit()) {
            continue;
        }
        let Ok(indexes) = std::fs::read_dir(cpu.path().join("cache")) else {
            continue;
        };
        for index in indexes.flatten() {
            let read = |f: &str| std::fs::read_to_string(index.path().join(f)).ok();
            let (Some(level), Some(ty), Some(size), Some(shared)) = (
                read("level"),
                read("type"),
                read("size"),
                read("shared_cpu_list"),
            ) else {
                continue;
            };
            let level: u32 = level.trim().parse().unwrap_or(0);
            if level < 2 || ty.trim() != "Unified" {
                continue;
            }
            if seen.insert((level, shared.trim().to_string())) {
                total += parse_size(&size)?;
            }
        }
    }
    (total > 0).then_some(total)
}

/// The smallest power-of-two element count whose bytes are at least
/// four times the summed last-level caches.
pub fn stream_elems_for(llc_bytes: u64) -> usize {
    let need = (4 * llc_bytes).div_ceil(8).max(1);
    need.next_power_of_two() as usize
}

impl Host {
    /// Reads the host.
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let llc_bytes =
            llc_bytes_under(Path::new("/sys/devices/system/cpu")).unwrap_or(FALLBACK_LLC_BYTES);
        let commit = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Host {
            nproc,
            threads: nproc.min(4),
            llc_bytes,
            stream_elems: stream_elems_for(llc_bytes),
            rustc: env!("BENCH_RUSTC_VERSION").to_string(),
            rustflags: env!("BENCH_RUSTFLAGS").to_string(),
            commit,
        }
    }

    /// The facts as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("threads", Json::Num(self.threads as f64)),
            ("llc_bytes", Json::Num(self.llc_bytes as f64)),
            ("stream_bytes", Json::Num((self.stream_elems * 8) as f64)),
            ("resident_bytes", Json::Num((RESIDENT_ELEMS * 8) as f64)),
            ("rustc", Json::str(&self.rustc)),
            ("rustflags", Json::str(&self.rustflags)),
            ("commit", Json::str(&self.commit)),
        ])
    }
}

/// The thread counts one workload configures, beside its one closed-loop
/// client thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Service worker threads.
    pub workers: usize,
    /// Threads of each omprt pool.
    pub pool_threads: usize,
}

impl ThreadPlan {
    /// Refuses a plan in which any configured count exceeds the cores:
    /// numbers from an oversubscribed team measure the OS scheduler
    /// (`BENCH_forkjoin.json`'s 4 threads on 2 cores is the cautionary
    /// case; see README.md).
    pub fn check(&self, nproc: usize) -> Result<(), String> {
        for (what, n) in [
            ("workers", self.workers),
            ("pool_threads", self.pool_threads),
        ] {
            if n > nproc {
                return Err(format!(
                    "{what} = {n} exceeds the {nproc} cores of this host"
                ));
            }
        }
        Ok(())
    }

    /// The plan as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("clients", Json::Num(1.0)),
            ("workers", Json::Num(self.workers as f64)),
            ("pool_threads", Json::Num(self.pool_threads as f64)),
        ])
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t`: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
}

/// Restricts the calling thread, and every thread it starts from now
/// on, to the lowest-numbered CPU it is allowed on. Returns that CPU, or
/// `None` where the call is unavailable or refused (the run then goes
/// on unpinned and says so).
///
/// `serve-hot` asks for this: one client and one worker hand a request
/// back and forth, and on two cores the scheduler's choice between
/// keeping them on one core and spreading them over two moved throughput
/// between 25 k and 65 k requests a second within a single run. On one
/// CPU the pair's throughput is the service's CPU cost per request.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut set: affinity::CpuSet = [0; 16];
        let size = std::mem::size_of::<affinity::CpuSet>();
        // SAFETY: `set` is a live, writable buffer of exactly `size`
        // bytes, which is what the call may write; pid 0 names the
        // calling thread.
        if unsafe { affinity::sched_getaffinity(0, size, &mut set) } != 0 {
            return None;
        }
        let cpu = set
            .iter()
            .enumerate()
            .find(|(_, word)| **word != 0)
            .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)?;
        let mut one: affinity::CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of `size` bytes that the call
        // only reads; the CPU it names was in the allowed set above.
        (unsafe { affinity::sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Hands the allocator's free memory back to the OS, so that what one
/// phase freed neither counts towards the peak resident set of the next
/// nor spares it its page faults. A no-op where glibc is not the
/// allocator.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and may be called at
        // any time; it only returns free heap pages to the OS.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_size("54M"), Some(54 << 20));
        assert_eq!(parse_size("123"), Some(123));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn stream_buffers_are_at_least_four_llc() {
        for llc in [1u64, 56 << 20, 59_244_544, 64 << 20, 300 << 20] {
            let elems = stream_elems_for(llc);
            assert!(elems.is_power_of_two());
            assert!((elems * 8) as u64 >= 4 * llc, "{llc}");
            assert!(((elems / 2) * 8) as u64 <= 4 * llc.max(2), "{llc}");
        }
        // The host the first numbers were taken on: 2 × 1.25 MiB + 54 MiB.
        assert_eq!(stream_elems_for(59_244_544), 32 << 20);
    }

    #[test]
    fn sysfs_caches_are_counted_once_per_instance() {
        let root = std::env::temp_dir().join(format!("subsub-bench-sysfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mk = |cpu: &str, idx: &str, level: &str, ty: &str, size: &str, shared: &str| {
            let d = root.join(cpu).join("cache").join(idx);
            std::fs::create_dir_all(&d).unwrap();
            for (f, v) in [
                ("level", level),
                ("type", ty),
                ("size", size),
                ("shared_cpu_list", shared),
            ] {
                std::fs::write(d.join(f), format!("{v}\n")).unwrap();
            }
        };
        for (cpu, own) in [("cpu0", "0"), ("cpu1", "1")] {
            mk(cpu, "index0", "1", "Data", "48K", own);
            mk(cpu, "index2", "2", "Unified", "1280K", own);
            mk(cpu, "index3", "3", "Unified", "55296K", "0-1");
        }
        std::fs::create_dir_all(root.join("cpufreq")).unwrap();
        assert_eq!(
            llc_bytes_under(&root),
            Some(2 * (1280 << 10) + (55296 << 10))
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn oversubscribed_plans_are_refused() {
        let plan = ThreadPlan {
            workers: 1,
            pool_threads: 4,
        };
        assert!(plan.check(4).is_ok());
        let err = plan.check(2).unwrap_err();
        assert!(err.contains("pool_threads = 4"), "{err}");
    }

    #[test]
    fn peak_rss_is_readable_here() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
