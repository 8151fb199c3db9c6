//! The host block printed with every result: the facts a later reader
//! needs before comparing two runs' numbers.

use std::path::Path;

/// The file system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The host block as one JSON object; `wal_dir` is where the WAL
/// workload writes (it must exist).
pub fn host_json(wal_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unset".into());
    format!(
        "{{\"nproc\": {nproc}, \"kernel\": \"{}\", \"wal_fs\": \"{}\", \"rustc\": \"{}\", \
         \"SMARTRED_THREADS\": \"{}\", \"MALLOC_ARENA_MAX\": \"{}\", \"MALLOC_MMAP_THRESHOLD_\": \"{}\"}}",
        escape(&kernel),
        escape(&fs_type(wal_dir)),
        escape(env!("PERFBENCH_RUSTC")),
        escape(&env("SMARTRED_THREADS")),
        escape(&env("MALLOC_ARENA_MAX")),
        escape(&env("MALLOC_MMAP_THRESHOLD_")),
    )
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
