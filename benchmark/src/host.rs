//! Where a result was measured: recorded in `result.json` so two
//! results are only compared knowingly across hosts.

use crate::json::Value;
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`
/// (the longest mount point that is a prefix of the path wins).
pub fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

pub fn describe(scratch: &Path) -> Value {
    let unknown = || "unknown".to_string();
    Value::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with(
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
        )
        .with(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        )
        // Not every checkout is a git repository (the driver's is not).
        .with(
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
        )
        .with("scratch_fs", fs_type(scratch).unwrap_or_else(unknown))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_a_filesystem_for_the_working_directory() {
        let fs = fs_type(Path::new(".")).expect("cwd is on some mount");
        assert!(!fs.is_empty());
        assert!(fs_type(Path::new("/definitely/not/here")).is_none());
    }
}
