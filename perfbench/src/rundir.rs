//! One scratch directory per run for the input file, WAL segments and
//! spill files: created empty, deleted on drop, and swept of directories a
//! killed run left behind.

use std::io;
use std::path::{Path, PathBuf};

const PREFIX: &str = "run-";

/// A per-run scratch directory `<root>/run-<pid>`, removed on drop.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Sweep directories of dead runs under `root`, then create this
    /// process's directory.
    pub fn create(root: &Path) -> io::Result<RunDir> {
        std::fs::create_dir_all(root)?;
        sweep(root)?;
        let path = root.join(format!("{PREFIX}{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir(&path)?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Remove every `run-<pid>` directory under `root` whose process is gone.
fn sweep(root: &Path) -> io::Result<usize> {
    let mut removed = 0;
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|n| n.strip_prefix(PREFIX)) else {
            continue;
        };
        let Ok(pid) = pid.parse::<u32>() else {
            continue;
        };
        if pid != std::process::id() && !Path::new("/proc").join(pid.to_string()).exists() {
            std::fs::remove_dir_all(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_runs_are_swept_and_live_ones_kept() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench_tmp")
            .join(format!("sweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        // PIDs above the kernel's pid_max never exist.
        let dead = root.join("run-4294967");
        std::fs::create_dir(&dead).unwrap();
        std::fs::write(dead.join("input.boat"), b"left by a killed run").unwrap();
        let unrelated = root.join("keep-me");
        std::fs::create_dir(&unrelated).unwrap();
        {
            let run = RunDir::create(&root).unwrap();
            assert!(!dead.exists(), "dead run swept");
            assert!(unrelated.exists());
            assert!(run.path().is_dir());
            std::fs::write(run.path().join("wal"), b"x").unwrap();
            // Our own live directory survives a sweep.
            assert_eq!(sweep(&root).unwrap(), 0);
            assert!(run.path().is_dir());
        }
        assert!(!root.join(format!("run-{}", std::process::id())).exists());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
