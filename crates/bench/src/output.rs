//! Shared output sink for the figure/table binaries.
//!
//! Every binary prints its rows to stdout; when the common `--out PATH` flag
//! is given (see [`crate::cli::BinArgs`]) the same lines are also written to
//! the file (created fresh each run, overwriting any previous contents), so
//! sweeps can be archived without shell redirection. The sink is
//! a process-wide global because the binaries' printing is spread across free
//! functions (`print_row`, [`emitln!`](crate::emitln)) rather than threaded
//! through a context value.

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

// A panic while the lock is held cannot leave the `Option<File>` half
// written, so a poisoned sink is recovered rather than propagated.
static SINK: Mutex<Option<File>> = Mutex::new(None);

/// Routes subsequent [`emit`] calls to `path` in addition to stdout,
/// truncating any existing file at `path`.
///
/// # Errors
///
/// Propagates file-creation errors.
pub fn tee_to_file(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    *SINK.lock().unwrap_or_else(PoisonError::into_inner) = Some(file);
    Ok(())
}

/// Stops teeing to a file (used by tests; binaries just exit).
pub fn reset() {
    *SINK.lock().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Prints one line to stdout and, if configured, the `--out` file.
pub fn emit(line: &str) {
    println!("{line}");
    let mut sink = SINK.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(file) = sink.as_mut() {
        // Best effort: losing the archive copy should not kill the run.
        let _ = writeln!(file, "{line}");
    }
}

/// `println!`-style wrapper over [`output::emit`](emit).
#[macro_export]
macro_rules! emitln {
    () => { $crate::output::emit("") };
    ($($arg:tt)*) => { $crate::output::emit(&format!($($arg)*)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tee_writes_emitted_lines_to_the_file() {
        let dir = std::env::temp_dir().join("hyflex-bench-output-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Unique per process: concurrent `cargo test` invocations must not
        // share a file.
        let path = dir.join(format!("rows-{}.txt", std::process::id()));
        tee_to_file(&path).unwrap();
        emit("alpha 1");
        crate::emitln!("beta {}", 2);
        reset();
        emit("gamma 3"); // after reset: stdout only
        let contents = std::fs::read_to_string(&path).unwrap();
        // The sink is process-global and sibling unit tests may emit
        // concurrently, so assert per line rather than on exact contents.
        assert!(contents.contains("alpha 1\n"), "{contents:?}");
        assert!(contents.contains("beta 2\n"), "{contents:?}");
        assert!(!contents.contains("gamma 3"), "{contents:?}");
        std::fs::remove_file(&path).unwrap();
    }
}
