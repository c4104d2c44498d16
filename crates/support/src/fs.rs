//! Crash-safe file replacement.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Replaces `path` atomically: the content is written to a sibling
/// temporary file (`<path>.tmp`), synced, and renamed over the target. A
/// crash at any point leaves either the old file or the complete new one;
/// a failed rename removes the temporary file and leaves the target as it
/// was.
///
/// # Errors
/// Returns the first error from creating, writing, syncing or renaming the
/// temporary file.
pub fn write_atomically(path: &Path, content: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(content.as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}
