//! Shared helpers for the benchmark harness and report binaries.

/// Writes `content` to `path` and prints a note.
///
/// # Errors
///
/// Returns the underlying error (annotated with the path) so report
/// binaries can propagate a failed artifact write to a non-zero exit code
/// instead of exiting 0 with the exhibit silently missing.
pub fn save(path: &str, content: &str) -> std::io::Result<()> {
    std::fs::write(path, content)
        .map_err(|e| std::io::Error::new(e.kind(), format!("failed to save {path}: {e}")))?;
    println!("[saved {path}]");
    Ok(())
}
