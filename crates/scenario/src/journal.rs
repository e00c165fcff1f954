//! Crash-safe JSONL journals: the one place that opens, recovers,
//! truncates and appends the line journals behind campaign manifests
//! (`hotnoc-campaign-manifest-v1`) and the serve result cache
//! (`hotnoc-serve-journal-v1`).
//!
//! A journal is a header line followed by one canonical JSON record per
//! line. A record is committed once its terminating newline is on disk;
//! [`Journal::append`] writes the whole line in one call and flushes it.
//! Recovery follows one rule for every journal: complete lines that do
//! not parse are skipped (the records after them are kept), and a torn
//! final fragment — a kill mid-append — is truncated off the disk, so the
//! next append starts on its own line. What a parsed record *means*, and
//! whether it verifies, is the caller's business.
//!
//! Appends reach the operating system before `append` returns, so a
//! killed process loses at most the line it was writing; they are not
//! synced to the device.

use crate::json::Json;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

/// An open journal, appendable from many threads.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
}

/// Why [`resume`] could not pick up an existing journal. Nothing on disk
/// is touched in either case; the caller decides whether to [`create`] a
/// new journal over it.
#[derive(Debug)]
pub enum ResumeError {
    /// There is no journal to resume: the file is absent or empty.
    Empty,
    /// The first line is not a complete line that parses to exactly the
    /// expected header: the file belongs to another run or another format.
    HeaderMismatch,
    /// Filesystem trouble.
    Io(std::io::Error),
}

/// Starts a new journal at `path` holding only `header`, replacing any
/// file already there and creating missing parent directories.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn create(path: &Path, header: &Json) -> std::io::Result<Journal> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let journal = Journal {
        file: Mutex::new(File::create(path)?),
    };
    journal.append(header)?;
    Ok(journal)
}

/// Reopens the journal at `path` for appending, provided its first line
/// parses to exactly `header`. Returns the journal and every later record
/// that parses, in file order. Complete lines that do not parse are
/// skipped; a torn final fragment is truncated off the disk.
///
/// # Errors
///
/// [`ResumeError::Empty`] for an absent or empty file,
/// [`ResumeError::HeaderMismatch`] for a foreign first line, and
/// [`ResumeError::Io`] for filesystem failures.
pub fn resume(path: &Path, header: &Json) -> Result<(Journal, Vec<Json>), ResumeError> {
    let mut file = match OpenOptions::new().read(true).append(true).open(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(ResumeError::Empty),
        opened => opened.map_err(ResumeError::Io)?,
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(ResumeError::Io)?;
    if bytes.is_empty() {
        return Err(ResumeError::Empty);
    }
    // Everything after the last newline is a torn fragment.
    let committed = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let mut lines = bytes[..committed].split(|&b| b == b'\n').map(|line| {
        std::str::from_utf8(line)
            .ok()
            .and_then(|l| Json::parse(l).ok())
    });
    if lines.next().flatten().as_ref() != Some(header) {
        return Err(ResumeError::HeaderMismatch);
    }
    let records = lines.flatten().collect();
    if committed < bytes.len() {
        file.set_len(committed as u64).map_err(ResumeError::Io)?;
    }
    Ok((
        Journal {
            file: Mutex::new(file),
        },
        records,
    ))
}

impl Journal {
    /// Appends `record` as one line and flushes it. The line is written
    /// with a single call under the journal's lock, so concurrent appends
    /// never interleave.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append(&self, record: &Json) -> std::io::Result<()> {
        let mut line = record.to_string();
        line.push('\n');
        // Nothing under the lock panics, so a poisoned lock still guards a
        // valid file.
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hotnoc-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("j.jsonl")
    }

    fn header() -> Json {
        Json::object(vec![("schema", Json::str("test-journal-v1"))])
    }

    fn rec(n: u64) -> Json {
        Json::object(vec![("n", Json::int(n))])
    }

    #[test]
    fn created_journal_resumes_with_its_records() {
        let path = tmp_path("roundtrip");
        let j = create(&path, &header()).unwrap();
        j.append(&rec(1)).unwrap();
        j.append(&rec(2)).unwrap();
        drop(j);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"schema\": \"test-journal-v1\"}\n{\"n\": 1}\n{\"n\": 2}\n"
        );
        let (_, records) = resume(&path, &header()).unwrap();
        assert_eq!(records, vec![rec(1), rec(2)]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_fragment_is_truncated_and_the_next_append_starts_a_line() {
        let path = tmp_path("torn");
        create(&path, &header()).unwrap().append(&rec(1)).unwrap();
        let whole = std::fs::read(&path).unwrap();
        let mut torn = whole.clone();
        torn.extend_from_slice(b"{\"n\": 2, \"half");
        std::fs::write(&path, &torn).unwrap();

        let (j, records) = resume(&path, &header()).unwrap();
        assert_eq!(records, vec![rec(1)]);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            whole,
            "fragment left on disk"
        );
        j.append(&rec(3)).unwrap();
        drop(j);
        let (_, records) = resume(&path, &header()).unwrap();
        assert_eq!(records, vec![rec(1), rec(3)]);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn unparsable_middle_line_is_skipped_and_later_records_kept() {
        let path = tmp_path("middle");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let text = format!("{}\n{{\"n\": 1}}\nnot json\n\n{{\"n\": 2}}\n", header());
        std::fs::write(&path, &text).unwrap();
        let (_, records) = resume(&path, &header()).unwrap();
        assert_eq!(records, vec![rec(1), rec(2)]);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            text,
            "complete lines are never rewritten"
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn mismatched_missing_and_empty_journals_are_reported_not_overwritten() {
        let path = tmp_path("refuse");
        assert!(matches!(resume(&path, &header()), Err(ResumeError::Empty)));
        assert!(!path.exists(), "resume must not create a file");

        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "").unwrap();
        assert!(matches!(resume(&path, &header()), Err(ResumeError::Empty)));

        for foreign in [
            "{\"schema\": \"other-v1\"}\n{\"n\": 1}\n",
            "{\"schema\": \"test-journal-v1\", \"extra\": 1}\n",
            // A header without its newline is itself a torn fragment.
            "{\"schema\": \"test-journal-v1\"}",
        ] {
            std::fs::write(&path, foreign).unwrap();
            assert!(
                matches!(resume(&path, &header()), Err(ResumeError::HeaderMismatch)),
                "{foreign:?}"
            );
            assert_eq!(std::fs::read_to_string(&path).unwrap(), foreign);
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
