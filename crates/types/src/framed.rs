//! Segment logs: the one file kind under the ingestion WAL and the verdict
//! archive.
//!
//! A segment log is a directory of numbered files `<prefix>-<n:08>.seg`
//! (the highest is active), each opening with a [`Schema`]'s magic and
//! `u32` LE version and holding frames
//! `len: u32 LE | payload | checksum64(payload): u64 LE`. The schema owns
//! the payload layout; this module owns every file-level rule, once:
//!
//! * In the *final* segment, an incomplete frame, a checksum mismatch or a
//!   length of 0 or over 64 MiB is a torn tail; a trailing file cut
//!   inside its prefix or header frames is torn-rotation residue. The
//!   same damage in a sealed segment, a foreign magic or version, or a
//!   checksum-valid payload the schema cannot decode (the tail included)
//!   is the schema's corruption error.
//! * [`SegmentWriter::resume`] deletes residue and truncates a torn tail
//!   (synced) before it appends.
//! * A segment holding a frame is sealed (synced) before a frame would
//!   push it past the threshold; the next segment's header, and then the
//!   directory holding its entry, are synced before it becomes active.
//! * Sync is `fdatasync`: an append-only segment changes only its data and
//!   its length, and `fdatasync` persists both. A new file's name lives in
//!   its directory, which is `fsync`ed once when the file is created.
//!
//! See `docs/persistence.md` § "Segment logs".

use crate::persist::{binary::checksum64, lanes};
use crate::{Result, SpotError};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Byte length of a segment's fixed prefix (magic + version).
const PREFIX_LEN: usize = 8 + 4;

/// Upper bound on one frame's payload (64 MiB): a longer length prefix is
/// torn garbage, never an allocation request.
const MAX_PAYLOAD: usize = 1 << 26;

/// The file-level identity of one segment log.
#[derive(Debug, Clone, Copy)]
pub struct Schema {
    /// File name prefix: segment `n` is `<prefix>-<n:08>.seg`.
    pub prefix: &'static str,
    /// Magic bytes opening every segment.
    pub magic: [u8; 8],
    /// Format version following the magic.
    pub version: u32,
    /// Frames that open every segment after the prefix. A final segment
    /// cut inside them is torn-rotation residue.
    pub header_frames: usize,
    /// The schema's typed corruption error.
    pub corrupt: fn(String) -> SpotError,
}

impl Schema {
    /// Path of segment `number` in `dir`.
    pub fn path(&self, dir: &Path, number: u64) -> PathBuf {
        dir.join(format!("{}-{number:08}.seg", self.prefix))
    }

    /// Segment numbers present in `dir`, ascending (none when `dir` does
    /// not exist).
    pub fn list(&self, dir: &Path) -> Result<Vec<u64>> {
        let mut numbers = Vec::new();
        let entries = match std::fs::read_dir(dir) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(numbers),
            entries => entries.map_err(|e| io_err("list", dir, &e))?,
        };
        for entry in entries {
            let name = entry.map_err(|e| io_err("list", dir, &e))?.file_name();
            let number = name.to_str().and_then(|n| -> Option<u64> {
                let digits = n.strip_prefix(self.prefix)?.strip_prefix('-')?;
                digits.strip_suffix(".seg")?.parse().ok()
            });
            numbers.extend(number);
        }
        numbers.sort_unstable();
        Ok(numbers)
    }

    /// Why `bytes` does not open with this schema's prefix, naming a
    /// foreign version.
    fn check_prefix(&self, bytes: &[u8]) -> std::result::Result<(), String> {
        let magic = String::from_utf8_lossy(&self.magic);
        match (bytes.get(..8), lanes::get_u32(bytes, 8)) {
            (None, _) | (_, None) => Err("segment shorter than its prefix".to_string()),
            (Some(m), _) if m != self.magic => Err(format!("not a {magic} segment (wrong magic)")),
            (_, Some(v)) if v != self.version => Err(format!(
                "{magic} segment format version {v}, this build reads version {}",
                self.version
            )),
            _ => Ok(()),
        }
    }

    /// Whether `bytes` is what a crash mid-rotation leaves behind: shorter
    /// than the prefix, or this schema's prefix cut inside its header
    /// frames.
    fn is_rotation_residue(&self, bytes: &[u8]) -> bool {
        let header = (0..self.header_frames).try_fold(PREFIX_LEN, |at, _| {
            read_frame(bytes, at).map(|(_, next)| next)
        });
        bytes.len() < PREFIX_LEN || (self.check_prefix(bytes).is_ok() && header.is_err())
    }
}

/// The error of an I/O call `action` on `path`.
pub fn io_err(action: &str, path: &Path, e: &std::io::Error) -> SpotError {
    SpotError::Io(format!("{action} {}: {e}", path.display()))
}

/// Appends one frame to `buf` — a length prefix, the payload `payload`
/// writes, its checksum — and returns the frame's byte length. An empty
/// payload or one over 64 MiB is refused with [`SpotError::Io`] and `buf`
/// is left as it was: nothing sealed here reads back as torn.
pub fn put_frame(buf: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> Result<usize> {
    let start = buf.len();
    lanes::put_u32(buf, 0);
    payload(buf);
    let len = buf.len() - start - 4;
    if len == 0 || len > MAX_PAYLOAD {
        buf.truncate(start);
        return Err(SpotError::Io(format!(
            "refusing to seal a {len}-byte frame payload (1..={MAX_PAYLOAD} bytes)"
        )));
    }
    buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    let checksum = checksum64(&buf[start + 4..]);
    lanes::put_u64(buf, checksum);
    Ok(buf.len() - start)
}

/// Reads the frame at `at`: its verified payload and the offset after it,
/// or why it is torn.
fn read_frame(bytes: &[u8], at: usize) -> std::result::Result<(&[u8], usize), &'static str> {
    let Some(len) = lanes::get_u32(bytes, at).map(|n| n as usize) else {
        return Err("incomplete length prefix");
    };
    if len == 0 || len > MAX_PAYLOAD {
        return Err("implausible frame length");
    }
    let Some(payload) = bytes.get(at + 4..at + 4 + len) else {
        return Err("frame extends past the end of the segment");
    };
    if lanes::get_u64(bytes, at + 4 + len) != Some(checksum64(payload)) {
        return Err("incomplete checksum or checksum mismatch");
    }
    Ok((payload, at + 4 + len + 8))
}

/// One live segment of a scanned log.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Segment number.
    pub number: u64,
    /// Byte length of the prefix and header frames.
    header_len: u64,
    /// Byte offset one past the last whole frame.
    valid_len: u64,
    /// Torn bytes after `valid_len` (final segment only).
    torn_bytes: u64,
}

impl Segment {
    /// Byte offset one past the last whole frame.
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// Torn bytes after [`Segment::valid_len`] (final segment only).
    pub fn torn_bytes(&self) -> u64 {
        self.torn_bytes
    }
}

/// A scanned segment log.
#[derive(Debug, Clone)]
pub struct Scan {
    /// Live segments, oldest first; the last is the active one.
    pub segments: Vec<Segment>,
    /// Trailing torn-rotation files, dropped (a resuming writer deletes them).
    dropped: Vec<PathBuf>,
}

impl Scan {
    /// `true` when a crash left residue: a torn tail or dropped files.
    pub fn torn(&self) -> bool {
        !self.dropped.is_empty() || self.segments.last().is_some_and(|s| s.torn_bytes > 0)
    }
}

/// Scans the log at `dir` without changing it, handing every whole frame
/// to `visit(segment number, index in it, payload)` in log order; an `Err`
/// from `visit` is corruption there. `tail_only` reads the final segment
/// alone. A segment that vanishes while listed (pruned by a live writer)
/// counts as pruned.
pub fn scan(
    dir: &Path,
    schema: &Schema,
    tail_only: bool,
    mut visit: impl FnMut(u64, usize, &[u8]) -> std::result::Result<(), String>,
) -> Result<Scan> {
    let mut numbers = schema.list(dir)?;
    let mut dropped = Vec::new();
    while let Some(&last) = numbers.last() {
        let path = schema.path(dir, last);
        match std::fs::read(&path) {
            Ok(bytes) if schema.is_rotation_residue(&bytes) => {
                dropped.push(path);
                numbers.pop();
            }
            _ => break,
        }
    }
    if tail_only {
        numbers.drain(..numbers.len().saturating_sub(1));
    }
    let mut segments = Vec::with_capacity(numbers.len());
    for (i, &number) in numbers.iter().enumerate() {
        let path = schema.path(dir, number);
        let bytes = match std::fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            read => read.map_err(|e| io_err("read", &path, &e))?,
        };
        let corrupt = |why: String| (schema.corrupt)(format!("{}: {why}", path.display()));
        schema.check_prefix(&bytes).map_err(corrupt)?;
        let (mut at, mut index, mut header_len) = (PREFIX_LEN, 0, PREFIX_LEN);
        while at < bytes.len() {
            let (payload, next) = match read_frame(&bytes, at) {
                Ok(read) => read,
                Err(_) if i + 1 == numbers.len() && index >= schema.header_frames => break,
                Err(why) => return Err(corrupt(format!("damaged frame at byte {at}: {why}"))),
            };
            visit(number, index, payload).map_err(|why| corrupt(format!("byte {at}: {why}")))?;
            (at, index) = (next, index + 1);
            if index == schema.header_frames {
                header_len = at;
            }
        }
        if index < schema.header_frames {
            return Err(corrupt("segment ends inside its header".to_string()));
        }
        segments.push(Segment {
            number,
            header_len: header_len as u64,
            valid_len: at as u64,
            torn_bytes: (bytes.len() - at) as u64,
        });
    }
    Ok(Scan { segments, dropped })
}

/// The append end of a segment log: the active segment's file, rotation
/// and sync. One writer per directory.
#[derive(Debug)]
pub struct SegmentWriter {
    schema: Schema,
    dir: PathBuf,
    file: File,
    /// The active segment's number, and byte lengths of its header, of
    /// what was written to it and of what is known to be on stable storage.
    number: u64,
    header_len: u64,
    len: u64,
    synced_len: u64,
    /// Syncs issued: new segments (one each, data and directory entry
    /// together), repairs, [`SegmentWriter::sync`]s.
    syncs: u64,
}

impl SegmentWriter {
    /// Resumes the log `scan` found at `dir`: deletes the files it
    /// dropped, truncates a torn tail off the final segment (synced) and
    /// appends to it. A log without segments starts segment 1, with
    /// `header` (its header frames) after the prefix.
    pub fn resume(dir: &Path, schema: Schema, scan: &Scan, header: &[u8]) -> Result<Self> {
        for path in &scan.dropped {
            std::fs::remove_file(path).map_err(|e| io_err("remove", path, &e))?;
        }
        let fresh;
        let last = match scan.segments.last() {
            Some(last) => last,
            None => {
                let header_len = create(dir, &schema, 1, header)?.1;
                fresh = Segment {
                    number: 1,
                    header_len,
                    valid_len: header_len,
                    torn_bytes: 0,
                };
                &fresh
            }
        };
        let path = schema.path(dir, last.number);
        let open = OpenOptions::new().append(true).open(&path);
        let file = open.map_err(|e| io_err("open", &path, &e))?;
        if last.torn_bytes > 0 {
            file.set_len(last.valid_len)
                .and_then(|()| file.sync_data())
                .map_err(|e| io_err("truncate", &path, &e))?;
        }
        Ok(SegmentWriter {
            schema,
            dir: dir.to_path_buf(),
            file,
            number: last.number,
            header_len: last.header_len,
            len: last.valid_len,
            synced_len: last.valid_len,
            syncs: u64::from(scan.segments.is_empty() || last.torn_bytes > 0),
        })
    }

    /// The log's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active segment's number.
    pub fn number(&self) -> u64 {
        self.number
    }

    /// Byte length of the active segment known to be on stable storage.
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// `true` when everything written is on stable storage.
    pub fn is_synced(&self) -> bool {
        self.synced_len == self.len
    }

    /// Syncs issued since the writer was resumed.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The active segment's file, for a caller that injects crash damage.
    pub fn file_mut(&mut self) -> &mut File {
        &mut self.file
    }

    fn io_err(&self, action: &str, e: &std::io::Error) -> SpotError {
        io_err(action, &self.schema.path(&self.dir, self.number), e)
    }

    /// Writes one sealed frame ([`put_frame`]) to the active segment in a
    /// single `write`, straight to the file descriptor.
    pub fn write(&mut self, frame: &[u8]) -> Result<()> {
        self.file
            .write_all(frame)
            .map_err(|e| self.io_err("write", &e))?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Forces the active segment onto stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data().map_err(|e| self.io_err("sync", &e))?;
        self.synced_len = self.len;
        self.syncs += 1;
        Ok(())
    }

    /// Whether a frame of `frame_len` bytes would push a segment that
    /// already holds a frame past `threshold` bytes.
    pub fn rotation_due(&self, frame_len: usize, threshold: u64) -> bool {
        self.len > self.header_len && self.len + frame_len as u64 > threshold
    }

    /// Seals the active segment (synced, unless it already is) and makes
    /// the next one, `header` after its prefix and synced, active. On
    /// failure the active segment stays active.
    pub fn rotate(&mut self, header: &[u8]) -> Result<()> {
        if !self.is_synced() {
            self.sync()?;
        }
        let (file, header_len) = create(&self.dir, &self.schema, self.number + 1, header)?;
        (self.file, self.number, self.syncs) = (file, self.number + 1, self.syncs + 1);
        (self.header_len, self.len, self.synced_len) = (header_len, header_len, header_len);
        Ok(())
    }
}

/// Creates segment `number` — prefix and `header` in one `write`, synced —
/// then syncs `dir`, so the new file's entry survives a power cut with the
/// records later written to it. A file this call created but could not
/// finish, or whose entry could not be synced, is removed (best effort), so
/// a later scan does not take it for the active segment.
fn create(dir: &Path, schema: &Schema, number: u64, header: &[u8]) -> Result<(File, u64)> {
    let path = schema.path(dir, number);
    let bytes = [&schema.magic[..], &schema.version.to_le_bytes(), header].concat();
    let mut file = File::create(&path).map_err(|e| io_err("create", &path, &e))?;
    if let Err(e) = file.write_all(&bytes).and_then(|()| file.sync_data()) {
        let _ = std::fs::remove_file(&path);
        return Err(io_err("write", &path, &e));
    }
    if let Err(e) = File::open(dir).and_then(|d| d.sync_all()) {
        let _ = std::fs::remove_file(&path);
        return Err(io_err("sync", dir, &e));
    }
    Ok((file, bytes.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: Schema = Schema {
        prefix: "t",
        magic: *b"SPOTTEST",
        version: 3,
        header_frames: 1,
        corrupt: SpotError::WalCorrupt,
    };

    #[test]
    fn frames_round_trip_and_oversized_payloads_are_refused() {
        let mut buf = vec![7u8];
        let len = put_frame(&mut buf, |b| b.extend_from_slice(b"payload")).unwrap();
        assert_eq!(len, buf.len() - 1);
        assert_eq!(read_frame(&buf, 1), Ok((&b"payload"[..], buf.len())));
        let before = buf.clone();
        assert!(matches!(put_frame(&mut buf, |_| {}), Err(SpotError::Io(_))));
        let huge = |b: &mut Vec<u8>| b.resize(b.len() + MAX_PAYLOAD + 1, 0);
        assert!(matches!(put_frame(&mut buf, huge), Err(SpotError::Io(_))));
        assert_eq!(buf, before);
        // A length prefix of 0 or over the bound is torn, never allocated.
        for len in [0, MAX_PAYLOAD as u32 + 1] {
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.resize(64, 0);
            assert_eq!(read_frame(&bytes, 0), Err("implausible frame length"));
        }
    }

    #[test]
    fn segment_names_parse_back_and_foreign_files_are_ignored() {
        let dir = std::env::temp_dir().join(format!("spot-framed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(LOG.list(&dir).unwrap(), Vec::<u64>::new());
        std::fs::create_dir_all(&dir).unwrap();
        for name in [
            "t-00000002.seg",
            "t-00000010.seg",
            "tt-00000003.seg",
            "t-x.seg",
        ] {
            std::fs::write(dir.join(name), b"").unwrap();
        }
        assert_eq!(LOG.path(&dir, 2), dir.join("t-00000002.seg"));
        assert_eq!(LOG.list(&dir).unwrap(), vec![2, 10]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
