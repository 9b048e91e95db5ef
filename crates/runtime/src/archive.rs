//! Columnar append-only verdict archive.
//!
//! Checkpoints preserve *engine state*; the verdict stream itself — what
//! was flagged, when, in which subspaces — is gone unless something
//! records it. [`VerdictArchive`] is that something: an append-only
//! directory of segment files in the ingestion WAL's codec style
//! (checksummed length-prefixed frames, torn-tail-tolerant tail segment)
//! holding verdicts in a packed columnar layout, and a reader
//! ([`VerdictArchive::replay`]) that reproduces the archived stream
//! bit-exactly ([`Verdict::bitwise_eq`] over every record).
//!
//! # File format
//!
//! Each segment `arc-<n:08>.seg` opens with the 8-byte magic `SPOTARC1`
//! and a `u32` little-endian format version (currently 2), followed by
//! frames:
//!
//! ```text
//! | len: u32 LE | payload: len bytes | checksum64(payload): u64 LE |
//! ```
//!
//! `checksum64` is `spot_types::persist::binary::checksum64`, the checksum
//! of every framed file. Version 1 sealed frames with byte-wise FNV-1a; a
//! version-1 segment is refused with a typed error (replay and `open`
//! alike), never misread.
//!
//! A frame's payload is one batch of verdicts in column order, every lane
//! a `u64` little-endian word (floats by their IEEE-754 bit patterns, so
//! the round trip is bit-exact by construction):
//!
//! ```text
//! n | total_findings
//! ticks[n] | flags[n] | score_bits[n] | finding_counts[n]
//! masks[total] | rd_bits[total] | irsd_bits[total]
//! ```
//!
//! `flags` packs `outlier` in bit 0 and `drift` in bit 1. The findings of
//! record `i` are the next `finding_counts[i]` entries of the flattened
//! finding columns, preserving each verdict's sparsest-first order.
//!
//! # Failure policy (the WAL's, verbatim)
//!
//! A damaged *final* segment is a crash artifact: replay keeps every
//! frame up to the damage, reports `torn_tail = true`, and the next
//! append seals a fresh segment. Damage in a *sealed* segment (or a bad
//! magic/version header anywhere) is real corruption and fails replay
//! with [`SpotError::SnapshotCorrupt`] — never a panic. The archive is
//! deliberately **not** consulted by fleet recovery: recovery replays the
//! ingestion WAL through live detectors, which regenerates these same
//! verdicts; the archive exists for consumers *outside* the engine
//! (audit, backtesting, alert forensics).

use spot::subspace::Subspace;
use spot::{SubspaceFinding, Verdict};
use spot_types::persist::binary::checksum64;
use spot_types::{Result, SpotError};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every archive segment.
pub const ARCHIVE_MAGIC: &[u8; 8] = b"SPOTARC1";

/// Archive segment format version (2: frames sealed with
/// `binary::checksum64`).
pub const ARCHIVE_VERSION: u32 = 2;

const SEG_PREFIX: &str = "arc-";
const SEG_SUFFIX: &str = ".seg";
const HEADER_LEN: u64 = 12; // magic + version

/// Default segment rotation threshold (bytes). Appends that push the
/// current segment past this start a new one.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

/// An append-only columnar verdict log over a directory of segment
/// files. One writer at a time; readers ([`VerdictArchive::replay`])
/// operate on the directory independently.
#[derive(Debug)]
pub struct VerdictArchive {
    dir: PathBuf,
    segment_bytes: u64,
    /// Current tail segment number and its size in bytes.
    current: u64,
    current_len: u64,
    file: File,
}

/// Everything [`VerdictArchive::replay`] reconstructed.
#[derive(Debug)]
pub struct ArchiveReplay {
    /// The archived verdict stream, in append order.
    pub verdicts: Vec<Verdict>,
    /// Segment files read.
    pub segments: usize,
    /// Complete frames decoded.
    pub frames: usize,
    /// `true` when the final segment ended in a torn (incomplete or
    /// checksum-failing) tail that was dropped — a crash artifact, not
    /// corruption.
    pub torn_tail: bool,
}

impl VerdictArchive {
    /// Opens (creating if needed) an archive directory for appending with
    /// the default rotation threshold. Appends continue the highest
    /// existing segment, or start `arc-00000001.seg`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with(dir, DEFAULT_SEGMENT_BYTES)
    }

    /// [`VerdictArchive::open`] with an explicit rotation threshold
    /// (clamped to at least the segment header).
    pub fn open_with(dir: impl Into<PathBuf>, segment_bytes: u64) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, &e))?;
        let current = segment_numbers(&dir)?.last().copied().unwrap_or(0).max(1);
        let path = segment_path(&dir, current);
        let exists = path.exists();
        if exists {
            // Appending v2 frames to a segment of another version would
            // leave it unreadable: refuse it, as replay does.
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            File::open(&path)
                .and_then(|f| f.take(HEADER_LEN).read_to_end(&mut header))
                .map_err(|e| io_err("read", &path, &e))?;
            if header.len() == HEADER_LEN as usize {
                if let Some(why) = header_error(&header) {
                    return Err(SpotError::SnapshotCorrupt(format!(
                        "{}: {why}",
                        path.display()
                    )));
                }
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, &e))?;
        let mut current_len = file
            .metadata()
            .map_err(|e| io_err("stat", &path, &e))?
            .len();
        if !exists || current_len == 0 {
            write_header(&mut file, &path)?;
            current_len = HEADER_LEN;
        }
        Ok(VerdictArchive {
            dir,
            segment_bytes: segment_bytes.max(HEADER_LEN + 1),
            current,
            current_len,
            file,
        })
    }

    /// The archive directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The tail segment number appends currently land in.
    pub fn current_segment(&self) -> u64 {
        self.current
    }

    /// Appends one batch of verdicts as a single frame, rotating to a new
    /// segment first when the current one has reached the threshold. An
    /// empty batch is a no-op. Data is buffered by the OS until
    /// [`VerdictArchive::sync`].
    pub fn append(&mut self, verdicts: &[Verdict]) -> Result<()> {
        if verdicts.is_empty() {
            return Ok(());
        }
        if self.current_len >= self.segment_bytes {
            self.rotate()?;
        }
        let payload = encode_frame(verdicts);
        let path = segment_path(&self.dir, self.current);
        let mut frame = Vec::with_capacity(payload.len() + 12);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&checksum64(&payload).to_le_bytes());
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append", &path, &e))?;
        self.current_len += frame.len() as u64;
        Ok(())
    }

    /// Fsyncs the tail segment — after this returns, every appended frame
    /// survives a crash.
    pub fn sync(&mut self) -> Result<()> {
        let path = segment_path(&self.dir, self.current);
        self.file.sync_all().map_err(|e| io_err("sync", &path, &e))
    }

    fn rotate(&mut self) -> Result<()> {
        self.sync()?;
        self.current += 1;
        let path = segment_path(&self.dir, self.current);
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("create", &path, &e))?;
        write_header(&mut file, &path)?;
        self.file = file;
        self.current_len = HEADER_LEN;
        Ok(())
    }

    /// Reads an archive directory back into the verdict stream it
    /// recorded. Requires no open writer; see the module docs for the
    /// torn-tail vs corruption policy.
    pub fn replay(dir: impl AsRef<Path>) -> Result<ArchiveReplay> {
        let dir = dir.as_ref();
        let numbers = segment_numbers(dir)?;
        let mut replay = ArchiveReplay {
            verdicts: Vec::new(),
            segments: 0,
            frames: 0,
            torn_tail: false,
        };
        for (i, n) in numbers.iter().enumerate() {
            let is_final = i + 1 == numbers.len();
            let path = segment_path(dir, *n);
            let bytes = std::fs::read(&path).map_err(|e| io_err("read", &path, &e))?;
            replay.segments += 1;
            read_segment(&path, &bytes, is_final, &mut replay)?;
        }
        Ok(replay)
    }
}

fn segment_path(dir: &Path, n: u64) -> PathBuf {
    dir.join(format!("{SEG_PREFIX}{n:08}{SEG_SUFFIX}"))
}

fn segment_numbers(dir: &Path) -> Result<Vec<u64>> {
    let entries = std::fs::read_dir(dir).map_err(|e| io_err("list", dir, &e))?;
    let mut numbers = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err("list", dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(digits) = name
            .strip_prefix(SEG_PREFIX)
            .and_then(|rest| rest.strip_suffix(SEG_SUFFIX))
        else {
            continue;
        };
        if let Ok(n) = digits.parse::<u64>() {
            numbers.push(n);
        }
    }
    numbers.sort_unstable();
    Ok(numbers)
}

/// What is wrong with a whole segment header, if anything. A version other
/// than this build's is named: a v1 segment sealed its frames with
/// another checksum, so it is refused rather than misread.
fn header_error(header: &[u8]) -> Option<String> {
    if header.len() < HEADER_LEN as usize || &header[..8] != ARCHIVE_MAGIC {
        return Some("bad segment header".to_string());
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4-byte lane"));
    (version != ARCHIVE_VERSION).then(|| {
        format!("segment format version {version}, this build reads version {ARCHIVE_VERSION}")
    })
}

fn write_header(file: &mut File, path: &Path) -> Result<()> {
    file.write_all(ARCHIVE_MAGIC)
        .and_then(|_| file.write_all(&ARCHIVE_VERSION.to_le_bytes()))
        .map_err(|e| io_err("write", path, &e))
}

fn encode_frame(verdicts: &[Verdict]) -> Vec<u8> {
    let total: usize = verdicts.iter().map(|v| v.findings.len()).sum();
    let mut out = Vec::with_capacity(16 + 8 * (4 * verdicts.len() + 3 * total));
    let mut put = |w: u64| out.extend_from_slice(&w.to_le_bytes());
    put(verdicts.len() as u64);
    put(total as u64);
    for v in verdicts {
        put(v.tick);
    }
    for v in verdicts {
        put(u64::from(v.outlier) | u64::from(v.drift) << 1);
    }
    for v in verdicts {
        put(v.score.to_bits());
    }
    for v in verdicts {
        put(v.findings.len() as u64);
    }
    for v in verdicts {
        for f in &v.findings {
            put(f.subspace.mask());
        }
    }
    for v in verdicts {
        for f in &v.findings {
            put(f.rd.to_bits());
        }
    }
    for v in verdicts {
        for f in &v.findings {
            put(f.irsd.to_bits());
        }
    }
    out
}

fn decode_frame(payload: &[u8], out: &mut Vec<Verdict>) -> Result<()> {
    let corrupt = |msg: &str| SpotError::SnapshotCorrupt(format!("archive frame: {msg}"));
    if !payload.len().is_multiple_of(8) || payload.len() < 16 {
        return Err(corrupt("payload is not a whole number of column words"));
    }
    let words: Vec<u64> = payload
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
        .collect();
    let n = words[0] as usize;
    let total = words[1] as usize;
    let expect = 2usize
        .checked_add(n.checked_mul(4).ok_or_else(|| corrupt("count overflow"))?)
        .and_then(|x| x.checked_add(total.checked_mul(3)?))
        .ok_or_else(|| corrupt("count overflow"))?;
    if words.len() != expect {
        return Err(corrupt("column lengths do not match declared counts"));
    }
    let (ticks, rest) = words[2..].split_at(n);
    let (flags, rest) = rest.split_at(n);
    let (scores, rest) = rest.split_at(n);
    let (counts, rest) = rest.split_at(n);
    let (masks, rest) = rest.split_at(total);
    let (rds, irsds) = rest.split_at(total);
    if counts.iter().sum::<u64>() != total as u64 {
        return Err(corrupt("finding counts do not sum to the flattened total"));
    }
    let mut at = 0usize;
    for i in 0..n {
        let k = counts[i] as usize;
        let mut findings = Vec::with_capacity(k);
        for j in at..at + k {
            findings.push(SubspaceFinding {
                subspace: Subspace::from_mask(masks[j])
                    .map_err(|e| corrupt(&format!("finding mask: {e}")))?,
                rd: f64::from_bits(rds[j]),
                irsd: f64::from_bits(irsds[j]),
            });
        }
        at += k;
        if flags[i] > 0b11 {
            return Err(corrupt("unknown flag bits set"));
        }
        out.push(Verdict {
            tick: ticks[i],
            outlier: flags[i] & 1 != 0,
            score: f64::from_bits(scores[i]),
            findings,
            drift: flags[i] & 2 != 0,
        });
    }
    Ok(())
}

fn read_segment(
    path: &Path,
    bytes: &[u8],
    is_final: bool,
    replay: &mut ArchiveReplay,
) -> Result<()> {
    let corrupt = |msg: String| SpotError::SnapshotCorrupt(format!("{}: {msg}", path.display()));
    if let Some(why) = header_error(bytes) {
        // A header can only be torn on the final segment (rotation writes
        // it before any frame is acknowledged).
        if is_final && bytes.len() < HEADER_LEN as usize {
            replay.torn_tail = true;
            return Ok(());
        }
        return Err(corrupt(why));
    }
    let mut at = HEADER_LEN as usize;
    while at < bytes.len() {
        // Frame = len(4) + payload + checksum(8). Anything that does not
        // verify is a torn tail on the final segment, corruption on a
        // sealed one.
        let whole = (|| {
            let len = u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?) as usize;
            let payload = bytes.get(at + 4..at + 4 + len)?;
            let stored =
                u64::from_le_bytes(bytes.get(at + 4 + len..at + 12 + len)?.try_into().ok()?);
            (checksum64(payload) == stored).then_some((payload, at + 12 + len))
        })();
        let Some((payload, next)) = whole else {
            if is_final {
                replay.torn_tail = true;
                return Ok(());
            }
            return Err(corrupt(format!("damaged frame at offset {at}")));
        };
        // A frame that checksums but does not decode was *written* wrong:
        // that is corruption everywhere, tail included.
        decode_frame(payload, &mut replay.verdicts)
            .map_err(|e| corrupt(format!("offset {at}: {e}")))?;
        replay.frames += 1;
        at = next;
    }
    Ok(())
}

fn io_err(action: &str, path: &Path, e: &std::io::Error) -> SpotError {
    SpotError::Io(format!("{action} {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spot-arc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample(tick: u64, findings: usize) -> Verdict {
        Verdict {
            tick,
            outlier: findings > 0,
            score: 1.0 / (1.0 + tick as f64 * 0.125),
            findings: (0..findings)
                .map(|i| SubspaceFinding {
                    subspace: Subspace::from_mask(1 << (i % 7) | 1 << 9).unwrap(),
                    rd: 0.25 + i as f64 * 0.5,
                    irsd: f64::from_bits(0x3FF0_0000_0000_0001 + i as u64),
                })
                .collect(),
            drift: tick.is_multiple_of(5),
        }
    }

    fn assert_stream_eq(want: &[Verdict], got: &[Verdict]) {
        assert_eq!(want.len(), got.len());
        for (w, g) in want.iter().zip(got) {
            assert!(w.bitwise_eq(g), "verdict at tick {} diverged", w.tick);
        }
    }

    #[test]
    fn replay_reproduces_the_appended_stream_bit_exactly() {
        let dir = temp_dir("roundtrip");
        let want: Vec<Verdict> = (1..=257).map(|t| sample(t, (t % 4) as usize)).collect();
        {
            let mut arc = VerdictArchive::open(&dir).unwrap();
            for chunk in want.chunks(17) {
                arc.append(chunk).unwrap();
            }
            arc.append(&[]).unwrap(); // no-op
            arc.sync().unwrap();
        }
        let replay = VerdictArchive::replay(&dir).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.segments, 1);
        assert_eq!(replay.frames, want.len().div_ceil(17));
        assert_stream_eq(&want, &replay.verdicts);
    }

    #[test]
    fn appends_rotate_segments_and_survive_reopen() {
        let dir = temp_dir("rotate");
        let want: Vec<Verdict> = (1..=64).map(|t| sample(t, 2)).collect();
        {
            // Tiny threshold: every append lands in a fresh segment.
            let mut arc = VerdictArchive::open_with(&dir, 64).unwrap();
            for chunk in want[..32].chunks(8) {
                arc.append(chunk).unwrap();
            }
            arc.sync().unwrap();
        }
        {
            // Reopen continues the tail segment.
            let mut arc = VerdictArchive::open_with(&dir, 64).unwrap();
            for chunk in want[32..].chunks(8) {
                arc.append(chunk).unwrap();
            }
            arc.sync().unwrap();
        }
        let replay = VerdictArchive::replay(&dir).unwrap();
        assert!(replay.segments > 1, "rotation never happened");
        assert!(!replay.torn_tail);
        assert_stream_eq(&want, &replay.verdicts);
    }

    #[test]
    fn a_version_1_archive_is_refused_not_misread() {
        let dir = temp_dir("v1");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = ARCHIVE_MAGIC.to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        std::fs::write(segment_path(&dir, 1), &bytes).unwrap();
        let refused = |e: SpotError| matches!(e, SpotError::SnapshotCorrupt(ref m) if m.contains("version 1"));
        assert!(refused(VerdictArchive::replay(&dir).unwrap_err()));
        assert!(refused(VerdictArchive::open(&dir).unwrap_err()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_tolerated_sealed_corruption_is_not() {
        let dir = temp_dir("torn");
        let want: Vec<Verdict> = (1..=40).map(|t| sample(t, 1)).collect();
        {
            let mut arc = VerdictArchive::open_with(&dir, 128).unwrap();
            for chunk in want.chunks(10) {
                arc.append(chunk).unwrap();
            }
            arc.sync().unwrap();
        }
        let segments = segment_numbers(&dir).unwrap();
        assert!(segments.len() >= 2);

        // Tear the final segment: every frame before the tear survives.
        let tail = segment_path(&dir, *segments.last().unwrap());
        let bytes = std::fs::read(&tail).unwrap();
        std::fs::write(&tail, &bytes[..bytes.len() - 5]).unwrap();
        let replay = VerdictArchive::replay(&dir).unwrap();
        assert!(replay.torn_tail);
        assert!(replay.verdicts.len() < want.len());
        assert_stream_eq(&want[..replay.verdicts.len()], &replay.verdicts);

        // Flip a payload byte in a sealed segment: typed error, no panic.
        std::fs::write(&tail, &bytes).unwrap();
        let sealed = segment_path(&dir, segments[0]);
        let mut sealed_bytes = std::fs::read(&sealed).unwrap();
        let at = HEADER_LEN as usize + 20;
        sealed_bytes[at] ^= 0x10;
        std::fs::write(&sealed, &sealed_bytes).unwrap();
        assert!(matches!(
            VerdictArchive::replay(&dir).unwrap_err(),
            SpotError::SnapshotCorrupt(_)
        ));
    }
}
