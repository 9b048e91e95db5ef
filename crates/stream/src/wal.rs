//! The ingestion WAL's schema over a segment log ([`spot_types::framed`]):
//! the payloads of the fleet's one log (`docs/persistence.md` § "The
//! ingestion WAL"), the scan that checks each tenant's stream continuity,
//! and the log's one reader, [`read_wal_from`], which returns one tenant's
//! records from a sequence number on.
//! The writer lives in `spot-runtime`.
//!
//! ```text
//! <root>/wal-<number:08>.seg            (highest number = active segment)
//!
//! segment := magic[8]="SPOTWAL2" version:u32 frame(table) frame*
//! payload := kind:u8 body
//!   point  (0) := tenant seq:u64 dims:u32 value_bits:u64 × dims
//!   attach (1) := anchor              evict (2) := tenant
//!   table  (3) := count:u32 anchor × count
//! anchor  := tenant base_processed:u64 first_seq:u64
//! tenant  := id_len:u16 id[id_len]                  (UTF-8)
//! ```
//!
//! Floats travel as IEEE-754 bit patterns, so replay is bit-exact. A
//! tenant's *stream* runs from the attach that opens it to the evict that
//! closes it; its seq `n` is the detector's point `base_processed + n`.
//! Each segment's table (its one header frame) re-anchors the open
//! streams, so a segment stays readable once older ones are pruned.
//!
//! On top of the segment log's torn-tail rules, a sequence gap, a frame of
//! a tenant with no open stream, or a table that contradicts the segment
//! before it is [`SpotError::WalCorrupt`] — never repaired silently, as
//! records after it may have been acknowledged.

use spot_types::framed::{self, put_frame, Scan, Schema};
use spot_types::persist::lanes;
use spot_types::{DataPoint, Result, SpotError, TenantId};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

/// Magic bytes opening every WAL segment file.
pub const WAL_MAGIC: [u8; 8] = *b"SPOTWAL2";

/// WAL segment format version.
pub const WAL_SEGMENT_VERSION: u32 = 2;

/// The WAL's segment log: `wal-<n:08>.seg` files opening with `SPOTWAL2`
/// v2 and a table frame.
pub static WAL_LOG: Schema = Schema {
    prefix: "wal",
    magic: WAL_MAGIC,
    version: WAL_SEGMENT_VERSION,
    header_frames: 1,
    corrupt: SpotError::WalCorrupt,
};

const KIND_POINT: u8 = 0;
const KIND_ATTACH: u8 = 1;
const KIND_EVICT: u8 = 2;
const KIND_TABLE: u8 = 3;

/// Where one tenant's stream stands: a segment table entry or an attach
/// frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamAnchor {
    /// The tenant the stream belongs to.
    pub tenant: TenantId,
    /// The detector's `processed` counter when the stream was attached —
    /// the position record seq 0 maps to.
    pub base_processed: u64,
    /// Sequence number of the stream's next record at this point.
    pub first_seq: u64,
}

fn put_tenant(buf: &mut Vec<u8>, tenant: &TenantId) {
    let id = tenant.as_str().as_bytes();
    buf.extend_from_slice(&(id.len() as u16).to_le_bytes());
    buf.extend_from_slice(id);
}

fn put_anchor(buf: &mut Vec<u8>, anchor: &StreamAnchor) {
    put_tenant(buf, &anchor.tenant);
    lanes::put_u64(buf, anchor.base_processed);
    lanes::put_u64(buf, anchor.first_seq);
}

/// Appends a segment's header frame: the table of every stream open when
/// the segment begins.
pub fn encode_table(table: &[StreamAnchor], buf: &mut Vec<u8>) -> Result<usize> {
    put_frame(buf, |b| {
        b.push(KIND_TABLE);
        lanes::put_u32(b, table.len() as u32);
        table.iter().for_each(|a| put_anchor(b, a));
    })
}

/// Appends the frame of `tenant`'s record `seq` to `buf`; returns its
/// byte length.
pub fn encode_record(
    tenant: &TenantId,
    seq: u64,
    point: &DataPoint,
    buf: &mut Vec<u8>,
) -> Result<usize> {
    put_frame(buf, |b| {
        b.push(KIND_POINT);
        put_tenant(b, tenant);
        lanes::put_u64(b, seq);
        lanes::put_u32(b, point.dims() as u32);
        point
            .values()
            .iter()
            .for_each(|&v| lanes::put_f64_bits(b, v));
    })
}

/// Appends the control frame that opens `anchor`'s stream.
pub fn encode_attach(anchor: &StreamAnchor, buf: &mut Vec<u8>) -> Result<usize> {
    put_frame(buf, |b| {
        b.push(KIND_ATTACH);
        put_anchor(b, anchor);
    })
}

/// Appends the control frame that closes `tenant`'s stream (eviction).
pub fn encode_evict(tenant: &TenantId, buf: &mut Vec<u8>) -> Result<usize> {
    put_frame(buf, |b| {
        b.push(KIND_EVICT);
        put_tenant(b, tenant);
    })
}

/// One decoded frame; a point borrows the segment bytes.
enum Frame<'a> {
    Point {
        tenant: &'a str,
        seq: u64,
        values: &'a [u8],
    },
    Attach(StreamAnchor),
    Evict(&'a str),
    Table(Vec<StreamAnchor>),
}

/// A read cursor over a checksum-verified payload.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    /// An `N`-byte little-endian unsigned integer.
    fn int<const N: usize>(&mut self) -> Option<u64> {
        let mut word = [0u8; 8];
        word[..N].copy_from_slice(self.take(N)?);
        Some(u64::from_le_bytes(word))
    }

    fn tenant(&mut self) -> Option<&'a str> {
        let len = self.int::<2>()? as usize;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn anchor(&mut self) -> Option<StreamAnchor> {
        Some(StreamAnchor {
            tenant: TenantId::new(self.tenant()?).ok()?,
            base_processed: self.int::<8>()?,
            first_seq: self.int::<8>()?,
        })
    }
}

fn parse_payload(payload: &[u8]) -> Option<Frame<'_>> {
    let (&kind, body) = payload.split_first()?;
    let mut c = Cursor(body);
    let frame = match kind {
        KIND_POINT => {
            let tenant = c.tenant()?;
            let seq = c.int::<8>()?;
            let dims = c.int::<4>()? as usize;
            let values = c.take(dims.checked_mul(8)?)?;
            Frame::Point {
                tenant,
                seq,
                values,
            }
        }
        KIND_ATTACH => Frame::Attach(c.anchor()?),
        KIND_EVICT => Frame::Evict(c.tenant()?),
        KIND_TABLE => Frame::Table(
            (0..c.int::<4>()?)
                .map(|_| c.anchor())
                .collect::<Option<_>>()?,
        ),
        _ => return None,
    };
    c.0.is_empty().then_some(frame)
}

/// One tenant's stream as a scan found it at the end of the log.
#[derive(Debug, Clone)]
pub struct TenantLog {
    /// Scan-local stream ordinal ([`WalScan::holds`] entries): a tenant
    /// evicted and registered again has a new one.
    pub epoch: u64,
    /// The detector position record seq 0 maps to.
    pub base_processed: u64,
    /// Oldest retained seq: records `first_seq..next_seq` are on disk.
    pub first_seq: u64,
    /// Sequence number the stream's next record gets.
    pub next_seq: u64,
    /// The retained records `(seq, point)`, when the scan kept this
    /// tenant's (empty otherwise).
    pub records: Vec<(u64, DataPoint)>,
}

impl TenantLog {
    /// The records from `from_seq` on. [`SpotError::WalCorrupt`] when
    /// `from_seq` was pruned or lies past the stream's end (records a
    /// checkpoint counted are missing).
    pub fn into_tail(mut self, tenant: &TenantId, from_seq: u64) -> Result<Vec<(u64, DataPoint)>> {
        if !(self.first_seq..=self.next_seq).contains(&from_seq) {
            return Err(SpotError::WalCorrupt(format!(
                "tenant {tenant}: replay from seq {from_seq} requested, but the log holds \
                 seqs {}..{}",
                self.first_seq, self.next_seq
            )));
        }
        let skip = ((from_seq - self.first_seq) as usize).min(self.records.len());
        self.records.drain(..skip);
        Ok(self.records)
    }
}

/// A fully scanned fleet WAL directory.
#[derive(Debug, Clone)]
pub struct WalScan {
    /// The segment log: live segments (the last is the active one), torn
    /// bytes, dropped torn-rotation files.
    pub log: Scan,
    /// Per live segment, `(epoch, end)` of every stream with records in
    /// it: `end` is one past the stream's last record there.
    pub holds: Vec<Vec<(u64, u64)>>,
    /// Every stream open at the end of the log, by tenant.
    pub streams: BTreeMap<TenantId, TenantLog>,
}

/// A stream as the scan carries it from frame to frame.
struct Open {
    log: TenantLog,
    keep: bool,
    /// Segment number of the stream's last record, and its `holds` slot.
    last: Option<(u64, usize)>,
}

fn open_stream(anchor: &StreamAnchor, epoch: &mut u64, keep: &impl Fn(&str) -> bool) -> Open {
    *epoch += 1;
    let log = TenantLog {
        epoch: *epoch,
        base_processed: anchor.base_processed,
        first_seq: anchor.first_seq,
        next_seq: anchor.first_seq,
        records: Vec::new(),
    };
    Open {
        log,
        keep: keep(anchor.tenant.as_str()),
        last: None,
    }
}

/// Applies a segment's table. Right after the previous segment the table
/// restates the open streams exactly. After pruned segments (or at the
/// log's start) it re-anchors them: a stream with the same base that has
/// not gone back continues (its records before the skipped range are
/// dropped), any other entry opens a new stream, and a stream the table
/// omits was evicted in the pruned range.
fn apply_table(
    open: &mut HashMap<TenantId, Open>,
    table: Vec<StreamAnchor>,
    contiguous: bool,
    epoch: &mut u64,
    keep: &impl Fn(&str) -> bool,
) -> std::result::Result<(), String> {
    let mut carried = std::mem::take(open);
    for anchor in table {
        let same_base = |s: &Open| s.log.base_processed == anchor.base_processed;
        let stream = match carried.remove(&anchor.tenant) {
            Some(s) if same_base(&s) && s.log.next_seq == anchor.first_seq => s,
            Some(mut s) if !contiguous && same_base(&s) && s.log.next_seq < anchor.first_seq => {
                s.log.records.clear();
                s.log.first_seq = anchor.first_seq;
                s.log.next_seq = anchor.first_seq;
                s
            }
            _ if contiguous => {
                return Err(format!(
                    "table entry of {} does not continue the previous segment",
                    anchor.tenant
                ))
            }
            _ => open_stream(&anchor, epoch, keep),
        };
        open.insert(anchor.tenant, stream);
    }
    match carried.keys().next() {
        Some(id) if contiguous => Err(format!("table omits {id}, open in the previous segment")),
        _ => Ok(()),
    }
}

/// Applies one body frame of segment `number`.
fn apply_frame(
    open: &mut HashMap<TenantId, Open>,
    frame: Frame<'_>,
    number: u64,
    holds: &mut Vec<(u64, u64)>,
    epoch: &mut u64,
    keep: &impl Fn(&str) -> bool,
) -> std::result::Result<(), String> {
    match frame {
        Frame::Point {
            tenant,
            seq,
            values,
        } => {
            let Some(s) = open.get_mut(tenant) else {
                return Err(format!("record of {tenant}, which has no open stream"));
            };
            if seq != s.log.next_seq {
                return Err(format!(
                    "sequence discontinuity: {tenant}'s record carries seq {seq}, its stream is \
                     at {}",
                    s.log.next_seq
                ));
            }
            if s.keep {
                let lanes = values.chunks_exact(8);
                let point = lanes.map(|b| f64::from_le_bytes(b.try_into().expect("8-byte lane")));
                s.log.records.push((seq, DataPoint::new(point.collect())));
            }
            s.log.next_seq += 1;
            let slot = match s.last {
                Some((n, slot)) if n == number => slot,
                _ => {
                    holds.push((s.log.epoch, 0));
                    holds.len() - 1
                }
            };
            holds[slot].1 = s.log.next_seq;
            s.last = Some((number, slot));
        }
        Frame::Attach(anchor) if !open.contains_key(&anchor.tenant) => {
            let stream = open_stream(&anchor, epoch, keep);
            open.insert(anchor.tenant, stream);
        }
        Frame::Attach(anchor) => return Err(format!("attach of {}, already open", anchor.tenant)),
        Frame::Evict(tenant) => {
            open.remove(tenant)
                .ok_or_else(|| format!("eviction of {tenant}, which has no open stream"))?;
        }
        Frame::Table(_) => return Err("table inside a segment body".to_string()),
    }
    Ok(())
}

/// Scans a fleet WAL directory without mutating it: the segment log's
/// torn-tail rules, then every stream's continuity. `keep` picks the
/// tenants whose records are loaded into [`TenantLog::records`]. A
/// directory without segments (or none at all) scans empty.
pub fn scan_wal_dir(dir: &Path, keep: impl Fn(&str) -> bool) -> Result<WalScan> {
    let (mut open, mut epoch, mut previous) = (HashMap::new(), 0u64, None::<u64>);
    let mut holds: Vec<Vec<(u64, u64)>> = Vec::new();
    let log = framed::scan(dir, &WAL_LOG, false, |number, index, payload| {
        let len = payload.len();
        match parse_payload(payload) {
            Some(Frame::Table(table)) if index == 0 => {
                let contiguous = previous.is_some_and(|p| p + 1 == number);
                previous = Some(number);
                holds.push(Vec::new());
                apply_table(&mut open, table, contiguous, &mut epoch, &keep)
            }
            Some(_) if index == 0 => Err("segment does not open with its table".to_string()),
            Some(frame) => {
                let holds = holds.last_mut().expect("a table opened the segment");
                apply_frame(&mut open, frame, number, holds, &mut epoch, &keep)
            }
            None => Err(format!("checksum-valid {len}-byte frame does not decode")),
        }
    })?;
    let streams = open.into_iter().map(|(id, s)| (id, s.log)).collect();
    Ok(WalScan {
        log,
        holds,
        streams,
    })
}

/// `tenant`'s stream in the log at `dir`, with its records.
fn tenant_log(dir: &Path, tenant: &TenantId) -> Result<Option<TenantLog>> {
    Ok(scan_wal_dir(dir, |t| t == tenant.as_str())?
        .streams
        .remove(tenant))
}

/// `tenant`'s records with seq ≥ `from_seq` in the log at `dir` (see
/// [`TenantLog::into_tail`]); a tenant with no open stream reads as empty.
pub fn read_wal_from(
    dir: &Path,
    tenant: &TenantId,
    from_seq: u64,
) -> Result<Vec<(u64, DataPoint)>> {
    let log = tenant_log(dir, tenant)?;
    log.map_or(Ok(Vec::new()), |log| log.into_tail(tenant, from_seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn pt(vs: &[f64]) -> DataPoint {
        DataPoint::new(vs.to_vec())
    }

    fn tid(s: &str) -> TenantId {
        TenantId::new(s).unwrap()
    }

    fn anchor(tenant: &str, base: u64, first_seq: u64) -> StreamAnchor {
        StreamAnchor {
            tenant: tid(tenant),
            base_processed: base,
            first_seq,
        }
    }

    /// A segment: `table` in the header, then point records.
    fn segment(table: &[StreamAnchor], records: &[(&str, u64, DataPoint)]) -> Vec<u8> {
        let mut buf = [&WAL_MAGIC[..], &WAL_SEGMENT_VERSION.to_le_bytes()].concat();
        encode_table(table, &mut buf).unwrap();
        for (t, seq, p) in records {
            encode_record(&tid(t), *seq, p, &mut buf).unwrap();
        }
        buf
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spot-walscan-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes `segments` as files 1, 2, … of a fresh directory.
    fn log_dir(tag: &str, segments: &[Vec<u8>]) -> PathBuf {
        let dir = temp_dir(tag);
        for (i, bytes) in segments.iter().enumerate() {
            std::fs::write(WAL_LOG.path(&dir, i as u64 + 1), bytes).unwrap();
        }
        dir
    }

    fn scan_all(dir: &Path) -> Result<WalScan> {
        scan_wal_dir(dir, |_| true)
    }

    fn seqs(scan: &WalScan, t: &str) -> Vec<u64> {
        scan.streams[t].records.iter().map(|(s, _)| *s).collect()
    }

    #[test]
    fn header_roundtrip_and_rejection() {
        let table = [anchor("a", 42, 7), anchor("b/ü", 0, 0)];
        let bytes = segment(&table, &[]);
        let scan = scan_all(&log_dir("header", std::slice::from_ref(&bytes))).unwrap();
        let got = scan.streams.iter();
        let got: Vec<_> = got
            .map(|(id, l)| (id.as_str(), l.base_processed, l.next_seq))
            .collect();
        assert_eq!(got, [("a", 42, 7), ("b/ü", 0, 0)]);
        // A segment that does not open with its table is refused.
        let mut bad = segment(&[], &[]);
        bad.truncate(12);
        encode_evict(&tid("a"), &mut bad).unwrap();
        let dir = log_dir("header-bad", &[bad]);
        assert!(matches!(scan_all(&dir), Err(SpotError::WalCorrupt(ref m)) if m.contains("table")));
        for tag in ["header", "header-bad"] {
            let _ = std::fs::remove_dir_all(temp_dir(tag));
        }
    }
    #[test]
    fn record_roundtrip_bit_exact() {
        let specials = pt(&[0.1, -0.0, f64::INFINITY, f64::MIN_POSITIVE / 2.0, 1e308]);
        let dir = log_dir(
            "roundtrip",
            &[segment(
                &[anchor("a", 3, 0), anchor("b", 9, 0)],
                &[
                    ("a", 0, specials.clone()),
                    ("b", 0, pt(&[1.0; 5])),
                    ("a", 1, pt(&[2.0])),
                ],
            )],
        );
        let scan = scan_all(&dir).unwrap();
        assert!(!scan.log.torn());
        assert_eq!(seqs(&scan, "a"), vec![0, 1]);
        assert_eq!(seqs(&scan, "b"), vec![0]);
        assert_eq!(scan.streams["b"].base_processed, 9);
        for (a, b) in specials
            .values()
            .iter()
            .zip(scan.streams["a"].records[0].1.values())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_only_in_final_segment() {
        let table = [anchor("a", 0, 0), anchor("b", 0, 0)];
        let records: Vec<(&str, u64, DataPoint)> = (0..4)
            .map(|i| (["a", "b"][i % 2], i as u64 / 2, pt(&[i as f64, 0.5])))
            .collect();
        let clean = segment(&table, &records);
        let frame = encode_record(&tid("b"), 1, &records[3].2, &mut Vec::new()).unwrap();
        let next = segment(&[anchor("a", 0, 2), anchor("b", 0, 2)], &[]);
        // Cut at every byte inside the last frame: the final-segment scan
        // always keeps exactly the first 3 records.
        for cut in (clean.len() - frame + 1)..clean.len() {
            let dir = log_dir("torn", &[clean[..cut].to_vec()]);
            let scan = scan_all(&dir).unwrap();
            assert_eq!(
                (seqs(&scan, "a"), seqs(&scan, "b")),
                (vec![0, 1], vec![0]),
                "cut {cut}"
            );
            assert!(scan.log.torn());
            let last = &scan.log.segments[0];
            assert_eq!(last.valid_len(), (clean.len() - frame) as u64);
            assert_eq!(last.torn_bytes(), (cut - (clean.len() - frame)) as u64);
            // The same damage in a sealed segment is corruption.
            let dir = log_dir("torn-sealed", &[clean[..cut].to_vec(), next.clone()]);
            assert!(matches!(scan_all(&dir), Err(SpotError::WalCorrupt(_))));
        }
        let _ = std::fs::remove_dir_all(temp_dir("torn"));
        let _ = std::fs::remove_dir_all(temp_dir("torn-sealed"));
    }

    #[test]
    fn final_frame_checksum_mismatch_is_torn_mid_log_is_corrupt() {
        let table = [anchor("a", 0, 0)];
        let records: Vec<(&str, u64, DataPoint)> =
            (0..3).map(|i| ("a", i, pt(&[i as f64]))).collect();
        let clean = segment(&table, &records);
        let header = segment(&table, &[]).len();
        let frame = (clean.len() - header) / 3;
        let next = segment(&[anchor("a", 0, 3)], &[]);
        // Flip a value bit in the last record: a torn tail (dropped).
        let mut bytes = clean.clone();
        let last = bytes.len() - 10;
        bytes[last] ^= 1;
        let dir = log_dir("flip-last", &[bytes]);
        let scan = scan_all(&dir).unwrap();
        assert_eq!(seqs(&scan, "a"), vec![0, 1]);
        assert_eq!(scan.log.segments[0].torn_bytes(), frame as u64);
        // Flip the same bit in the *first* record. In the final segment a
        // bad frame is always the truncation point (frame lengths vary, so
        // re-synchronising past it is not possible); everything after is
        // dropped. In a sealed segment the same damage is corruption.
        let mut bytes = clean;
        bytes[header + frame - 10] ^= 1;
        let dir = log_dir("flip-first", &[bytes.clone()]);
        let scan = scan_all(&dir).unwrap();
        assert!(seqs(&scan, "a").is_empty());
        assert_eq!(scan.log.segments[0].valid_len(), header as u64);
        let dir = log_dir("flip-sealed", &[bytes, next]);
        assert!(matches!(scan_all(&dir), Err(SpotError::WalCorrupt(_))));
        for tag in ["flip-last", "flip-first", "flip-sealed"] {
            let _ = std::fs::remove_dir_all(temp_dir(tag));
        }
    }

    #[test]
    fn sequence_discontinuity_is_corrupt_even_with_valid_checksums() {
        let table = [anchor("a", 0, 0), anchor("b", 0, 0)];
        // b's stream skips seq 1; a's is fine.
        let bytes = segment(
            &table,
            &[
                ("a", 0, pt(&[1.0])),
                ("b", 0, pt(&[1.0])),
                ("b", 2, pt(&[2.0])),
            ],
        );
        let dir = log_dir("gap", &[bytes]);
        let err = scan_all(&dir).unwrap_err();
        assert!(matches!(err, SpotError::WalCorrupt(ref m) if m.contains("discontinuity")));
        // A record of a tenant with no open stream, and a table that does
        // not continue the segment before it, are corrupt too.
        let dir = log_dir("stranger", &[segment(&table, &[("c", 0, pt(&[1.0]))])]);
        assert!(matches!(scan_all(&dir), Err(SpotError::WalCorrupt(_))));
        let dir = log_dir(
            "table",
            &[
                segment(&table, &[("a", 0, pt(&[1.0]))]),
                segment(&[anchor("a", 0, 0), anchor("b", 0, 0)], &[]),
            ],
        );
        assert!(matches!(scan_all(&dir), Err(SpotError::WalCorrupt(ref m)) if m.contains("table")));
        for tag in ["gap", "stranger", "table"] {
            let _ = std::fs::remove_dir_all(temp_dir(tag));
        }
    }

    #[test]
    fn streams_end_at_eviction_and_reanchor_after_pruned_segments() {
        let t = |s: &str| tid(s);
        let mut s1 = segment(
            &[anchor("a", 0, 0), anchor("b", 4, 0)],
            &[("a", 0, pt(&[0.0]))],
        );
        encode_record(&t("b"), 0, &pt(&[1.0]), &mut s1).unwrap();
        encode_evict(&t("b"), &mut s1).unwrap();
        encode_attach(&anchor("b", 100, 0), &mut s1).unwrap();
        encode_record(&t("b"), 0, &pt(&[2.0]), &mut s1).unwrap();
        let dir = log_dir("evict", &[s1.clone()]);
        let scan = scan_all(&dir).unwrap();
        // The second incarnation of b replaces the first.
        let b = &scan.streams["b"];
        assert_eq!((b.base_processed, b.next_seq), (100, 1));
        assert_eq!(b.records[0].1.values()[0], 2.0);
        // Both incarnations hold segment 1, under different epochs.
        assert_eq!(scan.holds[0].len(), 3);
        // A record after the eviction frame is corrupt.
        let mut bad = segment(&[anchor("a", 0, 0)], &[]);
        encode_evict(&t("a"), &mut bad).unwrap();
        encode_record(&t("a"), 0, &pt(&[0.0]), &mut bad).unwrap();
        let dir = log_dir("evict-bad", &[bad]);
        assert!(matches!(scan_all(&dir), Err(SpotError::WalCorrupt(_))));

        // Segment 2 pruned: segment 3's table re-anchors a (same base,
        // later position: its older records are dropped) and drops b
        // (evicted in the pruned range).
        let dir = temp_dir("reanchor");
        std::fs::write(WAL_LOG.path(&dir, 1), &s1).unwrap();
        std::fs::write(
            WAL_LOG.path(&dir, 3),
            segment(&[anchor("a", 0, 5)], &[("a", 5, pt(&[5.0]))]),
        )
        .unwrap();
        let scan = scan_all(&dir).unwrap();
        assert!(!scan.streams.contains_key("b"));
        let a = &scan.streams["a"];
        assert_eq!((a.first_seq, a.next_seq), (5, 6));
        assert_eq!(seqs(&scan, "a"), vec![5]);
        assert_eq!(scan.holds[1], vec![(a.epoch, 6)]);
        // Replay from a pruned seq, or past the stream's end, errors.
        let tail = |from| read_wal_from(&dir, &t("a"), from);
        assert_eq!(tail(6).unwrap().len(), 0);
        assert!(matches!(tail(4), Err(SpotError::WalCorrupt(_))));
        assert!(matches!(tail(7), Err(SpotError::WalCorrupt(_))));
        for tag in ["evict", "evict-bad", "reanchor"] {
            let _ = std::fs::remove_dir_all(temp_dir(tag));
        }
    }

    #[test]
    fn read_wal_from_yields_one_tenants_records_and_reads_absence_as_empty() {
        let records: Vec<(&str, u64, DataPoint)> = (0..12)
            .map(|i| {
                (
                    ["a", "b"][i % 2],
                    i as u64 / 2,
                    pt(&[i as f64 * 0.25, -0.0]),
                )
            })
            .collect();
        let dir = log_dir(
            "walread",
            &[segment(&[anchor("a", 9, 0), anchor("b", 0, 0)], &records)],
        );
        let recs = read_wal_from(&dir, &tid("a"), 0).unwrap();
        assert_eq!(recs.len(), 6);
        for (i, (seq, point)) in recs.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(
                point.values()[0].to_bits(),
                (2.0 * i as f64 * 0.25).to_bits()
            );
        }
        // A tenant with no stream, or a missing dir, reads as empty.
        assert!(read_wal_from(&dir, &tid("c"), 0).unwrap().is_empty());
        assert!(read_wal_from(&dir.join("nope"), &tid("a"), 0)
            .unwrap()
            .is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
