//! Capture/restore substrate for durable engine state.
//!
//! Every stateful layer of the detector — decayed counters, cell stores,
//! the drift test, the reservoir, the clock, the configuration and the SST
//! — owns its own encoding by implementing [`DurableState`]. A layer
//! captures itself as named fields appended straight into one byte buffer
//! ([`StateWriter`]); the top-level checkpoint composes the layers as
//! nested objects of that buffer instead of reaching into their internals,
//! and [`StateReader`] borrows the bytes back, field by field.
//!
//! # Layout
//!
//! An object is a run of fields, each `name_len | name | value_len |
//! value`, lengths as LEB128 varints. A value is a varint (`u64` scalar),
//! one byte (`bool`), raw bytes, a column (see [`binary`]), a nested object,
//! or a list of `len | object` entries. A reader indexes an object's fields
//! once and looks them up by name, so a component no reader asks for is
//! skipped, not misread. Every length is checked against the bytes that
//! remain before anything is sliced or allocated: malformed input is a
//! typed [`PersistError`], never a panic.
//!
//! # Bit-exactness
//!
//! Warm restarts must reproduce the *exact* runtime state: a restored
//! detector has to emit bit-identical verdicts to one that never stopped.
//! Floating-point state is therefore stored as raw IEEE-754 bit patterns,
//! never as decimal text — every value round-trips, including `±0.0`,
//! subnormals and infinities. Wide [`u128`] cell keys are split into two
//! `u64` lanes for the same reason. See `docs/persistence.md` for the
//! container layout and the versioning policy.

use crate::error::SpotError;
use binary::{checksum64, decode_col, encode_col, get_varint, put_varint, varint, MAGIC};

/// Little-endian binary lanes — the persistence layer's byte-level
/// encoding discipline, shared by the ingestion WAL's record frames, the
/// verdict archive and the container frame. Both directions are total:
/// every bit pattern round-trips, including `±0.0`, subnormals and
/// infinities.
pub mod lanes {
    /// Appends a `u32` as 4 little-endian bytes.
    pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` as 8 little-endian bytes.
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (8 LE bytes, exact).
    pub fn put_f64_bits(buf: &mut Vec<u8>, v: f64) {
        put_u64(buf, v.to_bits());
    }

    /// Reads the `u32` lane at byte offset `at`, or `None` when the slice
    /// ends before the lane does.
    pub fn get_u32(bytes: &[u8], at: usize) -> Option<u32> {
        let lane = bytes.get(at..at.checked_add(4)?)?;
        Some(u32::from_le_bytes(lane.try_into().expect("4-byte lane")))
    }

    /// Reads the `u64` lane at byte offset `at`.
    pub fn get_u64(bytes: &[u8], at: usize) -> Option<u64> {
        let lane = bytes.get(at..at.checked_add(8)?)?;
        Some(u64::from_le_bytes(lane.try_into().expect("8-byte lane")))
    }

    /// Reads the `f64` bit-pattern lane at byte offset `at` (exact).
    pub fn get_f64_bits(bytes: &[u8], at: usize) -> Option<f64> {
        get_u64(bytes, at).map(f64::from_bits)
    }
}

/// The column codec, the container's magic and the checksum of every
/// framed file.
///
/// A column is its entries' successive differences — the first taken from
/// zero — zigzag-folded and written as LEB128 varints. Sorted keys, tick
/// columns and small counters shrink to a byte or two an entry, and float
/// bit patterns cost what their varying bits need (docs/persistence.md
/// measures this one codec against the five per-column modes it
/// replaced). The entry count is implied by the value's length, which the
/// reader has already checked against its input, so decoding allocates
/// nothing the input does not pay for.
pub mod binary {
    use super::PersistError;

    /// Magic prefix of a sealed container.
    pub const MAGIC: &[u8; 8] = b"SPOTBIN1";

    /// The LEB128 bytes of `v`, low group first, as an iterator a length
    /// can be spliced in from; the columns' hot loop is [`put_varint`].
    pub(crate) fn varint(mut v: u64) -> impl Iterator<Item = u8> {
        let mut done = false;
        std::iter::from_fn(move || {
            let byte = v as u8 & 0x7f;
            v >>= 7;
            match (done, v) {
                (true, _) => None,
                (false, 0) => {
                    done = true;
                    Some(byte)
                }
                _ => Some(byte | 0x80),
            }
        })
    }

    /// Appends the LEB128 bytes of `v`.
    pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    pub(crate) fn get_varint(bytes: &[u8], at: &mut usize) -> Result<u64, PersistError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let b = *bytes
                .get(*at)
                .ok_or_else(|| PersistError::custom("varint: truncated input"))?;
            *at += 1;
            if shift == 63 && b > 1 {
                return Err(PersistError::custom("varint: value overflows u64"));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(PersistError::custom("varint: too many continuation bytes"))
    }

    /// Appends a column value (nothing at all for an empty column).
    pub(crate) fn encode_col(col: impl IntoIterator<Item = u64>, out: &mut Vec<u8>) {
        let mut prev = 0u64;
        for v in col {
            let delta = v.wrapping_sub(prev) as i64;
            put_varint(out, ((delta << 1) ^ (delta >> 63)) as u64);
            prev = v;
        }
    }

    /// Decodes a column value. Entries are pushed as they are read, so
    /// the column never holds more than its bytes describe.
    pub(crate) fn decode_col(bytes: &[u8]) -> Result<Vec<u64>, PersistError> {
        let (mut col, mut at, mut prev) = (Vec::new(), 0, 0u64);
        while at < bytes.len() {
            let z = get_varint(bytes, &mut at)?;
            prev = prev.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg());
            col.push(prev);
        }
        Ok(col)
    }

    /// Word-wise FNV-1a over eight interleaved streams: words 0,8,16,…
    /// fold into stream 0, words 1,9,17,… into stream 1, and so on (final
    /// partial word zero-padded); the digest folds the eight stream
    /// hashes and then the total length into one final FNV chain. The
    /// integrity checksum of every framed file — checkpoint containers,
    /// WAL frames, verdict-archive frames — so on-disk corruption (a
    /// flipped bit in a stored bit pattern, a truncated column) is a typed
    /// error at load time instead of a silently wrong value. Word-wise,
    /// and the eight independent multiply chains pipeline where a single
    /// chain is latency-bound — a multi-megabyte container trailer must
    /// not cost more than the encode itself. Not cryptographic: it guards
    /// against storage faults, not adversaries.
    #[derive(Debug, Clone)]
    pub struct Checksum64 {
        streams: [u64; 8],
        next: usize,
        pending: [u8; 8],
        fill: usize,
        len: u64,
    }

    impl Default for Checksum64 {
        fn default() -> Self {
            Self::new()
        }
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    impl Checksum64 {
        /// Empty-input state.
        pub fn new() -> Self {
            Checksum64 {
                streams: [FNV_OFFSET; 8],
                next: 0,
                pending: [0; 8],
                fill: 0,
                len: 0,
            }
        }

        fn fold(&mut self, word: u64) {
            let s = &mut self.streams[self.next];
            *s = (*s ^ word).wrapping_mul(FNV_PRIME);
            self.next = (self.next + 1) & 7;
        }

        /// Absorbs more input.
        pub fn update(&mut self, mut bytes: &[u8]) {
            self.len += bytes.len() as u64;
            if self.fill > 0 {
                let take = bytes.len().min(8 - self.fill);
                self.pending[self.fill..self.fill + take].copy_from_slice(&bytes[..take]);
                self.fill += take;
                bytes = &bytes[take..];
                if self.fill == 8 {
                    let word = u64::from_le_bytes(self.pending);
                    self.fold(word);
                    self.fill = 0;
                } else {
                    return;
                }
            }
            // Fast path once the stream cursor is aligned (it always is
            // for one-shot hashing): eight words per iteration into eight
            // independent chains — the word→stream mapping (word i →
            // stream i mod 8) is identical to the rotating slow path.
            if self.next == 0 {
                let mut s = self.streams;
                let word = |lane: &[u8]| u64::from_le_bytes(lane.try_into().expect("8-byte word"));
                let mut blocks = bytes.chunks_exact(64);
                for block in &mut blocks {
                    for (k, lane) in block.chunks_exact(8).enumerate() {
                        s[k] = (s[k] ^ word(lane)).wrapping_mul(FNV_PRIME);
                    }
                }
                self.streams = s;
                bytes = blocks.remainder();
            }
            let mut rest = bytes.chunks_exact(8);
            for lane in &mut rest {
                let word = u64::from_le_bytes(lane.try_into().expect("8-byte word"));
                self.fold(word);
            }
            let tail = rest.remainder();
            self.pending[..tail.len()].copy_from_slice(tail);
            self.fill = tail.len();
        }

        /// Final digest (partial word zero-padded, the eight stream
        /// hashes folded into one chain, length folded last so trailing
        /// zero bytes still change the sum).
        pub fn finish(mut self) -> u64 {
            if self.fill > 0 {
                self.pending[self.fill..].fill(0);
                let word = u64::from_le_bytes(self.pending);
                self.fold(word);
            }
            let mut hash = FNV_OFFSET;
            for s in self.streams {
                hash = (hash ^ s).wrapping_mul(FNV_PRIME);
            }
            (hash ^ self.len).wrapping_mul(FNV_PRIME)
        }
    }

    /// One-shot word-wise checksum of a byte slice.
    pub fn checksum64(bytes: &[u8]) -> u64 {
        let mut c = Checksum64::new();
        c.update(bytes);
        c.finish()
    }
}

/// Restore failure: the captured bytes do not describe a valid state for
/// the component (missing field, wrong shape, out-of-range value).
/// Converts into [`SpotError::SnapshotCorrupt`].
#[derive(Debug, Clone, PartialEq)]
pub struct PersistError(pub String);

impl PersistError {
    /// Creates an error with a custom message.
    pub fn custom(msg: impl Into<String>) -> Self {
        PersistError(msg.into())
    }

    /// Adds field context to an error.
    pub fn in_field(self, field: &str) -> Self {
        PersistError(format!("{field}: {}", self.0))
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "state restore error: {}", self.0)
    }
}

impl std::error::Error for PersistError {}

impl From<PersistError> for SpotError {
    fn from(e: PersistError) -> Self {
        SpotError::SnapshotCorrupt(e.0)
    }
}

/// Capture/restore of a component's complete runtime state.
///
/// `capture` must write everything `restore` needs to rebuild the
/// component bit-exactly; `restore` must leave the component exactly as it
/// was at capture time (derived caches may be rebuilt).
pub trait DurableState {
    /// Writes the component's runtime state.
    fn capture(&self, w: &mut StateWriter);

    /// Rebuilds the component's runtime state from its captured fields.
    fn restore(&mut self, r: &StateReader<'_>) -> Result<(), PersistError>;
}

/// Appends one object's named fields to a byte buffer; nested objects and
/// lists go into the same buffer, each behind its length.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer whose fields form the root object of a sealed container:
    /// `SPOTBIN1 | version u32 LE | fields | checksum64 u64 LE`, the
    /// checksum taken over everything after the magic. Finish it with
    /// [`StateWriter::seal`]; open it with [`StateReader::open`].
    pub fn container(version: u32) -> Self {
        let mut w = Self::new();
        w.buf.extend_from_slice(MAGIC);
        lanes::put_u32(&mut w.buf, version);
        w
    }

    /// The object's field bytes, for [`StateReader::new`].
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends the checksum trailer to a [`StateWriter::container`]. The
    /// buffer gives back its growth slack: a sealed container is kept
    /// (as a tenant's restore point), not appended to.
    pub fn seal(mut self) -> Vec<u8> {
        let sum = checksum64(&self.buf[MAGIC.len()..]);
        lanes::put_u64(&mut self.buf, sum);
        self.buf.shrink_to_fit();
        self.buf
    }

    fn name(&mut self, name: &str) {
        put_varint(&mut self.buf, name.len() as u64);
        self.buf.extend_from_slice(name.as_bytes());
    }

    /// Reserves room for a length that is only known once the value is
    /// written; [`StateWriter::close`] fills it in.
    fn open(&mut self) -> usize {
        self.buf.extend_from_slice(&[0, 0]);
        self.buf.len()
    }

    /// Writes the varint length of everything since `open`, in place of
    /// the two reserved bytes (values of 128 B – 16 KiB fit exactly; the
    /// rest move by the difference).
    fn close(&mut self, start: usize) {
        let len = (self.buf.len() - start) as u64;
        self.buf.splice(start - 2..start, varint(len));
    }

    /// Unsigned scalar.
    pub fn u64(&mut self, name: &str, v: u64) {
        self.name(name);
        let start = self.open();
        put_varint(&mut self.buf, v);
        self.close(start);
    }

    /// Boolean scalar.
    pub fn bool(&mut self, name: &str, v: bool) {
        self.bytes(name, &[u8::from(v)]);
    }

    /// Float scalar, stored as its IEEE-754 bit pattern (exact).
    pub fn f64_bits(&mut self, name: &str, v: f64) {
        self.u64(name, v.to_bits());
    }

    /// Raw bytes (identifiers, a nested sealed container), copied verbatim.
    pub fn bytes(&mut self, name: &str, v: &[u8]) {
        self.name(name);
        put_varint(&mut self.buf, v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Column of unsigned scalars, in the column codec of [`binary`].
    pub fn u64_col(&mut self, name: &str, vs: impl IntoIterator<Item = u64>) {
        self.name(name);
        let start = self.open();
        encode_col(vs, &mut self.buf);
        self.close(start);
    }

    /// Column of floats, stored as bit patterns (exact).
    pub fn f64_bits_col(&mut self, name: &str, vs: impl IntoIterator<Item = f64>) {
        self.u64_col(name, vs.into_iter().map(f64::to_bits));
    }

    /// Column of 128-bit values, flattened into `[hi, lo, hi, lo, …]`.
    pub fn u128_col(&mut self, name: &str, vs: impl IntoIterator<Item = u128>) {
        self.u64_col(
            name,
            vs.into_iter().flat_map(|v| [(v >> 64) as u64, v as u64]),
        );
    }

    /// Column-encoded list of `(tick, point)` pairs — the shared codec for
    /// the reservoir and the outlier buffer: a `dims` scalar plus parallel
    /// `ticks` / flat bit-pattern `values` columns.
    pub fn point_list(&mut self, name: &str, items: &[(u64, crate::point::DataPoint)]) {
        let dims = items.first().map_or(0, |(_, p)| p.dims());
        self.nested(name, |w| {
            w.u64("dims", dims as u64);
            w.u64_col("ticks", items.iter().map(|(t, _)| *t));
            w.f64_bits_col(
                "values",
                items.iter().flat_map(|(_, p)| p.values().iter().copied()),
            );
        });
    }

    /// Nested component state captured via [`DurableState`].
    pub fn component(&mut self, name: &str, c: &dyn DurableState) {
        self.nested(name, |w| c.capture(w));
    }

    /// Nested object built by a closure.
    pub fn nested(&mut self, name: &str, f: impl FnOnce(&mut StateWriter)) {
        self.name(name);
        let start = self.open();
        f(self);
        self.close(start);
    }

    /// List of nested objects, one per item, each built by `f`.
    pub fn nested_list<T>(
        &mut self,
        name: &str,
        items: impl IntoIterator<Item = T>,
        mut f: impl FnMut(&mut StateWriter, T),
    ) {
        self.nested(name, |w| {
            for item in items {
                let start = w.open();
                f(w, item);
                w.close(start);
            }
        });
    }
}

/// Reads a varint length at `at` and returns the slice of that many bytes
/// after it — once the length is known to fit in what remains.
fn take<'a>(bytes: &'a [u8], at: &mut usize) -> Result<&'a [u8], PersistError> {
    let len = get_varint(bytes, at)?;
    let left = bytes.len() - *at;
    let len = usize::try_from(len)
        .ok()
        .filter(|&len| len <= left)
        .ok_or_else(|| {
            PersistError::custom(format!("length {len} overruns the {left} bytes left"))
        })?;
    let value = &bytes[*at..*at + len];
    *at += len;
    Ok(value)
}

/// Typed reads over one object's captured fields, borrowed from the
/// buffer they were captured into.
#[derive(Debug, Clone)]
pub struct StateReader<'a> {
    fields: Vec<(&'a [u8], &'a [u8])>,
}

impl<'a> StateReader<'a> {
    /// Indexes the fields of an object written by a [`StateWriter`].
    pub fn new(bytes: &'a [u8]) -> Result<Self, PersistError> {
        let mut fields = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let name = take(bytes, &mut at)?;
            fields.push((name, take(bytes, &mut at)?));
        }
        Ok(StateReader { fields })
    }

    /// Opens a sealed container ([`StateWriter::container`]): checks the
    /// magic and the checksum, then the version stamp, then indexes the
    /// root object. A stamp other than `version` is
    /// [`SpotError::UnsupportedSnapshotVersion`]; anything else that is
    /// not a whole container is [`SpotError::SnapshotCorrupt`].
    pub fn open(bytes: &'a [u8], version: u32) -> crate::Result<Self> {
        let corrupt = |m: String| SpotError::SnapshotCorrupt(format!("container: {m}"));
        let end = bytes
            .len()
            .checked_sub(8)
            .filter(|&end| end >= MAGIC.len() + 4)
            .ok_or_else(|| corrupt(format!("{} bytes is shorter than a frame", bytes.len())))?;
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let body = &bytes[MAGIC.len()..end];
        let (stored, want) = (lanes::get_u64(bytes, end), Some(checksum64(body)));
        if stored != want {
            return Err(corrupt("checksum mismatch".into()));
        }
        let stamp = stamp(body);
        if stamp != version {
            return Err(SpotError::UnsupportedSnapshotVersion(stamp));
        }
        Ok(StateReader::new(&body[4..])?)
    }

    fn field(&self, name: &str) -> Result<&'a [u8], PersistError> {
        self.fields
            .iter()
            .find(|(n, _)| *n == name.as_bytes())
            .map(|&(_, v)| v)
            .ok_or_else(|| PersistError::custom(format!("missing field `{name}`")))
    }

    /// Unsigned scalar.
    pub fn u64(&self, name: &str) -> Result<u64, PersistError> {
        let v = self.field(name)?;
        let mut at = 0;
        match get_varint(v, &mut at) {
            Ok(n) if at == v.len() => Ok(n),
            _ => Err(PersistError::custom(format!(
                "field `{name}`: expected u64, found {} bytes",
                v.len()
            ))),
        }
    }

    /// Unsigned scalar that must fit a `usize` (sizes, capacities).
    pub fn usize(&self, name: &str) -> Result<usize, PersistError> {
        let n = self.u64(name)?;
        usize::try_from(n)
            .map_err(|_| PersistError::custom(format!("field `{name}`: {n} overflows usize")))
    }

    /// Boolean scalar.
    pub fn bool(&self, name: &str) -> Result<bool, PersistError> {
        match self.field(name)? {
            [0] => Ok(false),
            [1] => Ok(true),
            other => Err(PersistError::custom(format!(
                "field `{name}`: expected bool, found {other:?}"
            ))),
        }
    }

    /// Float scalar stored as a bit pattern.
    pub fn f64_bits(&self, name: &str) -> Result<f64, PersistError> {
        self.u64(name).map(f64::from_bits)
    }

    /// Raw bytes, borrowed.
    pub fn bytes(&self, name: &str) -> Result<&'a [u8], PersistError> {
        self.field(name)
    }

    /// Column of unsigned scalars.
    pub fn u64_col(&self, name: &str) -> Result<Vec<u64>, PersistError> {
        decode_col(self.field(name)?).map_err(|e| e.in_field(name))
    }

    /// Column of floats stored as bit patterns.
    pub fn f64_bits_col(&self, name: &str) -> Result<Vec<f64>, PersistError> {
        Ok(self
            .u64_col(name)?
            .into_iter()
            .map(f64::from_bits)
            .collect())
    }

    /// Column of 128-bit values flattened as `[hi, lo, …]`.
    pub fn u128_col(&self, name: &str) -> Result<Vec<u128>, PersistError> {
        let flat = self.u64_col(name)?;
        if flat.len() % 2 != 0 {
            return Err(PersistError::custom(format!(
                "column `{name}`: odd number of u128 lanes"
            )));
        }
        Ok(flat
            .chunks_exact(2)
            .map(|c| ((c[0] as u128) << 64) | c[1] as u128)
            .collect())
    }

    /// Decodes a [`StateWriter::point_list`] column group. When
    /// `expect_dims` is given, every restored point must have exactly that
    /// dimensionality — inconsistent payloads fail here, at load time,
    /// instead of corrupting the detector mid-stream.
    pub fn point_list(
        &self,
        name: &str,
        expect_dims: Option<usize>,
    ) -> Result<Vec<(u64, crate::point::DataPoint)>, PersistError> {
        let r = self.nested(name)?;
        let dims = r.u64("dims")?;
        let ticks = r.u64_col("ticks")?;
        let values = r.f64_bits_col("values")?;
        let fits = usize::try_from(dims)
            .ok()
            .and_then(|d| ticks.len().checked_mul(d))
            .is_some_and(|n| n == values.len());
        if !fits || (!ticks.is_empty() && dims == 0) {
            return Err(PersistError::custom(format!(
                "point list `{name}`: {} ticks × {dims} dims ≠ {} values",
                ticks.len(),
                values.len()
            )));
        }
        let dims = dims as usize;
        if let Some(want) = expect_dims {
            if !ticks.is_empty() && dims != want {
                return Err(PersistError::custom(format!(
                    "point list `{name}`: dimensionality {dims} does not match expected {want}"
                )));
            }
        }
        Ok(ticks
            .into_iter()
            .zip(values.chunks(dims.max(1)))
            .map(|(t, vs)| (t, crate::point::DataPoint::new(vs.to_vec())))
            .collect())
    }

    /// Nested component state.
    pub fn nested(&self, name: &str) -> Result<StateReader<'a>, PersistError> {
        StateReader::new(self.field(name)?).map_err(|e| e.in_field(name))
    }

    /// List of nested component states.
    pub fn nested_list(&self, name: &str) -> Result<Vec<StateReader<'a>>, PersistError> {
        let list = self.field(name)?;
        let mut items = Vec::new();
        let mut at = 0;
        while at < list.len() {
            let item = take(list, &mut at).map_err(|e| e.in_field(name))?;
            items.push(StateReader::new(item).map_err(|e| e.in_field(name))?);
        }
        Ok(items)
    }

    /// Restores a nested component via [`DurableState`].
    pub fn restore_component(
        &self,
        name: &str,
        c: &mut dyn DurableState,
    ) -> Result<(), PersistError> {
        c.restore(&self.nested(name)?).map_err(|e| e.in_field(name))
    }
}

/// A container's version stamp: the `u32` after the magic. Containers of
/// versions 2 and 3 led instead with a tagged value tree whose first field
/// was `version`; that prefix is recognised so an old file is refused by
/// its number rather than by four bytes of tree.
fn stamp(body: &[u8]) -> u32 {
    const TREE_VERSION_KEY: &[u8] = b"\x07version\x03";
    if body.first() == Some(&8) && body.get(2..11) == Some(TREE_VERSION_KEY) {
        if let Ok(v) = get_varint(body, &mut 11) {
            return u32::try_from(v).unwrap_or(u32::MAX);
        }
    }
    lanes::get_u32(body, 0).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(bytes: &[u8]) -> StateReader<'_> {
        StateReader::new(bytes).unwrap()
    }

    #[test]
    fn scalars_roundtrip() {
        let mut w = StateWriter::new();
        w.u64("n", u64::MAX);
        w.bool("b", true);
        w.f64_bits("f", -0.0);
        w.f64_bits("inf", f64::INFINITY);
        w.bytes("id", b"tenant/\xff");
        let v = w.finish();
        let r = read(&v);
        assert_eq!(r.u64("n").unwrap(), u64::MAX);
        assert!(r.bool("b").unwrap());
        assert_eq!(r.f64_bits("f").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64_bits("inf").unwrap(), f64::INFINITY);
        assert_eq!(r.bytes("id").unwrap(), b"tenant/\xff");
    }

    #[test]
    fn columns_roundtrip_bit_exact() {
        let floats = [0.1, -0.0, f64::MIN_POSITIVE / 2.0, 1e308, -3.5];
        let wide = [0u128, 1, u128::MAX, (7u128 << 64) | 9];
        let mut w = StateWriter::new();
        w.f64_bits_col("f", floats.iter().copied());
        w.u128_col("k", wide.iter().copied());
        w.u64_col("u", [3u64, 0, u64::MAX]);
        w.u64_col("empty", []);
        let v = w.finish();
        let r = read(&v);
        let back = r.f64_bits_col("f").unwrap();
        for (a, b) in floats.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(r.u128_col("k").unwrap(), wide);
        assert_eq!(r.u64_col("u").unwrap(), vec![3, 0, u64::MAX]);
        assert!(r.u64_col("empty").unwrap().is_empty());
    }

    #[test]
    fn missing_and_mistyped_fields_error() {
        let mut w = StateWriter::new();
        w.u64("n", 300);
        w.u64_col("c", [1u64, 2]);
        let v = w.finish();
        let r = read(&v);
        assert!(r.u64("gone").is_err());
        assert!(r.bool("n").is_err());
        assert!(r.u64("c").is_err());
        assert!(r.nested("n").is_err());
        assert!(r.nested_list("n").is_err());
        // A field whose length runs past the object is refused at index.
        assert!(StateReader::new(&[1, b'n', 5, 0]).is_err());
        assert!(StateReader::new(&[1]).is_err());
    }

    #[test]
    fn nested_components_compose() {
        struct Counter(u64);
        impl DurableState for Counter {
            fn capture(&self, w: &mut StateWriter) {
                w.u64("count", self.0);
            }
            fn restore(&mut self, r: &StateReader<'_>) -> Result<(), PersistError> {
                self.0 = r.u64("count")?;
                Ok(())
            }
        }
        let mut w = StateWriter::new();
        w.component("inner", &Counter(41));
        w.nested_list("many", [Counter(1), Counter(200), Counter(3)], |w, c| {
            c.capture(w)
        });
        w.nested_list("none", std::iter::empty::<u64>(), |_, _| {});
        let v = w.finish();
        let r = read(&v);
        let mut c = Counter(0);
        r.restore_component("inner", &mut c).unwrap();
        assert_eq!(c.0, 41);
        let many: Vec<u64> = r
            .nested_list("many")
            .unwrap()
            .iter()
            .map(|r| r.u64("count").unwrap())
            .collect();
        assert_eq!(many, vec![1, 200, 3]);
        assert!(r.nested_list("none").unwrap().is_empty());
    }

    #[test]
    fn point_list_roundtrips_and_validates() {
        use crate::point::DataPoint;
        let items = vec![
            (3u64, DataPoint::new(vec![0.25, -0.0])),
            (9, DataPoint::new(vec![f64::INFINITY, 1e-310])),
        ];
        let mut w = StateWriter::new();
        w.point_list("pts", &items);
        w.point_list("empty", &[]);
        let v = w.finish();
        let r = read(&v);
        let back = r.point_list("pts", Some(2)).unwrap();
        assert_eq!(back.len(), 2);
        for ((ta, pa), (tb, pb)) in items.iter().zip(&back) {
            assert_eq!(ta, tb);
            for (a, b) in pa.values().iter().zip(pb.values()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!(r.point_list("empty", Some(5)).unwrap().is_empty());
        // Dimensionality mismatches fail at decode time.
        assert!(r.point_list("pts", Some(3)).is_err());
        // dims = 0 with non-empty ticks is rejected, not silently dropped;
        // so is a dims count whose product with the ticks overflows.
        for dims in [0, u64::MAX / 2 + 1] {
            let mut w = StateWriter::new();
            w.nested("bad", |w| {
                w.u64("dims", dims);
                w.u64_col("ticks", [1u64, 2]);
                w.f64_bits_col("values", []);
            });
            let v = w.finish();
            assert!(read(&v).point_list("bad", None).is_err(), "dims {dims}");
        }
    }

    #[test]
    fn lanes_roundtrip_bit_exact_and_bound_check() {
        let mut buf = Vec::new();
        lanes::put_u32(&mut buf, 0xDEAD_BEEF);
        lanes::put_u64(&mut buf, u64::MAX - 7);
        for v in [0.1, -0.0, f64::MIN_POSITIVE / 2.0, f64::INFINITY, 1e308] {
            lanes::put_f64_bits(&mut buf, v);
        }
        assert_eq!(buf.len(), 4 + 8 + 5 * 8);
        assert_eq!(lanes::get_u32(&buf, 0), Some(0xDEAD_BEEF));
        assert_eq!(lanes::get_u64(&buf, 4), Some(u64::MAX - 7));
        let back = lanes::get_f64_bits(&buf, 12).unwrap();
        assert_eq!(back.to_bits(), 0.1f64.to_bits());
        assert_eq!(
            lanes::get_f64_bits(&buf, 20).unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        // Reads past the end (or overflowing offsets) are None, not panics.
        assert_eq!(lanes::get_u64(&buf, buf.len() - 7), None);
        assert_eq!(lanes::get_u32(&buf, usize::MAX), None);
        assert_eq!(lanes::get_u64(&buf, usize::MAX - 3), None);
    }

    #[test]
    fn checksum64_is_sensitive_to_every_bit() {
        // A single flipped bit anywhere in a WAL-record-sized payload
        // changes the checksum.
        let base: Vec<u8> = (0..140u8).map(|b| b.wrapping_mul(37)).collect();
        let want = binary::checksum64(&base);
        for i in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(binary::checksum64(&flipped), want, "bit {i}");
        }
    }

    #[test]
    fn persist_error_maps_to_spot_error() {
        let e: SpotError = PersistError::custom("bad").into();
        assert!(matches!(e, SpotError::SnapshotCorrupt(_)));
    }

    fn sample_object(w: &mut StateWriter) {
        w.u64("count", u64::MAX);
        w.bool("warm", true);
        w.f64_bits("thresh", -0.0);
        w.bytes("label", "detector/α\n\"q\"".as_bytes());
        w.u64_col("empty", []);
        w.u64_col("ticks", (0..300).map(|i| 1_000 + i * 3));
        w.f64_bits_col("moments", [0.1, -0.0, f64::INFINITY, 1e-310, 1e308]);
        w.u128_col("keys", [0u128, u128::MAX, (7u128 << 64) | 9]);
        w.u64_col("mask", std::iter::repeat_n(0xfeed, 40));
        w.u64_col("long", (0..5_000).map(|i| (i as f64).sqrt().to_bits()));
        w.nested("inner", |w| {
            w.u64_col("small", [1, 2, 3]);
            w.nested_list("stores", 0..3u64, |w, i| w.u64("mask", 1 << i));
        });
    }

    #[test]
    fn binary_roundtrip_preserves_tree_equality() {
        let mut w = StateWriter::new();
        sample_object(&mut w);
        let bytes = w.finish();
        let r = read(&bytes);
        assert_eq!(r.u64_col("ticks").unwrap().len(), 300);
        assert_eq!(r.u64_col("long").unwrap().len(), 5_000);
        assert_eq!(
            r.u128_col("keys").unwrap(),
            vec![0u128, u128::MAX, (7u128 << 64) | 9]
        );
        assert_eq!(
            r.f64_bits_col("moments").unwrap()[1].to_bits(),
            (-0.0f64).to_bits()
        );
        // Each column re-encodes to the bytes it was read from: capture →
        // restore → capture is a byte-level fixed point.
        for name in ["empty", "ticks", "moments", "keys", "mask", "long"] {
            let mut again = Vec::new();
            binary::encode_col(r.u64_col(name).unwrap(), &mut again);
            assert_eq!(again, r.bytes(name).unwrap(), "{name}");
        }
        let inner = r.nested("inner").unwrap();
        let masks: Vec<u64> = inner
            .nested_list("stores")
            .unwrap()
            .iter()
            .map(|s| s.u64("mask").unwrap())
            .collect();
        assert_eq!(masks, vec![1, 2, 4]);
    }

    /// One column's value bytes, as a writer lays them out.
    fn column_bytes(col: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        binary::encode_col(col.iter().copied(), &mut out);
        out
    }

    #[test]
    fn binary_column_modes_cover_raw_varint_delta_const() {
        // The shapes the retired RAW / VARINT / DELTA / CONST modes were
        // chosen for round-trip through the one codec, each at the size
        // its varying bits need.
        let cases: Vec<(Vec<u64>, usize)> = vec![
            (
                [0.1f64, 1e308, -3.5, f64::MIN_POSITIVE]
                    .iter()
                    .map(|f| f.to_bits())
                    .collect(),
                40, // incompressible float bit patterns
            ),
            ((0..500).map(|i| i * 37 % 64).collect(), 500), // small counters
            ((0..500).map(|i| 1_000_000 + i * 5).collect(), 503), // monotone ticks
            (vec![42; 256], 256),                           // all equal
            (vec![u64::MAX], 1),                            // single entry
            (Vec::new(), 0),                                // empty
        ];
        for (col, at_most) in cases {
            let bytes = column_bytes(&col);
            assert!(
                bytes.len() <= at_most,
                "{} bytes for {:?}",
                bytes.len(),
                &col[..1.min(col.len())]
            );
            assert_eq!(binary::decode_col(&bytes).unwrap(), col);
        }
    }

    #[test]
    fn binary_gorilla_compresses_slow_moving_floats() {
        // Neighbouring decayed counts — the column shape the retired
        // GORILLA mode targeted — share sign, exponent and the high
        // mantissa bits: their differences must beat eight bytes an entry
        // and still round-trip exactly.
        let col: Vec<u64> = (0..512)
            .map(|i| (1000.0 + (i % 29) as f64 * 0.125).to_bits())
            .collect();
        let bytes = column_bytes(&col);
        assert!(
            bytes.len() < col.len() * 8,
            "{} bytes for {} entries",
            bytes.len(),
            col.len()
        );
        assert_eq!(binary::decode_col(&bytes).unwrap(), col);
        // NaN payloads, signed zeros and infinities are bit patterns like
        // any other: a value-level round-trip must be exact.
        let specials: Vec<u64> = [0.0f64, -0.0, f64::INFINITY, f64::NEG_INFINITY]
            .iter()
            .map(|f| f.to_bits())
            .chain([f64::NAN.to_bits() | 0xdead, 0, u64::MAX])
            .flat_map(|b| std::iter::repeat_n(b, 40))
            .collect();
        assert_eq!(
            binary::decode_col(&column_bytes(&specials)).unwrap(),
            specials
        );
    }

    #[test]
    fn binary_gorilla_rejects_malformed_lanes() {
        // A column whose last entry is cut mid-varint, and one whose entry
        // runs to eleven bytes: typed errors, not panics.
        assert!(binary::decode_col(&[2, 0x80]).is_err());
        assert!(binary::decode_col(&[0xff; 11]).is_err());
        assert_eq!(binary::decode_col(&[2, 1]).unwrap(), vec![1, 0]);
    }

    #[test]
    fn binary_array_of_u64_takes_column_tag() {
        // Every column helper lands in the one column codec: float bit
        // patterns written as floats or as their u64 patterns are the same
        // bytes, and an empty column is an empty value.
        let floats: Vec<f64> = (0..50).map(|i| i as f64 * 0.5).collect();
        let mut a = StateWriter::new();
        a.f64_bits_col("c", floats.iter().copied());
        let mut b = StateWriter::new();
        b.u64_col("c", floats.iter().map(|f| f.to_bits()));
        assert_eq!(a.finish(), b.finish());
        let mut e = StateWriter::new();
        e.u64_col("c", []);
        assert_eq!(e.finish(), vec![1, b'c', 0]);
    }

    #[test]
    fn binary_container_detects_truncation_and_bit_flips() {
        let mut w = StateWriter::container(7);
        sample_object(&mut w);
        let frame = w.seal();
        assert_eq!(&frame[..8], MAGIC);
        let r = StateReader::open(&frame, 7).unwrap();
        assert_eq!(r.u64_col("ticks").unwrap().len(), 300);
        assert_eq!(
            StateReader::open(&frame, 6).unwrap_err(),
            SpotError::UnsupportedSnapshotVersion(7)
        );
        // Truncation at every prefix length: typed error, never a panic.
        for cut in 0..frame.len() {
            assert!(
                matches!(
                    StateReader::open(&frame[..cut], 7),
                    Err(SpotError::SnapshotCorrupt(_))
                ),
                "cut {cut}"
            );
        }
        // A single flipped bit anywhere in the frame is detected.
        for at in (0..frame.len()).step_by(7) {
            let mut bad = frame.clone();
            bad[at] ^= 0x10;
            assert!(
                matches!(
                    StateReader::open(&bad, 7),
                    Err(SpotError::SnapshotCorrupt(_))
                ),
                "flip at {at}"
            );
        }
    }

    #[test]
    fn binary_decode_rejects_malformed_payloads() {
        // A huge field length with no body fails before anything is
        // sliced or allocated.
        let mut huge = vec![1u8, b'x'];
        huge.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert!(StateReader::new(&huge).is_err());
        // So does a list entry that claims more than the list holds.
        let r = StateReader::new(&[1, b'l', 2, 9, 0]).unwrap();
        assert!(r.nested_list("l").is_err());
        // A varint that overflows u64, or never ends.
        assert!(binary::get_varint(
            &[0xff; 9].iter().chain(&[2]).copied().collect::<Vec<_>>(),
            &mut 0
        )
        .is_err());
        assert!(binary::get_varint(&[0x80; 11], &mut 0).is_err());
    }

    #[test]
    fn checksum64_streams_identically_to_one_shot() {
        let data: Vec<u8> = (0..1021u32).map(|i| (i * 31 % 251) as u8).collect();
        let one = binary::checksum64(&data);
        for split in [0, 1, 7, 8, 9, 500, data.len()] {
            let mut c = binary::Checksum64::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), one, "split {split}");
        }
        // Length is folded: zero-padding is not invisible.
        assert_ne!(binary::checksum64(&[0u8; 8]), binary::checksum64(&[0u8; 9]));
        assert_ne!(binary::checksum64(b""), binary::checksum64(&[0u8]));
    }
}
