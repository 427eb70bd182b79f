//! Sparse in-memory sector storage.
//!
//! Holds the *media contents* of a simulated device: unwritten sectors read
//! back as zeros, like a freshly TRIMmed drive. This is the ground truth
//! that crash-recovery experiments audit against.
//!
//! Media is kept in fixed-size chunks of 512 sectors (256 KiB), created on
//! a chunk's first write. A chunk is one zero-initialised allocation —
//! the system allocator hands large zeroed blocks back as untouched pages,
//! so resident memory tracks the pages actually written — plus a bitmap of
//! the sectors written, which is what [`SectorStore::populated_sectors`]
//! counts. [`SectorStore::discard`] clears bits and frees a chunk once none
//! is left, which is how a log device's memory follows the live log rather
//! than every byte ever logged. A chunk carries no per-sector allocation or
//! map entry.

use rapilog_simcore::bytes::SectorBuf;
use rapilog_simcore::hash::FastMap;

use crate::SECTOR_SIZE;

/// Sectors per media chunk (256 KiB).
const CHUNK_SECTORS: u64 = 512;
const CHUNK_BYTES: usize = CHUNK_SECTORS as usize * SECTOR_SIZE;

/// One chunk of media and the sectors of it ever written.
struct Chunk {
    bytes: Box<[u8]>,
    written: [u64; CHUNK_SECTORS as usize / 64],
}

impl Chunk {
    fn new() -> Self {
        Chunk {
            bytes: vec![0u8; CHUNK_BYTES].into_boxed_slice(),
            written: [0; CHUNK_SECTORS as usize / 64],
        }
    }

    /// Marks `n` sectors from `at` unwritten; returns how many were
    /// written.
    fn clear_written(&mut self, at: usize, n: usize) -> usize {
        let mut cleared = 0;
        for s in at..at + n {
            let (word, bit) = (s / 64, 1u64 << (s % 64));
            cleared += usize::from(self.written[word] & bit != 0);
            self.written[word] &= !bit;
        }
        cleared
    }

    /// Marks `n` sectors from `at` written; returns how many were not yet.
    fn mark_written(&mut self, at: usize, n: usize) -> usize {
        let mut fresh = 0;
        for s in at..at + n {
            let (word, bit) = (s / 64, 1u64 << (s % 64));
            fresh += usize::from(self.written[word] & bit == 0);
            self.written[word] |= bit;
        }
        fresh
    }
}

/// Splits the run of `count` sectors from `first` at chunk boundaries,
/// yielding `(chunk, first sector within it, sectors, sectors before)`.
fn pieces(first: u64, count: u64) -> impl Iterator<Item = (u64, usize, usize, usize)> {
    let mut done = 0u64;
    std::iter::from_fn(move || {
        if done == count {
            return None;
        }
        let sector = first + done;
        let at = sector % CHUNK_SECTORS;
        let n = (count - done).min(CHUNK_SECTORS - at);
        let piece = (
            sector / CHUNK_SECTORS,
            at as usize,
            n as usize,
            done as usize,
        );
        done += n;
        Some(piece)
    })
}

/// Sparse chunked store from sector number to sector contents.
pub struct SectorStore {
    chunks: FastMap<u64, Chunk>,
    populated: usize,
}

impl SectorStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        SectorStore {
            chunks: FastMap::default(),
            populated: 0,
        }
    }

    /// Writes one sector.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one sector long.
    pub fn write_sector(&mut self, sector: u64, data: &[u8]) {
        assert_eq!(data.len(), SECTOR_SIZE, "write_sector: bad length");
        self.write_run(sector, data);
    }

    /// Reads one sector into `buf` (zeros if never written).
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly one sector long.
    pub fn read_sector(&self, sector: u64, buf: &mut [u8]) {
        assert_eq!(buf.len(), SECTOR_SIZE, "read_sector: bad length");
        self.read_run(sector, buf);
    }

    /// Writes a contiguous run of sectors from `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not a positive multiple of the sector size.
    pub fn write_run(&mut self, first_sector: u64, data: &[u8]) {
        assert!(
            !data.is_empty() && data.len().is_multiple_of(SECTOR_SIZE),
            "write_run: bad length {}",
            data.len()
        );
        let count = (data.len() / SECTOR_SIZE) as u64;
        for (index, at, n, before) in pieces(first_sector, count) {
            let chunk = self.chunks.entry(index).or_insert_with(Chunk::new);
            chunk.bytes[at * SECTOR_SIZE..(at + n) * SECTOR_SIZE]
                .copy_from_slice(&data[before * SECTOR_SIZE..(before + n) * SECTOR_SIZE]);
            self.populated += chunk.mark_written(at, n);
        }
    }

    /// Reads a contiguous run of sectors into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not a positive multiple of the sector size.
    pub fn read_run(&self, first_sector: u64, buf: &mut [u8]) {
        assert!(
            !buf.is_empty() && buf.len().is_multiple_of(SECTOR_SIZE),
            "read_run: bad length {}",
            buf.len()
        );
        let count = (buf.len() / SECTOR_SIZE) as u64;
        for (index, at, n, before) in pieces(first_sector, count) {
            let out = &mut buf[before * SECTOR_SIZE..(before + n) * SECTOR_SIZE];
            match self.chunks.get(&index) {
                Some(chunk) => {
                    out.copy_from_slice(&chunk.bytes[at * SECTOR_SIZE..(at + n) * SECTOR_SIZE])
                }
                None => out.fill(0),
            }
        }
    }

    /// Vectored write: lays `segments` down back to back starting at
    /// `first_sector`. This is the media boundary of the zero-copy log data
    /// path — the one place where acknowledged bytes are actually copied,
    /// like a DMA engine pulling scatter-gather descriptors.
    ///
    /// Returns the number of sectors written.
    ///
    /// # Panics
    ///
    /// Panics if any segment is not a positive multiple of the sector size.
    pub fn write_segments(&mut self, first_sector: u64, segments: &[SectorBuf]) -> u64 {
        let mut cursor = first_sector;
        for seg in segments {
            self.write_run(cursor, seg.as_slice());
            cursor += (seg.len() / SECTOR_SIZE) as u64;
        }
        cursor - first_sector
    }

    /// Vectored write of multiple scatter-gather runs, applied in order
    /// (later runs overwrite earlier ones where they overlap, which is how
    /// the drain preserves newest-wins semantics without re-sorting).
    pub fn write_runs(&mut self, runs: &[crate::IoRun]) {
        for run in runs {
            self.write_segments(run.sector, &run.segments);
        }
    }

    /// Forgets `count` sectors from `first_sector`: they read as zeros
    /// again. A chunk left with no written sector is freed, so discarding a
    /// run piecemeal frees its chunks as surely as discarding it whole.
    pub fn discard(&mut self, first_sector: u64, count: u64) {
        for (index, at, n, _) in pieces(first_sector, count) {
            let Some(chunk) = self.chunks.get_mut(&index) else {
                continue;
            };
            self.populated -= chunk.clear_written(at, n);
            if chunk.written.iter().all(|&w| w == 0) {
                self.chunks.remove(&index);
            } else {
                chunk.bytes[at * SECTOR_SIZE..(at + n) * SECTOR_SIZE].fill(0);
            }
        }
    }

    /// Number of sectors written and not discarded since.
    pub fn populated_sectors(&self) -> usize {
        self.populated
    }

    /// Overwrites a sector with a deterministic "torn garbage" pattern,
    /// simulating a sector that was mid-write when power failed.
    pub fn corrupt_sector(&mut self, sector: u64, seed: u64) {
        self.write_sector(sector, &torn_pattern(sector, seed));
    }
}

/// The garbage [`SectorStore::corrupt_sector`] leaves in `sector`.
fn torn_pattern(sector: u64, seed: u64) -> [u8; SECTOR_SIZE] {
    let mut pattern = [0u8; SECTOR_SIZE];
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15 ^ sector;
    for b in pattern.iter_mut() {
        // Simple xorshift; the point is only that the bytes are neither
        // the old nor the new contents.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = x as u8;
    }
    pattern
}

impl Default for SectorStore {
    fn default() -> Self {
        SectorStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_sectors_read_zero() {
        let store = SectorStore::new();
        let mut buf = [0xFFu8; SECTOR_SIZE];
        store.read_sector(7, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(store.populated_sectors(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut store = SectorStore::new();
        let data = [0x5Au8; SECTOR_SIZE];
        store.write_sector(3, &data);
        let mut buf = [0u8; SECTOR_SIZE];
        store.read_sector(3, &mut buf);
        assert_eq!(buf, data);
        assert_eq!(store.populated_sectors(), 1);
    }

    #[test]
    fn runs_span_sectors() {
        let mut store = SectorStore::new();
        let mut data = vec![0u8; 3 * SECTOR_SIZE];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        store.write_run(10, &data);
        let mut buf = vec![0u8; 3 * SECTOR_SIZE];
        store.read_run(10, &mut buf);
        assert_eq!(buf, data);
        // Middle sector individually.
        let mut one = vec![0u8; SECTOR_SIZE];
        store.read_sector(11, &mut one);
        assert_eq!(&one[..], &data[SECTOR_SIZE..2 * SECTOR_SIZE]);
    }

    #[test]
    fn overwrite_replaces() {
        let mut store = SectorStore::new();
        store.write_sector(0, &[1u8; SECTOR_SIZE]);
        store.write_sector(0, &[2u8; SECTOR_SIZE]);
        let mut buf = [0u8; SECTOR_SIZE];
        store.read_sector(0, &mut buf);
        assert_eq!(buf, [2u8; SECTOR_SIZE]);
        assert_eq!(store.populated_sectors(), 1);
    }

    #[test]
    fn corrupt_sector_changes_contents_deterministically() {
        let mut a = SectorStore::new();
        let mut b = SectorStore::new();
        a.write_sector(5, &[9u8; SECTOR_SIZE]);
        b.write_sector(5, &[9u8; SECTOR_SIZE]);
        a.corrupt_sector(5, 42);
        b.corrupt_sector(5, 42);
        let (mut ba, mut bb) = ([0u8; SECTOR_SIZE], [0u8; SECTOR_SIZE]);
        a.read_sector(5, &mut ba);
        b.read_sector(5, &mut bb);
        assert_eq!(ba, bb, "corruption is deterministic");
        assert_ne!(ba, [9u8; SECTOR_SIZE], "contents actually changed");
    }

    /// Differential test against the obvious model, a map from sector to
    /// contents: random single-sector writes, runs, vectored runs, discards
    /// and corruptions — many straddling chunk boundaries or ending on a
    /// device's last sector — must read back identically and populate the
    /// same sectors.
    #[test]
    fn matches_a_sector_map_reference() {
        use crate::{specs, IoRun};
        use rapilog_simcore::rng::SimRng;
        use std::collections::BTreeMap;

        let sectors = specs::ssd_sata(3 << 20).sectors;
        for seed in 0..6 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut store = SectorStore::new();
            let mut model: BTreeMap<u64, [u8; SECTOR_SIZE]> = BTreeMap::new();
            // Starting points cluster where the chunked layout has edges.
            let start = |rng: &mut SimRng, len: u64| -> u64 {
                let at = match rng.gen_range(0..4u32) {
                    0 => {
                        let edge = rng.gen_range(1..sectors / CHUNK_SECTORS) * CHUNK_SECTORS;
                        edge - rng.gen_range(0..len.min(edge) + 1)
                    }
                    1 => sectors - len,
                    _ => rng.gen_range(0..sectors - len + 1),
                };
                at.min(sectors - len)
            };
            // Each sector gets its own random tag, repeated.
            let fill = |rng: &mut SimRng, n: u64| -> Vec<u8> {
                (0..n)
                    .flat_map(|_| rng.next_u64().to_le_bytes().repeat(SECTOR_SIZE / 8))
                    .collect()
            };
            let apply = |model: &mut BTreeMap<u64, [u8; SECTOR_SIZE]>, at: u64, data: &[u8]| {
                for (i, sec) in data.chunks_exact(SECTOR_SIZE).enumerate() {
                    model.insert(at + i as u64, sec.try_into().unwrap());
                }
            };
            for _ in 0..200 {
                match rng.gen_range(0..5u32) {
                    0 => {
                        let at = start(&mut rng, 1);
                        let data = fill(&mut rng, 1);
                        store.write_sector(at, &data);
                        apply(&mut model, at, &data);
                    }
                    1 => {
                        let n = rng.gen_range(1..2 * CHUNK_SECTORS + 2);
                        let at = start(&mut rng, n);
                        let data = fill(&mut rng, n);
                        store.write_run(at, &data);
                        apply(&mut model, at, &data);
                    }
                    2 => {
                        let runs: Vec<IoRun> = (0..rng.gen_range(1..4u32))
                            .map(|_| {
                                let segs: Vec<u64> = (0..rng.gen_range(1..3u32))
                                    .map(|_| rng.gen_range(1..40))
                                    .collect();
                                let at = start(&mut rng, segs.iter().sum());
                                IoRun {
                                    sector: at,
                                    segments: segs
                                        .iter()
                                        .map(|&n| SectorBuf::from_vec(fill(&mut rng, n)))
                                        .collect(),
                                }
                            })
                            .collect();
                        store.write_runs(&runs);
                        for run in &runs {
                            let mut at = run.sector;
                            for seg in &run.segments {
                                apply(&mut model, at, seg.as_slice());
                                at += (seg.len() / SECTOR_SIZE) as u64;
                            }
                        }
                    }
                    3 => {
                        let n = rng.gen_range(1..2 * CHUNK_SECTORS + 2);
                        let at = start(&mut rng, n);
                        store.discard(at, n);
                        model.retain(|&s, _| !(at..at + n).contains(&s));
                    }
                    _ => {
                        let at = start(&mut rng, 1);
                        let salt = rng.next_u64();
                        store.corrupt_sector(at, salt);
                        model.insert(at, torn_pattern(at, salt));
                    }
                }
                assert_eq!(store.populated_sectors(), model.len(), "seed {seed}");
                let n = rng.gen_range(1..CHUNK_SECTORS + 2);
                let at = start(&mut rng, n);
                let mut got = vec![0xEEu8; n as usize * SECTOR_SIZE];
                store.read_run(at, &mut got);
                for (i, sec) in got.chunks_exact(SECTOR_SIZE).enumerate() {
                    let want = model
                        .get(&(at + i as u64))
                        .copied()
                        .unwrap_or([0; SECTOR_SIZE]);
                    assert!(sec == want, "seed {seed}: sector {} differs", at + i as u64);
                }
            }
            for (&at, want) in &model {
                let mut got = [0u8; SECTOR_SIZE];
                store.read_sector(at, &mut got);
                assert!(got == *want, "seed {seed}: sector {at} differs");
            }
        }
    }

    #[test]
    fn discard_zeroes_and_frees_chunks_even_piecemeal() {
        let mut store = SectorStore::new();
        let n = 3 * CHUNK_SECTORS;
        store.write_run(0, &vec![7u8; n as usize * SECTOR_SIZE]);
        assert_eq!(store.chunks.len(), 3);
        // Whole first chunk at once; the second in two halves; a sliver
        // of the third.
        store.discard(0, CHUNK_SECTORS);
        store.discard(CHUNK_SECTORS, CHUNK_SECTORS / 2);
        assert_eq!(store.chunks.len(), 2, "a half-discarded chunk stays");
        store.discard(CHUNK_SECTORS + CHUNK_SECTORS / 2, CHUNK_SECTORS / 2 + 1);
        assert_eq!(store.chunks.len(), 1, "the emptied chunk is freed");
        assert_eq!(store.populated_sectors(), CHUNK_SECTORS as usize - 1);
        let mut buf = vec![0xFFu8; 2 * SECTOR_SIZE];
        store.read_run(2 * CHUNK_SECTORS - 1, &mut buf);
        assert!(
            buf[..SECTOR_SIZE].iter().all(|&b| b == 0),
            "discarded reads zero"
        );
        assert!(
            buf[SECTOR_SIZE..].iter().all(|&b| b == 0),
            "discarded reads zero"
        );
        store.read_run(2 * CHUNK_SECTORS + 1, &mut buf[..SECTOR_SIZE]);
        assert_eq!(
            &buf[..SECTOR_SIZE],
            &[7u8; SECTOR_SIZE][..],
            "neighbours kept"
        );
        // Discarding what was never written is a no-op.
        store.discard(10 * CHUNK_SECTORS, 5);
        assert_eq!(store.populated_sectors(), CHUNK_SECTORS as usize - 1);
    }

    #[test]
    #[should_panic(expected = "bad length")]
    fn write_run_rejects_partial_sector() {
        let mut store = SectorStore::new();
        store.write_run(0, &[0u8; 100]);
    }
}
