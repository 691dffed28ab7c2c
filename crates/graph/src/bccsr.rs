//! `.bccsr` — the on-disk binary CSR graph format.
//!
//! A `.bccsr` file is the workspace's edge list *and* adjacency
//! structure in one immutable, mmap-friendly image. Opening one costs a
//! header validation plus (by default) one streaming checksum pass; the
//! resulting [`MappedCsr`] serves `edges()`, CSR offsets, neighbor
//! slices, and edge ids as zero-copy typed slices into the mapping, so
//! an index build starting from cold storage never materializes a
//! second in-memory copy of the graph.
//!
//! ## Layout (all fields little-endian, every section 8-byte aligned)
//!
//! ```text
//! offset  bytes        field
//! 0       8            magic  "BCCSRFMT"
//! 8       8            format version (currently 1)
//! 16      8            n — vertex count (fits u32)
//! 24      8            m — undirected edge count (fits u32)
//! 32      8            flags (bit 0: payload checksum present)
//! 40      8            FNV-1a-64 checksum of the payload bytes
//! 48      8            payload length in bytes (= 24m + 8n + 8)
//! 56      8            reserved (0)
//! 64      8m           edges   — m × (u32 u, u32 v), as given
//! 64+8m   8(n+1)       offsets — u64; arcs of v are offsets[v]..offsets[v+1]
//! ...     8m           adj     — 2m × u32 neighbor, both arc directions
//! ...     8m           eid     — 2m × u32 edge index into `edges`
//! ```
//!
//! The format is little-endian on disk; big-endian hosts are rejected
//! at open time rather than silently misreading (no such host exists in
//! this workspace's deployment matrix).

use crate::edge::{Edge, Graph};
use crate::mmap::{MmapMut, MmapView};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// First 8 bytes of every `.bccsr` file.
pub const MAGIC: [u8; 8] = *b"BCCSRFMT";

/// Format version this build reads and writes.
pub const VERSION: u64 = 1;

/// Header size in bytes.
pub const HEADER_LEN: usize = 64;

const FLAG_CHECKSUM: u64 = 1;

/// Errors opening or validating a `.bccsr` file.
#[derive(Debug)]
pub enum BccsrError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version field is not [`VERSION`].
    UnsupportedVersion(u64),
    /// The file is shorter than its header declares.
    Truncated {
        /// Bytes the header implies.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The payload checksum does not match the header's.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes on disk.
        actual: u64,
    },
    /// A structural invariant fails (non-monotonic offsets,
    /// out-of-range ids, counts that don't fit u32, ...).
    Corrupt(String),
}

impl std::fmt::Display for BccsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BccsrError::Io(e) => write!(f, "i/o error: {e}"),
            BccsrError::BadMagic => write!(f, "not a .bccsr file (bad magic)"),
            BccsrError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .bccsr version {v} (this build reads {VERSION})"
                )
            }
            BccsrError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated .bccsr file: header declares {expected} bytes, found {actual}"
                )
            }
            BccsrError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            BccsrError::Corrupt(msg) => write!(f, "corrupt .bccsr file: {msg}"),
        }
    }
}

impl std::error::Error for BccsrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BccsrError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for BccsrError {
    fn from(e: io::Error) -> Self {
        BccsrError::Io(e)
    }
}

impl From<BccsrError> for io::Error {
    fn from(e: BccsrError) -> Self {
        match e {
            BccsrError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// FNV-1a 64 over a byte slice — cheap, streaming, and dependency-free;
/// this guards against torn writes and bit rot, not adversaries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Payload length for an (n, m) instance: edges + offsets + adj + eid.
fn payload_len(n: u64, m: u64) -> u64 {
    8 * m + 8 * (n + 1) + 8 * m + 8 * m
}

/// What [`write`](fn@write) produced.
#[derive(Clone, Copy, Debug)]
pub struct WriteSummary {
    /// Vertices.
    pub n: u32,
    /// Undirected edges.
    pub m: usize,
    /// Total file size in bytes.
    pub bytes: u64,
}

fn put_u64(bytes: &mut [u8], word: usize, value: u64) {
    bytes[word * 8..word * 8 + 8].copy_from_slice(&value.to_le_bytes());
}

fn get_u64(bytes: &[u8], word: usize) -> u64 {
    u64::from_le_bytes(bytes[word * 8..word * 8 + 8].try_into().unwrap())
}

/// Writes `g` as a `.bccsr` file at `path`.
///
/// The adjacency sections (the bulk of the image: 16 bytes per edge)
/// are scattered directly into a writable mapping of the output file,
/// so conversion memory stays at the edge list the caller already holds
/// plus ~16 bytes per vertex of degree/offset/cursor arrays — the
/// output never gets a second anonymous-memory materialization.
pub fn write(path: &Path, g: &Graph) -> io::Result<WriteSummary> {
    write_edges(path, g.n(), g.edges())
}

/// [`write`](fn@write) from a raw validated edge list (no self loops, endpoints
/// `< n`); the converter's entry point.
pub fn write_edges(path: &Path, n: u32, edges: &[Edge]) -> io::Result<WriteSummary> {
    if cfg!(target_endian = "big") {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            ".bccsr is a little-endian format",
        ));
    }
    let m = edges.len();
    if m > u32::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("edge count {m} exceeds the format's u32 limit"),
        ));
    }
    let nu = n as usize;
    let mut deg = vec![0u32; nu];
    for e in edges {
        if e.u >= n || e.v >= n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("edge {e:?} out of range (n = {n})"),
            ));
        }
        if e.is_loop() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("self loop {e:?} not allowed"),
            ));
        }
        deg[e.u as usize] += 1;
        deg[e.v as usize] += 1;
    }
    let mut offsets = vec![0u64; nu + 1];
    for v in 0..nu {
        offsets[v + 1] = offsets[v] + u64::from(deg[v]);
    }
    drop(deg);

    let payload = payload_len(u64::from(n), m as u64) as usize;
    let total = HEADER_LEN + payload;
    let mut map = MmapMut::create(path, total)?;
    let bytes = map.bytes_mut();

    // Header (checksum patched in below, after the payload exists).
    bytes[0..8].copy_from_slice(&MAGIC);
    put_u64(bytes, 1, VERSION);
    put_u64(bytes, 2, u64::from(n));
    put_u64(bytes, 3, m as u64);
    put_u64(bytes, 4, FLAG_CHECKSUM);
    put_u64(bytes, 5, 0);
    put_u64(bytes, 6, payload as u64);
    put_u64(bytes, 7, 0);

    let edges_at = HEADER_LEN;
    let offsets_at = edges_at + 8 * m;
    let adj_at = offsets_at + 8 * (nu + 1);
    let eid_at = adj_at + 8 * m;

    // Section pointers into the mapping. SAFETY: the section offsets
    // are 8-byte aligned within an 8-byte-aligned buffer, the ranges
    // are disjoint and in-bounds by construction, and `Edge` is
    // `#[repr(C)] { u32, u32 }` so its in-memory layout is exactly the
    // on-disk layout on a little-endian host (enforced above).
    let base = bytes.as_mut_ptr();
    let (edge_sec, off_sec, adj_sec, eid_sec) = unsafe {
        (
            std::slice::from_raw_parts_mut(base.add(edges_at) as *mut Edge, m),
            std::slice::from_raw_parts_mut(base.add(offsets_at) as *mut u64, nu + 1),
            std::slice::from_raw_parts_mut(base.add(adj_at) as *mut u32, 2 * m),
            std::slice::from_raw_parts_mut(base.add(eid_at) as *mut u32, 2 * m),
        )
    };
    off_sec.copy_from_slice(&offsets);
    let mut cursor = vec![0u32; nu];
    for (i, &e) in edges.iter().enumerate() {
        edge_sec[i] = e;
        let pu = offsets[e.u as usize] as usize + cursor[e.u as usize] as usize;
        adj_sec[pu] = e.v;
        eid_sec[pu] = i as u32;
        cursor[e.u as usize] += 1;
        let pv = offsets[e.v as usize] as usize + cursor[e.v as usize] as usize;
        adj_sec[pv] = e.u;
        eid_sec[pv] = i as u32;
        cursor[e.v as usize] += 1;
    }

    let checksum = fnv1a(&map.bytes()[HEADER_LEN..]);
    put_u64(map.bytes_mut(), 5, checksum);
    map.sync()?;
    Ok(WriteSummary {
        n,
        m,
        bytes: total as u64,
    })
}

/// A read-only `.bccsr` image: the mmap plus the validated section
/// geometry. All accessors are zero-copy slices into the mapping.
pub struct MappedCsr {
    view: MmapView,
    n: u32,
    m: usize,
    offsets_at: usize,
    adj_at: usize,
    eid_at: usize,
}

impl MappedCsr {
    /// Opens and fully validates `path`: header, section geometry,
    /// payload checksum, and id ranges. One streaming pass over the
    /// file; pages are released back to the OS under memory pressure.
    pub fn open(path: &Path) -> Result<MappedCsr, BccsrError> {
        Self::open_inner(path, true)
    }

    /// Opens `path` validating the header, geometry, and CSR offsets
    /// but skipping the payload checksum and id-range scan — O(header +
    /// offsets) instead of O(file). For files this process just wrote,
    /// or trusted local storage.
    pub fn open_unverified(path: &Path) -> Result<MappedCsr, BccsrError> {
        Self::open_inner(path, false)
    }

    fn open_inner(path: &Path, verify: bool) -> Result<MappedCsr, BccsrError> {
        if cfg!(target_endian = "big") {
            return Err(BccsrError::Corrupt(
                ".bccsr is a little-endian format; this host is big-endian".into(),
            ));
        }
        let view = MmapView::open(path)?;
        let bytes = view.bytes();
        if bytes.len() < HEADER_LEN {
            return Err(BccsrError::Truncated {
                expected: HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        }
        if bytes[0..8] != MAGIC {
            return Err(BccsrError::BadMagic);
        }
        let version = get_u64(bytes, 1);
        if version != VERSION {
            return Err(BccsrError::UnsupportedVersion(version));
        }
        let n64 = get_u64(bytes, 2);
        let m64 = get_u64(bytes, 3);
        if n64 > u64::from(u32::MAX) || m64 > u64::from(u32::MAX) {
            return Err(BccsrError::Corrupt(format!(
                "n = {n64} / m = {m64} exceed the format's u32 limits"
            )));
        }
        let declared_payload = get_u64(bytes, 6);
        let expected_payload = payload_len(n64, m64);
        if declared_payload != expected_payload {
            return Err(BccsrError::Corrupt(format!(
                "payload length {declared_payload} does not match n/m (expected {expected_payload})"
            )));
        }
        let expected_total = HEADER_LEN as u64 + expected_payload;
        if (bytes.len() as u64) != expected_total {
            return Err(BccsrError::Truncated {
                expected: expected_total,
                actual: bytes.len() as u64,
            });
        }
        let flags = get_u64(bytes, 4);
        if verify && flags & FLAG_CHECKSUM != 0 {
            let expected = get_u64(bytes, 5);
            let actual = fnv1a(&bytes[HEADER_LEN..]);
            if expected != actual {
                return Err(BccsrError::ChecksumMismatch { expected, actual });
            }
        }

        let n = n64 as u32;
        let m = m64 as usize;
        let edges_at = HEADER_LEN;
        let offsets_at = edges_at + 8 * m;
        let adj_at = offsets_at + 8 * (n as usize + 1);
        let eid_at = adj_at + 8 * m;
        let mapped = MappedCsr {
            view,
            n,
            m,
            offsets_at,
            adj_at,
            eid_at,
        };

        // Offsets must be a monotone prefix-sum ending at 2m for the
        // neighbor-slice accessors to be in-bounds; always checked
        // (O(n), touches only the offsets section).
        let offsets = mapped.offsets();
        if offsets[0] != 0 || offsets[n as usize] != 2 * m as u64 {
            return Err(BccsrError::Corrupt(format!(
                "offsets must run 0..=2m (got {} ..= {})",
                offsets[0], offsets[n as usize]
            )));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(BccsrError::Corrupt("offsets are not monotone".into()));
        }
        if verify {
            // Full id-range scan: every endpoint and neighbor < n,
            // every edge id < m, no self loops.
            for (i, e) in mapped.edges().iter().enumerate() {
                if e.u >= n || e.v >= n {
                    return Err(BccsrError::Corrupt(format!(
                        "edge {i} = {e:?} out of range"
                    )));
                }
                if e.is_loop() {
                    return Err(BccsrError::Corrupt(format!(
                        "edge {i} = {e:?} is a self loop"
                    )));
                }
            }
            if mapped.adj().iter().any(|&w| w >= n) {
                return Err(BccsrError::Corrupt(
                    "adjacency neighbor out of range".into(),
                ));
            }
            if mapped.eid().iter().any(|&id| id as usize >= m.max(1)) && m > 0 {
                return Err(BccsrError::Corrupt("edge id out of range".into()));
            }
        }
        Ok(mapped)
    }

    /// Opens `path` and wraps it in a [`Graph`] backed by this mapping.
    pub fn open_graph(path: &Path) -> Result<Graph, BccsrError> {
        Ok(Graph::from_mapped(Arc::new(Self::open(path)?)))
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total size of the backing file in bytes.
    pub fn file_len(&self) -> u64 {
        self.view.len() as u64
    }

    /// The edge list, zero-copy from the mapping.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        // SAFETY: geometry validated at open; section is 8-aligned and
        // in-bounds; Edge is #[repr(C)] {u32, u32} matching the disk
        // layout on the little-endian hosts `open` admits.
        unsafe {
            std::slice::from_raw_parts(
                self.view.bytes().as_ptr().add(HEADER_LEN) as *const Edge,
                self.m,
            )
        }
    }

    /// CSR offsets (`n + 1` entries; arcs of `v` are
    /// `offsets[v]..offsets[v+1]`), zero-copy from the mapping.
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        // SAFETY: as in `edges`.
        unsafe {
            std::slice::from_raw_parts(
                self.view.bytes().as_ptr().add(self.offsets_at) as *const u64,
                self.n as usize + 1,
            )
        }
    }

    /// The full neighbor array (both arc directions), zero-copy.
    #[inline]
    pub fn adj(&self) -> &[u32] {
        // SAFETY: as in `edges`.
        unsafe {
            std::slice::from_raw_parts(
                self.view.bytes().as_ptr().add(self.adj_at) as *const u32,
                2 * self.m,
            )
        }
    }

    /// The full edge-id array, parallel to [`MappedCsr::adj`].
    #[inline]
    pub fn eid(&self) -> &[u32] {
        // SAFETY: as in `edges`.
        unsafe {
            std::slice::from_raw_parts(
                self.view.bytes().as_ptr().add(self.eid_at) as *const u32,
                2 * self.m,
            )
        }
    }

    /// Neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let offsets = self.offsets();
        &self.adj()[offsets[v as usize] as usize..offsets[v as usize + 1] as usize]
    }

    /// Edge ids of the arcs out of `v`, parallel to
    /// [`MappedCsr::neighbors`].
    #[inline]
    pub fn edge_ids(&self, v: u32) -> &[u32] {
        let offsets = self.offsets();
        &self.eid()[offsets[v as usize] as usize..offsets[v as usize + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        let offsets = self.offsets();
        (offsets[v as usize + 1] - offsets[v as usize]) as usize
    }
}

impl std::fmt::Debug for MappedCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MappedCsr(n = {}, m = {}, {} bytes)",
            self.n,
            self.m,
            self.file_len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "bcc-bccsr-test-{}-{name}.bccsr",
            std::process::id()
        ));
        p
    }

    #[test]
    fn write_open_roundtrip() {
        let g = gen::random_connected(200, 600, 9);
        let path = temp_path("roundtrip");
        let summary = write(&path, &g).unwrap();
        assert_eq!(summary.n, 200);
        assert_eq!(summary.m, 600);
        assert_eq!(
            summary.bytes,
            HEADER_LEN as u64 + payload_len(200, 600),
            "file size matches the declared geometry"
        );

        let mapped = MappedCsr::open(&path).unwrap();
        assert_eq!(mapped.n(), g.n());
        assert_eq!(mapped.m(), g.m());
        assert_eq!(mapped.edges(), g.edges(), "edge-for-edge identical");
        assert_eq!(mapped.file_len(), summary.bytes);

        // Adjacency agrees with the in-memory CSR as per-vertex sets.
        let csr = crate::Csr::build(&g);
        for v in 0..g.n() {
            let mut a: Vec<(u32, u32)> = mapped
                .neighbors(v)
                .iter()
                .copied()
                .zip(mapped.edge_ids(v).iter().copied())
                .collect();
            a.sort_unstable();
            let mut b: Vec<(u32, u32)> = csr.arcs(v).collect();
            b.sort_unstable();
            assert_eq!(a, b, "v = {v}");
            assert_eq!(mapped.degree(v), csr.degree(v));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_and_isolated_graphs_roundtrip() {
        for g in [
            crate::GraphBuilder::new(0).build().unwrap(),
            crate::GraphBuilder::new(5).build().unwrap(),
            crate::GraphBuilder::new(3).edge(0, 2).build().unwrap(),
        ] {
            let path = temp_path(&format!("small-{}-{}", g.n(), g.m()));
            write(&path, &g).unwrap();
            let mapped = MappedCsr::open(&path).unwrap();
            assert_eq!(mapped.n(), g.n());
            assert_eq!(mapped.edges(), g.edges());
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn rejects_corrupted_header_and_payload() {
        let g = gen::cycle(32);
        let path = temp_path("corrupt");
        write(&path, &g).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Bad magic.
        let mut bad = pristine.clone();
        bad[0] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(MappedCsr::open(&path), Err(BccsrError::BadMagic)));

        // Future version.
        let mut bad = pristine.clone();
        bad[8] = 99;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            MappedCsr::open(&path),
            Err(BccsrError::UnsupportedVersion(99))
        ));

        // Truncation (drop the last 16 bytes).
        std::fs::write(&path, &pristine[..pristine.len() - 16]).unwrap();
        assert!(matches!(
            MappedCsr::open(&path),
            Err(BccsrError::Truncated { .. })
        ));

        // Payload bit flip: caught by the checksum on verified open.
        let mut bad = pristine.clone();
        let flip = HEADER_LEN + 5;
        bad[flip] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            MappedCsr::open(&path),
            Err(BccsrError::ChecksumMismatch { .. })
        ));

        // The pristine bytes still open.
        std::fs::write(&path, &pristine).unwrap();
        assert!(MappedCsr::open(&path).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unverified_open_still_validates_geometry() {
        let g = gen::path(16);
        let path = temp_path("unverified");
        write(&path, &g).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // A payload flip in the adj section passes unverified open...
        let mut bad = pristine.clone();
        let adj_at = HEADER_LEN + 8 * g.m() + 8 * (g.n() as usize + 1);
        bad[adj_at] ^= 0x01;
        std::fs::write(&path, &bad).unwrap();
        assert!(MappedCsr::open_unverified(&path).is_ok());
        // ...but a broken offsets prefix-sum does not.
        let mut bad = pristine.clone();
        let off_at = HEADER_LEN + 8 * g.m();
        bad[off_at] = 7; // offsets[0] != 0
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            MappedCsr::open_unverified(&path),
            Err(BccsrError::Corrupt(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn writer_rejects_invalid_edges() {
        let path = temp_path("invalid");
        assert!(write_edges(&path, 3, &[Edge::new(0, 3)]).is_err());
        assert!(write_edges(&path, 3, &[Edge::new(1, 1)]).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
