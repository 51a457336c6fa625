// Package storage serializes compressed Form trees to bytes and
// container files, and opens container files back — eagerly or
// lazily.
//
// The form encoding mirrors the paper's columnar view directly: a
// form is a scheme tag, scalar parameters, named child forms, and (at
// leaves) a physical payload. Nothing else — no block headers, no
// padding — matching the paper's "pure columns, stripped bare of
// implementation-specific adornments". All integers are
// little-endian; lengths and parameters are LEB128 varints (zigzagged
// where signed).
//
// Three container generations wrap that encoding:
//
//   - v1 ("LWC1"): one form per column, whole-body CRC-32C. Written
//     by WriteContainer; kept readable forever.
//   - v2 ("LWC2"): blocked columns with an interleaved block index
//     ([min, max] stats per block), still under one whole-body CRC —
//     so reading anything means reading everything.
//   - v3 ("LWC3"): the lazily openable generation. A self-contained
//     index at the front carries each block's stats, payload extent
//     and per-block CRC-32C; payloads follow. OpenContainer reads
//     only the prefix and index, then serves block payloads on
//     demand, verifying each block's checksum at first touch.
//
// The lazy path is built from three pieces: a byte source (plain
// io.ReaderAt with pooled scratch buffers, or an mmap window when
// requested and available), the BlockReader seam that hands out raw
// per-block payloads, and a byte-budgeted LRU cache of decoded block
// forms shared by all queries on a ContainerFile. A miss reads the
// payload, checks its CRC, decodes it once and caches the form,
// charged at its decoded footprint; a hit hands the same read-only
// form to every caller without copying or allocating. DESIGN.md §1.8
// states the invariants; the short version: the index alone decides
// truncation at open time, payload corruption surfaces as ErrChecksum
// at first touch of the affected block only, and a block is never
// resident unless a query touched it or the cache still holds it.
package storage
