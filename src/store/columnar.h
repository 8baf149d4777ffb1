// On-disk binary columnar store for parsed request tables.
//
// Re-analyzing a server (or a fleet of thousands of vhosts) must not pay
// for CLF text parsing twice: a Dataset written once with to_columnar()
// reloads via from_columnar() without touching the text path, the
// sessionizer, or the client-string interner — the compact Request and
// Session tables round-trip bit-identically, so every downstream fit is
// byte-for-byte the same as from the original ingest.
//
// Layout ("FWC1", all little-endian):
//
//   header   magic u32 | version u32 | n_requests u64 | n_sessions u64
//            t0 f64 | t1 f64 | total_bytes u64 | distinct_clients u64
//            name_len u32 | column_count u32 | name bytes
//   columns  column_count blocks of: id u32 | encoding u32 |
//            payload_len u64 | payload
//
// Per-column lightweight compression:
//   * sorted times (request time, session start) — order-preserving u64
//     keys (positive doubles compare like their bit patterns; the sign-fold
//     extends that to negatives), consecutive deltas LEB128-varint coded.
//     Seconds-quantized logs cost ~3-4 bytes per timestamp instead of 8.
//   * session end — per-row key delta against the same row's start
//     (end >= start, so deltas are non-negative varints).
//   * client ids — plain varints. The dictionary itself (client string ->
//     dense id) lives upstream in Dataset's interner; the store persists
//     the dictionary-coded ids, which is all the analyses consume.
//   * status — a dictionary block (sorted distinct u16 codes) followed by
//     varint dictionary indices: real logs carry a handful of distinct
//     statuses, so each request costs ~1 byte.
//   * bytes / per-session counts — plain varints.
//
// Reading memory-maps the file (falling back to a buffered read when mmap
// is unavailable) and decodes with strict bounds checks: truncation, magic
// or version mismatch, unknown/duplicate/missing columns, payload overruns
// and totals or a window that disagree with the decoded tables are all
// rejected as errors, not UB. The Dataset member fn declarations live in
// weblog/dataset.h; link fullweb_store to use them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/result.h"
#include "weblog/dataset.h"

namespace fullweb::store {

/// "FWC1" when read as bytes (little-endian u32).
inline constexpr std::uint32_t kColumnarMagic = 0x31435746u;
inline constexpr std::uint32_t kColumnarVersion = 1;
/// Conventional file suffix, used by tools to route ingest.
inline constexpr const char* kColumnarExtension = ".fwc";

/// What one write produced, with each column's payload size for audits of
/// the compression.
struct ColumnarInfo {
  std::uint64_t file_bytes = 0;    ///< total bytes written / mapped
  std::uint64_t requests = 0;
  std::uint64_t sessions = 0;
  struct Column {
    std::string name;              ///< e.g. "req_time"
    std::uint64_t payload_bytes = 0;
  };
  std::vector<Column> columns;     ///< file order
};

/// Serialize `dataset` to `path`. Overwrites. Errors with category "io" on
/// any filesystem failure (the partial file is removed best-effort).
[[nodiscard]] support::Result<ColumnarInfo> write_columnar(
    const weblog::Dataset& dataset, const std::string& path);

/// True when `path` names a columnar file by extension (routing heuristic
/// for tools that accept mixed CLF/columnar inputs).
[[nodiscard]] bool has_columnar_extension(const std::string& path);

}  // namespace fullweb::store
