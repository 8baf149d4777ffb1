// Chunked, parallel, bounded-memory CLF file reader — the one way CLF text
// enters the library. Rather than reading one line at a time on one thread
// and slurping every parsed entry into RAM, it:
//
//  * reads fixed-size byte blocks off the file sequentially (each block is
//    read directly behind the previous block's carried partial line, so no
//    block is ever recopied),
//  * snaps each block to the last newline (the remainder is carried into
//    the next block, so no line is ever split across parse tasks),
//  * parses blocks in parallel on a `support::Executor`, each worker
//    running a zero-copy ClfLineParser whose records view the block text,
//  * and reassembles results strictly in file order, so the record stream
//    delivered to `on_record` is byte-for-byte the same at 1 or N threads.
//
// At most 2 blocks per executor thread are outstanding, so peak memory is
// O(chunk_bytes * threads) for text plus whatever the consumer retains —
// the file itself is never resident at once.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "support/result.h"
#include "weblog/clf.h"

namespace fullweb::support {
class Executor;
}

namespace fullweb::weblog {

/// Per-file ingest accounting, printable by audits and asserted by tests.
struct IngestStats {
  std::string path;
  std::uint64_t bytes = 0;       ///< bytes read off the file
  std::size_t lines = 0;         ///< non-empty lines seen
  std::size_t parsed = 0;        ///< lines that produced a record
  std::size_t malformed = 0;     ///< lines rejected (sum of by_reason)
  std::array<std::size_t, kClfParseReasonCount> malformed_by_reason{};
  std::size_t chunks = 0;        ///< parse blocks dispatched
  double wall_seconds = 0.0;     ///< end-to-end read+parse wall time
  bool open_failed = false;      ///< the file could not be opened
  /// Filled by sessionizing consumers (Dataset::from_clf_stream); the
  /// reader itself leaves it 0. A *per-file* peak: the maximum number of
  /// concurrently open sessions reached while this file was being ingested
  /// (sessions still open from earlier files count toward it), not the
  /// stream-wide cumulative high-water mark — that lives in
  /// StreamIngestReport::peak_open_sessions.
  std::size_t peak_open_sessions = 0;

  /// One-line human-readable summary ("<path>: parsed=... malformed=...").
  [[nodiscard]] std::string summary() const;
};

struct ClfReaderOptions {
  std::size_t chunk_bytes = 1 << 20;    ///< parse-block size (min 4 KiB)
  support::Executor* executor = nullptr;  ///< null = the global pool
};

/// Read `path`, parsing chunks in parallel, and deliver every parsed record
/// IN FILE ORDER to `on_record` (called on the reader's thread only, never
/// concurrently). The record's views are valid only for the duration of the
/// callback — consumers keep what they need (Dataset::from_clf_stream keeps
/// a 24-byte Request and an interned client id). Returns the per-file
/// stats, or an Error with category "io" when the file cannot be opened
/// (stats.open_failed is mirrored by callers that aggregate files).
[[nodiscard]] support::Result<IngestStats> read_clf_records(
    const std::string& path, const ClfReaderOptions& options,
    const std::function<void(const ClfRecord&)>& on_record);

}  // namespace fullweb::weblog
