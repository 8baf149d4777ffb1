#include "weblog/clf_reader.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "support/executor.h"
#include "support/strings.h"
#include "weblog/clf_scan.h"

namespace fullweb::weblog {

using support::Error;
using support::Result;

namespace {

/// Result of parsing one newline-delimited block. The records view `*text`
/// (and, for escaped request fields, `owned`); both are kept alive until
/// the chunk is drained. `text` is a shared_ptr only because the Executor's
/// type-erased task queue requires copyable callables — the block is never
/// actually shared or copied.
struct ParsedChunk {
  std::shared_ptr<const std::string> text;
  std::deque<std::string> owned;
  std::vector<ClfRecord> records;
  std::size_t lines = 0;
  std::array<std::size_t, kClfParseReasonCount> malformed{};
};

/// Parse every line of `*text` (blank lines are skipped, not counted as
/// malformed). Runs on a worker thread; touches nothing shared. The
/// parser — and with it the same-second timestamp memo — is chunk-local,
/// so parallel workers share no state.
ParsedChunk parse_chunk(std::shared_ptr<const std::string> text) {
  ParsedChunk out;
  ClfLineParser parser;
  out.records.reserve(text->size() / 48 + 1);
  const char* p = text->data();
  const char* const end = p + text->size();
  while (p < end) {
    const char* nl = scan::find_byte_long(p, end, '\n');
    std::string_view line(p, static_cast<std::size_t>(nl - p));
    p = nl + 1;
    line = support::trim(line);
    if (line.empty()) continue;
    ++out.lines;
    ClfParseReason reason = ClfParseReason::kNone;
    ClfRecord record;
    if (parser.parse(line, record, &reason)) {
      out.records.push_back(record);
    } else {
      ++out.malformed[static_cast<std::size_t>(reason)];
    }
  }
  out.owned = parser.take_owned();
  out.text = std::move(text);
  return out;
}

}  // namespace

std::string IngestStats::summary() const {
  if (open_failed) return path + ": OPEN FAILED";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "bytes=%llu lines=%zu parsed=%zu malformed=%zu chunks=%zu "
                "wall=%.3fs",
                static_cast<unsigned long long>(bytes), lines, parsed,
                malformed, chunks, wall_seconds);
  std::string out = path.empty() ? std::string(buf) : path + ": " + buf;
  for (std::size_t i = 1; i < kClfParseReasonCount; ++i) {
    if (malformed_by_reason[i] == 0) continue;
    out += " ";
    out += to_string(static_cast<ClfParseReason>(i));
    out += "=" + std::to_string(malformed_by_reason[i]);
  }
  return out;
}

Result<IngestStats> read_clf_records(
    const std::string& path, const ClfReaderOptions& options,
    const std::function<void(const ClfRecord&)>& on_record) {
  const auto start = std::chrono::steady_clock::now();
  IngestStats stats;
  stats.path = path;

  std::ifstream is(path, std::ios::binary);
  if (!is) {
    stats.open_failed = true;
    return Error{"cannot open " + path, "io"};
  }

  support::Executor& ex = support::Executor::resolve(options.executor);
  const std::size_t chunk_bytes = std::max<std::size_t>(options.chunk_bytes, 4096);
  // Blocks in flight before the reader stalls on the oldest: enough to
  // keep every thread parsing, and a bound on peak text memory.
  const std::size_t inflight = std::max<std::size_t>(2 * ex.threads(), 2);

  // Futures are drained strictly FIFO, so records reach `on_record` in file
  // order no matter which worker parsed which block.
  std::deque<support::Future<ParsedChunk>> pending;
  // Unwind safety: if `on_record` (or a parse task) throws mid-drain, the
  // remaining futures must not be abandoned with tasks still queued on the
  // Executor — wait for each and discard its result (and any stored
  // exception), so the pool is quiescent again when the exception leaves
  // this frame.
  struct PendingDrainGuard {
    std::deque<support::Future<ParsedChunk>>& pending;
    ~PendingDrainGuard() {
      for (auto& f : pending) {
        try {
          (void)f.get();
        } catch (...) {  // already unwinding; swallow secondary failures
        }
      }
      pending.clear();
    }
  } drain_guard{pending};
  auto drain_one = [&] {
    ParsedChunk chunk = pending.front().get();
    pending.pop_front();
    stats.lines += chunk.lines;
    stats.parsed += chunk.records.size();
    for (std::size_t i = 0; i < kClfParseReasonCount; ++i) {
      stats.malformed_by_reason[i] += chunk.malformed[i];
      stats.malformed += chunk.malformed[i];
    }
    for (const auto& r : chunk.records) on_record(r);
  };
  auto submit = [&](std::shared_ptr<std::string>&& text) {
    ++stats.chunks;
    pending.push_back(ex.async(
        [text = std::shared_ptr<const std::string>(std::move(text))] {
          return parse_chunk(text);
        }));
    if (pending.size() >= inflight) drain_one();
  };

  std::string carry;  // partial trailing line of the previous block
  while (is) {
    // Read the next block directly behind the carried partial line, so the
    // only per-block copy is the carry itself (at most one line).
    auto text = std::make_shared<std::string>();
    text->resize(carry.size() + chunk_bytes);
    std::memcpy(text->data(), carry.data(), carry.size());
    is.read(text->data() + carry.size(),
            static_cast<std::streamsize>(chunk_bytes));
    const auto got = static_cast<std::size_t>(is.gcount());
    if (got == 0) break;
    text->resize(carry.size() + got);
    stats.bytes += got;

    const auto nl = text->rfind('\n');
    if (nl == std::string::npos) {
      // No newline yet — keep accumulating (degenerate giant-line case).
      carry = std::move(*text);
      continue;
    }
    carry.assign(*text, nl + 1, std::string::npos);
    text->resize(nl + 1);
    submit(std::move(text));
  }
  if (!carry.empty())  // final unterminated line
    submit(std::make_shared<std::string>(std::move(carry)));
  while (!pending.empty()) drain_one();

  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return stats;
}

}  // namespace fullweb::weblog
