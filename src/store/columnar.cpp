// FWC1 reader/writer. See columnar.h for the format contract.
//
// Also defines weblog::Dataset::to_columnar / from_columnar: member
// functions declared in weblog/dataset.h but deliberately defined in this
// translation unit, so the store layer can populate a Dataset's private
// tables directly without weblog growing a link-time dependency on the
// store (fullweb_store links fullweb_weblog, never the reverse).
#include "store/columnar.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_set>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define FULLWEB_STORE_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define FULLWEB_STORE_HAS_MMAP 0
#endif

namespace fullweb::store {

using support::Error;
using support::Result;
using weblog::Dataset;
using weblog::Request;
using weblog::Session;

namespace {

// ---- column catalogue -----------------------------------------------------

// Column ids are stable wire identifiers; adding a column means a new id
// (and a version bump if readers must understand it).
enum ColumnId : std::uint32_t {
  kReqTime = 0,
  kReqClient = 1,
  kReqStatus = 2,
  kReqBytes = 3,
  kSessStart = 4,
  kSessClient = 5,
  kSessEndDelta = 6,
  kSessRequests = 7,
  kSessBytes = 8,
};
constexpr std::uint32_t kColumnCount = 9;

// Wire encodings. A reader rejects a column whose encoding differs from
// the one this catalogue prescribes — there is exactly one valid encoding
// per column in version 1.
enum Encoding : std::uint32_t {
  kEncVarint = 0,      ///< one LEB128 varint per row
  kEncDeltaKey = 1,    ///< order-preserving f64 keys, wrapping row deltas
  kEncDict16 = 2,      ///< varint dict size, dict of u16 LE, varint indices
  kEncPairDelta = 3,   ///< per-row key delta against a sibling column
};

const char* column_name(std::uint32_t id) {
  switch (id) {
    case kReqTime: return "req_time";
    case kReqClient: return "req_client";
    case kReqStatus: return "req_status";
    case kReqBytes: return "req_bytes";
    case kSessStart: return "sess_start";
    case kSessClient: return "sess_client";
    case kSessEndDelta: return "sess_end_delta";
    case kSessRequests: return "sess_requests";
    case kSessBytes: return "sess_bytes";
  }
  return "?";
}

std::uint32_t expected_encoding(std::uint32_t id) {
  switch (id) {
    case kReqTime:
    case kSessStart: return kEncDeltaKey;
    case kReqStatus: return kEncDict16;
    case kSessEndDelta: return kEncPairDelta;
    default: return kEncVarint;
  }
}

// ---- primitive codecs -----------------------------------------------------

// Order-preserving double <-> u64: non-negative doubles already compare
// like their bit patterns, so setting the sign bit lifts them above the
// negatives, whose patterns compare reversed and get fully flipped.
std::uint64_t time_key(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return (bits & 0x8000000000000000ull) != 0 ? ~bits
                                             : (bits | 0x8000000000000000ull);
}

double key_time(std::uint64_t key) {
  const std::uint64_t bits = (key & 0x8000000000000000ull) != 0
                                 ? (key & 0x7fffffffffffffffull)
                                 : ~key;
  double x;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Bounds-checked little-endian cursor over a mapped byte range. Every
/// getter fails soft (ok() goes false, zero returned) instead of reading
/// past `end`, so decode loops can check once per row batch.
struct Cursor {
  const std::uint8_t* p = nullptr;
  const std::uint8_t* end = nullptr;
  bool failed = false;

  [[nodiscard]] bool ok() const noexcept { return !failed; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end - p);
  }

  std::uint16_t get_u16() noexcept {
    if (failed || remaining() < 2) { failed = true; return 0; }
    std::uint16_t v = static_cast<std::uint16_t>(p[0] | (p[1] << 8));
    p += 2;
    return v;
  }
  std::uint32_t get_u32() noexcept {
    if (failed || remaining() < 4) { failed = true; return 0; }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    return v;
  }
  std::uint64_t get_u64() noexcept {
    if (failed || remaining() < 8) { failed = true; return 0; }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    return v;
  }
  double get_f64() noexcept {
    const std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::uint64_t get_varint() noexcept {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (failed || p == end) { failed = true; return 0; }
      const std::uint8_t byte = *p++;
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        // A 10th byte may only carry the single remaining bit.
        if (shift == 63 && byte > 1) { failed = true; return 0; }
        return v;
      }
    }
    failed = true;  // unterminated varint
    return 0;
  }
};

// ---- file I/O -------------------------------------------------------------

/// Read-only view of a whole file: mmap when available (the columnar file
/// is decoded in one forward pass, so the page cache streams it), with a
/// buffered-read fallback that owns the bytes.
class MappedFile {
 public:
  MappedFile() = default;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept {
    if (this != &other) {
      release();
      map_ = std::exchange(other.map_, nullptr);
      map_len_ = std::exchange(other.map_len_, 0);
      owned_ = std::move(other.owned_);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~MappedFile() { release(); }

  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  static Result<MappedFile> open(const std::string& path) {
    MappedFile f;
#if FULLWEB_STORE_HAS_MMAP
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st{};
      if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
        f.size_ = static_cast<std::size_t>(st.st_size);
        if (f.size_ == 0) {
          ::close(fd);
          f.data_ = reinterpret_cast<const std::uint8_t*>("");
          return f;
        }
        void* m = ::mmap(nullptr, f.size_, PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd);
        if (m != MAP_FAILED) {
          f.map_ = m;
          f.map_len_ = f.size_;
          f.data_ = static_cast<const std::uint8_t*>(m);
          return f;
        }
        f.size_ = 0;
        // fall through to the buffered path below
      } else {
        ::close(fd);
      }
    }
#endif
    std::FILE* fp = std::fopen(path.c_str(), "rb");
    if (fp == nullptr)
      return Error{"columnar: cannot open " + path, "io"};
    std::uint8_t buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, fp)) > 0)
      f.owned_.insert(f.owned_.end(), buf, buf + got);
    const bool bad = std::ferror(fp) != 0;
    std::fclose(fp);
    if (bad) return Error{"columnar: read failed for " + path, "io"};
    f.data_ = f.owned_.data();
    f.size_ = f.owned_.size();
    return f;
  }

 private:
  void release() noexcept {
#if FULLWEB_STORE_HAS_MMAP
    if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
    map_ = nullptr;
    map_len_ = 0;
  }

  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  std::vector<std::uint8_t> owned_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

// ---- column encoders ------------------------------------------------------

std::vector<std::uint8_t> encode_req_time(std::span<const Request> reqs) {
  std::vector<std::uint8_t> out;
  std::uint64_t prev = 0;
  for (const auto& r : reqs) {
    const std::uint64_t key = time_key(r.time);
    put_varint(out, key - prev);  // wrapping: exact even on equal/odd order
    prev = key;
  }
  return out;
}

std::vector<std::uint8_t> encode_sess_start(std::span<const Session> sess) {
  std::vector<std::uint8_t> out;
  std::uint64_t prev = 0;
  for (const auto& s : sess) {
    const std::uint64_t key = time_key(s.start);
    put_varint(out, key - prev);
    prev = key;
  }
  return out;
}

std::vector<std::uint8_t> encode_sess_end_delta(std::span<const Session> sess) {
  std::vector<std::uint8_t> out;
  for (const auto& s : sess)
    put_varint(out, time_key(s.end) - time_key(s.start));
  return out;
}

std::vector<std::uint8_t> encode_status_dict(std::span<const Request> reqs) {
  std::vector<std::uint16_t> dict;
  dict.reserve(8);
  for (const auto& r : reqs)
    if (!std::binary_search(dict.begin(), dict.end(), r.status))
      dict.insert(std::upper_bound(dict.begin(), dict.end(), r.status),
                  r.status);
  std::vector<std::uint8_t> out;
  put_varint(out, dict.size());
  for (std::uint16_t code : dict) put_u16(out, code);
  for (const auto& r : reqs) {
    const auto it = std::lower_bound(dict.begin(), dict.end(), r.status);
    put_varint(out, static_cast<std::uint64_t>(it - dict.begin()));
  }
  return out;
}

template <typename Row, typename Get>
std::vector<std::uint8_t> encode_varints(std::span<const Row> rows, Get get) {
  std::vector<std::uint8_t> out;
  for (const auto& row : rows) put_varint(out, static_cast<std::uint64_t>(get(row)));
  return out;
}

// ---- reader ---------------------------------------------------------------

struct DecodedTables {
  std::string name;
  std::vector<Request> requests;
  std::vector<Session> sessions;
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint64_t total_bytes = 0;
  std::uint64_t distinct_clients = 0;
};

Error parse_error(const std::string& path, const std::string& what) {
  return Error{"columnar: " + path + ": " + what, "parse"};
}

Result<DecodedTables> decode(const std::string& path, const std::uint8_t* data,
                             std::size_t size) {
  Cursor c{data, data + size};
  const std::uint32_t magic = c.get_u32();
  const std::uint32_t version = c.get_u32();
  if (!c.ok() || magic != kColumnarMagic)
    return parse_error(path, "bad magic (not an FWC file)");
  if (version != kColumnarVersion)
    return parse_error(path, "unsupported version " + std::to_string(version));

  DecodedTables t;
  const std::uint64_t n_requests = c.get_u64();
  const std::uint64_t n_sessions = c.get_u64();
  t.t0 = c.get_f64();
  t.t1 = c.get_f64();
  t.total_bytes = c.get_u64();
  t.distinct_clients = c.get_u64();
  const std::uint32_t name_len = c.get_u32();
  const std::uint32_t column_count = c.get_u32();
  if (!c.ok() || c.remaining() < name_len)
    return parse_error(path, "truncated header");
  t.name.assign(reinterpret_cast<const char*>(c.p), name_len);
  c.p += name_len;
  if (column_count != kColumnCount)
    return parse_error(path, "expected " + std::to_string(kColumnCount) +
                                 " columns, file declares " +
                                 std::to_string(column_count));
  if (n_requests == 0)
    return Error{"columnar: " + path + ": empty request table",
                 "insufficient_data"};
  // Every request costs at least one payload byte (each varint column is
  // >= 1 byte/row), so a header declaring more rows than file bytes is
  // corrupt — reject before resize() turns it into a huge allocation.
  if (n_requests > size)
    return parse_error(path, "request count exceeds file size");
  // A session covers at least one request, so a plausible file never has
  // more sessions than requests — this also bounds the allocations below
  // by the actual file-implied sizes before any reserve().
  if (n_sessions == 0 || n_sessions > n_requests)
    return parse_error(path, "implausible session count");

  t.requests.resize(n_requests);
  t.sessions.resize(n_sessions);

  bool seen[kColumnCount] = {};
  for (std::uint32_t block = 0; block < kColumnCount; ++block) {
    const std::uint32_t id = c.get_u32();
    const std::uint32_t encoding = c.get_u32();
    const std::uint64_t payload_len = c.get_u64();
    if (!c.ok() || c.remaining() < payload_len)
      return parse_error(path, "truncated column block");
    if (id >= kColumnCount)
      return parse_error(path, "unknown column id " + std::to_string(id));
    if (seen[id])
      return parse_error(path, std::string("duplicate column ") + column_name(id));
    seen[id] = true;
    if (encoding != expected_encoding(id))
      return parse_error(path, std::string("unexpected encoding for ") +
                                   column_name(id));

    Cursor col{c.p, c.p + payload_len};
    c.p += payload_len;
    switch (id) {
      case kReqTime: {
        std::uint64_t key = 0;
        for (auto& r : t.requests) {
          key += col.get_varint();
          r.time = key_time(key);
        }
        break;
      }
      case kReqClient:
        for (auto& r : t.requests) {
          const std::uint64_t v = col.get_varint();
          if (v > 0xffffffffull) col.failed = true;
          r.client = static_cast<std::uint32_t>(v);
        }
        break;
      case kReqStatus: {
        const std::uint64_t dict_size = col.get_varint();
        if (dict_size == 0 || dict_size > 0x10000ull) col.failed = true;
        std::vector<std::uint16_t> dict(col.ok() ? dict_size : 0);
        for (auto& code : dict) code = col.get_u16();
        for (auto& r : t.requests) {
          const std::uint64_t idx = col.get_varint();
          if (idx >= dict.size()) { col.failed = true; break; }
          r.status = dict[idx];
        }
        break;
      }
      case kReqBytes:
        for (auto& r : t.requests) r.bytes = col.get_varint();
        break;
      case kSessStart: {
        std::uint64_t key = 0;
        for (auto& s : t.sessions) {
          key += col.get_varint();
          s.start = key_time(key);
        }
        break;
      }
      case kSessClient:
        for (auto& s : t.sessions) {
          const std::uint64_t v = col.get_varint();
          if (v > 0xffffffffull) col.failed = true;
          s.client = static_cast<std::uint32_t>(v);
        }
        break;
      case kSessEndDelta:
        // Depends on sess_start being decoded already; the writer always
        // emits sess_start first and the reader enforces it.
        if (!seen[kSessStart])
          return parse_error(path, "sess_end_delta precedes sess_start");
        for (auto& s : t.sessions)
          s.end = key_time(time_key(s.start) + col.get_varint());
        break;
      case kSessRequests:
        for (auto& s : t.sessions) s.requests = col.get_varint();
        break;
      case kSessBytes:
        for (auto& s : t.sessions) s.bytes = col.get_varint();
        break;
    }
    if (!col.ok())
      return parse_error(path, std::string("corrupt payload in ") +
                                   column_name(id));
    if (col.p != col.end)
      return parse_error(path, std::string("trailing bytes in ") +
                                   column_name(id));
  }
  if (c.p != c.end) return parse_error(path, "trailing bytes after columns");
  for (std::uint32_t id = 0; id < kColumnCount; ++id)
    if (!seen[id])
      return parse_error(path, std::string("missing column ") + column_name(id));

  // Integrity: the header's derived fields must agree with the decoded
  // tables, so a tampered or bit-rotted file fails loud instead of feeding
  // silently-wrong totals into the fits.
  std::uint64_t req_bytes = 0;
  for (const auto& r : t.requests) req_bytes += r.bytes;
  if (req_bytes != t.total_bytes)
    return parse_error(path, "total_bytes disagrees with request table");
  // The window must be the one every Dataset constructor derives from its
  // finite request times, [floor(first), floor(last) + 1). A window that
  // merely covers the times would pad the binned series with empty bins,
  // or at +inf overflow its bin count.
  if (!std::isfinite(t.t0) || !std::isfinite(t.t1) ||
      t.t0 != std::floor(t.requests.front().time) ||
      t.t1 != std::floor(t.requests.back().time) + 1.0)
    return parse_error(path, "observation window disagrees with request times");
  std::unordered_set<std::uint32_t> clients;
  clients.reserve(t.requests.size());
  for (const auto& r : t.requests) clients.insert(r.client);
  if (clients.size() != t.distinct_clients)
    return parse_error(path, "distinct_clients disagrees with request table");
  std::uint64_t sess_requests = 0, sess_bytes = 0;
  for (const auto& s : t.sessions) {
    if (s.end < s.start)
      return parse_error(path, "session with end < start");
    sess_requests += s.requests;
    sess_bytes += s.bytes;
  }
  if (sess_requests != n_requests || sess_bytes != t.total_bytes)
    return parse_error(path, "session totals disagree with request table");
  return t;
}

}  // namespace

bool has_columnar_extension(const std::string& path) {
  const std::string ext = kColumnarExtension;
  return path.size() > ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

Result<ColumnarInfo> write_columnar(const Dataset& dataset,
                                    const std::string& path) {
  const std::span<const Request> reqs = dataset.requests();
  const std::span<const Session> sess = dataset.sessions();

  // Assemble every column payload in memory first: the file is written in
  // one pass (header sizes are known only once payloads exist) and a
  // failed write never leaves a structurally-valid prefix behind.
  struct Block {
    std::uint32_t id;
    std::vector<std::uint8_t> payload;
  };
  std::vector<Block> blocks;
  blocks.reserve(kColumnCount);
  blocks.push_back({kReqTime, encode_req_time(reqs)});
  blocks.push_back({kReqClient, encode_varints(
      reqs, [](const Request& r) { return r.client; })});
  blocks.push_back({kReqStatus, encode_status_dict(reqs)});
  blocks.push_back({kReqBytes, encode_varints(
      reqs, [](const Request& r) { return r.bytes; })});
  blocks.push_back({kSessStart, encode_sess_start(sess)});
  blocks.push_back({kSessClient, encode_varints(
      sess, [](const Session& s) { return s.client; })});
  blocks.push_back({kSessEndDelta, encode_sess_end_delta(sess)});
  blocks.push_back({kSessRequests, encode_varints(
      sess, [](const Session& s) { return s.requests; })});
  blocks.push_back({kSessBytes, encode_varints(
      sess, [](const Session& s) { return s.bytes; })});

  std::vector<std::uint8_t> file;
  put_u32(file, kColumnarMagic);
  put_u32(file, kColumnarVersion);
  put_u64(file, reqs.size());
  put_u64(file, sess.size());
  put_f64(file, dataset.t0());
  put_f64(file, dataset.t1());
  put_u64(file, dataset.total_bytes());
  put_u64(file, dataset.distinct_clients());
  put_u32(file, static_cast<std::uint32_t>(dataset.name().size()));
  put_u32(file, kColumnCount);
  file.insert(file.end(), dataset.name().begin(), dataset.name().end());

  ColumnarInfo info;
  info.requests = reqs.size();
  info.sessions = sess.size();
  for (const auto& b : blocks) {
    put_u32(file, b.id);
    put_u32(file, expected_encoding(b.id));
    put_u64(file, b.payload.size());
    file.insert(file.end(), b.payload.begin(), b.payload.end());
    info.columns.push_back({column_name(b.id), b.payload.size()});
  }
  info.file_bytes = file.size();

  std::FILE* fp = std::fopen(path.c_str(), "wb");
  if (fp == nullptr)
    return Error{"columnar: cannot create " + path, "io"};
  const bool wrote =
      std::fwrite(file.data(), 1, file.size(), fp) == file.size();
  const bool closed = std::fclose(fp) == 0;
  if (!wrote || !closed) {
    std::remove(path.c_str());
    return Error{"columnar: write failed for " + path, "io"};
  }
  return info;
}

}  // namespace fullweb::store

namespace fullweb::weblog {

support::Result<std::uint64_t> Dataset::to_columnar(
    const std::string& path) const {
  return store::write_columnar(*this, path).map(
      [](const store::ColumnarInfo& info) { return info.file_bytes; });
}

support::Result<Dataset> Dataset::from_columnar(const std::string& path) {
  auto mapped = store::MappedFile::open(path);
  if (!mapped.ok()) return mapped.error();
  auto tables =
      store::decode(path, mapped.value().data(), mapped.value().size());
  if (!tables.ok()) return tables.error();
  auto& t = tables.value();
  if (auto st = check_window(t.t0, t.t1); !st.ok()) return st.error();

  Dataset ds;
  ds.name_ = std::move(t.name);
  ds.requests_ = std::move(t.requests);
  ds.sessions_ = std::move(t.sessions);
  ds.t0_ = t.t0;
  ds.t1_ = t.t1;
  ds.total_bytes_ = t.total_bytes;
  ds.distinct_clients_ = static_cast<std::size_t>(t.distinct_clients);
  return ds;
}

}  // namespace fullweb::weblog
