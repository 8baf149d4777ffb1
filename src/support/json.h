// Minimal JSON reading and writing shared by the offline tooling.
//
// The reader is one recursive-descent parser for the validation report
// drift checker (tools/fullweb_selftest --baseline), which compares a fresh
// report against the committed baseline. It reads objects, arrays, strings,
// numbers, bools and null; unknown fields are simply carried along. It is
// not a general standards-lawyer JSON library — \uXXXX escapes are
// preserved verbatim rather than decoded, and numbers are doubles.
//
// The writer produces deterministic output: keys in the order written,
// doubles via shortest round-trip formatting, fixed two-space indentation —
// so a report generated from a bit-identical run is byte-identical, and
// committed baselines diff cleanly.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace fullweb::support {

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      v = nullptr;

  [[nodiscard]] const JsonObject* object() const {
    auto p = std::get_if<std::shared_ptr<JsonObject>>(&v);
    return p ? p->get() : nullptr;
  }
  [[nodiscard]] const JsonArray* array() const {
    auto p = std::get_if<std::shared_ptr<JsonArray>>(&v);
    return p ? p->get() : nullptr;
  }
  [[nodiscard]] std::optional<double> number() const {
    auto p = std::get_if<double>(&v);
    if (p) return *p;
    return std::nullopt;
  }
  [[nodiscard]] std::optional<std::string> string() const {
    auto p = std::get_if<std::string>(&v);
    if (p) return *p;
    return std::nullopt;
  }
  [[nodiscard]] std::optional<bool> boolean() const {
    auto p = std::get_if<bool>(&v);
    if (p) return *p;
    return std::nullopt;
  }

  /// Object member lookup; null for non-objects and missing keys.
  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    const JsonObject* obj = object();
    if (obj == nullptr) return nullptr;
    auto it = obj->find(key);
    return it != obj->end() ? &it->second : nullptr;
  }
};

/// Parse a complete JSON document. Returns nullopt on any syntax error,
/// trailing garbage, or containers nested deeper than 256 levels (the
/// documents fullweb writes nest 4).
[[nodiscard]] std::optional<JsonValue> json_parse(const std::string& text);

/// Serialize a double the way the writer does: shortest representation that
/// round-trips bit-exactly ("%.17g" tightened when fewer digits suffice).
[[nodiscard]] std::string json_format_double(double x);

/// Escape and quote a string for JSON output.
[[nodiscard]] std::string json_quote(const std::string& s);

/// Streaming JSON writer with fixed two-space indentation. Call sequences
/// mirror the document structure:
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("name"); w.value("selftest");
///   w.key("cells"); w.begin_array(); ... w.end_array();
///   w.end_object();
///   std::string doc = std::move(w).str();
///
/// The writer inserts commas and newlines; misuse (value without key inside
/// an object) is a programming error and asserts.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(const std::string& name);

  void value(const std::string& s);
  void value(const char* s);
  void value(double x);
  void value(bool b);
  void value(std::size_t n);
  void null();

  /// Convenience: key + value in one call.
  template <typename T>
  void field(const std::string& name, const T& v) {
    key(name);
    value(v);
  }

  [[nodiscard]] std::string str() &&;

 private:
  void before_value();
  void newline_indent();

  enum class Frame { kObject, kArray };
  struct Level {
    Frame frame;
    bool empty = true;
    bool key_pending = false;
  };
  std::string out_;
  std::vector<Level> stack_;
};

}  // namespace fullweb::support
